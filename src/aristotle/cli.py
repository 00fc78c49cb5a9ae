"""Command-line front end.

Subcommands: ``verify`` runs the randomized identity suite, ``simulate``
writes a trajectory as CSV or JSON, ``orbit`` maps a dual point to chart
coordinates, ``act`` applies the group action to a chart point.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Numeric output uses the shortest round-trip representation so downstream
tools can re-check identities bit for bit.

Importing this module loads ``group`` and ``orbit`` only; ``simulate`` loads
``dynamics`` and ``write`` when it runs, and ``verify`` the suite.  Only
command lines other than a well-formed ``orbit``/``act`` call load argparse.
"""

from __future__ import annotations

import math
import os
import sys
import types

from . import group, orbit

_POINT_FLAGS = {"orbit": ("--m", "--g", "--e", "--p"),  # required finite flags, in order
                "act": ("--mass", "--g", "--t", "--h", "--p", "--q")}


def __getattr__(name: str):
    """`cli.dynamics` and `cli.verify`, each imported on first use."""
    if name not in ("dynamics", "verify"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__package__}.{name}")
    return sys.modules[f"{__package__}.{name}"]


def _finite(text: str) -> float:
    import argparse
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not finite: {text!r}")
    return value


def _numbers(parser: argparse.ArgumentParser, *names: str) -> None:
    """Declare each of ``names`` as a required finite-number flag, in order."""
    for name in names:
        parser.add_argument(name, type=_finite, required=True)


def _fmt(x: float) -> str:
    """Shortest round-trip form; integral values print without a fraction.

    repr ends in ".0" exactly on integral values below 1e16 in magnitude (it
    writes larger ones in exponent form); dropping that suffix keeps -0 signed.
    """
    r = repr(x)
    return r[:-2] if r.endswith(".0") else r


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_verify(args: argparse.Namespace) -> int:
    if args.cases < 1:
        return _fail("--cases must be >= 1")
    if args.tol is not None and args.tol <= 0.0:
        return _fail("--tol must be positive")
    # Through the module attribute, so a `cli.verify` set from outside is used.
    results = sys.modules[__name__].verify.run_verify(args.seed, args.cases, args.tol)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} max_violation={r.max_violation!r}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results)} properties, {failed} failed (seed={args.seed}, cases={args.cases})")
    return 1 if failed else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        # Through the module attribute, so a `cli.dynamics` set from outside is used.
        cfg = sys.modules[__name__].dynamics.SimulationConfig(
            m=args.mass, g=args.g, p0=args.p0, q0=args.q0,
            t_max=args.t_max, dt=args.dt, integrator=args.integrator,
        )
    except ValueError as err:
        # The config checks its whole run, before anything is written.
        return _fail(str(err))

    from .write import write_trajectory
    if args.out is None:
        write_trajectory(sys.stdout, cfg, args.format)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_trajectory(fh, cfg, args.format)
    except OSError as err:
        return _fail(f"cannot write {args.out!r}: {err}")
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    try:
        ctx = orbit.OrbitContext(args.m, args.g)
        point = orbit.to_chart(ctx, orbit.CoadjointPoint(args.m, args.e, args.p))
    except ValueError as err:  # degenerate orbit, or overflow to non-finite
        return _fail(str(err))
    print(f"p={_fmt(point.p)} q={_fmt(point.q)}")
    return 0


def cmd_act(args: argparse.Namespace) -> int:
    try:
        ctx = orbit.OrbitContext(args.mass, args.g)
        moved = orbit.canonical_act(
            ctx, group.BaseElement(args.t, args.h), orbit.OrbitPoint(args.p, args.q)
        )
    except ValueError as err:
        return _fail(str(err))
    print(f"p={_fmt(moved.p)} q={_fmt(moved.q)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="aristotle",
        description="Coadjoint-orbit mechanics of the extended static group.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_verify = sub.add_parser("verify", help="run the randomized identity suite")
    p_verify.add_argument("--seed", type=int, default=42, help="generator seed")
    p_verify.add_argument("--cases", type=int, default=1000, help="cases per property")
    p_verify.add_argument(
        "--tol", type=_finite, default=None,
        help="tolerance for the 1e-9 numerical class (pinned classes unaffected)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="sample a trajectory to CSV or JSON")
    _numbers(p_sim, "--mass", "--g", "--p0", "--q0", "--t-max", "--dt")
    # dynamics.INTEGRATORS, spelled out so that the parser loads no dynamics.
    p_sim.add_argument("--integrator", choices=("exact", "symplectic_euler"), default="exact")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--out", default=None, help="output path (default: stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_orbit = sub.add_parser("orbit", help="map a dual point to chart coordinates")
    _numbers(p_orbit, *_POINT_FLAGS["orbit"])
    p_orbit.set_defaults(func=cmd_orbit)

    p_act = sub.add_parser("act", help="apply a translation to a chart point")
    _numbers(p_act, *_POINT_FLAGS["act"])
    p_act.set_defaults(func=cmd_act)

    return parser


def _point_query(argv: list[str]) -> types.SimpleNamespace | None:
    """An ``orbit``/``act`` call as argparse reads it, or None unless each flag
    appears once by its exact name, as ``--flag=value`` or as ``--flag value``
    with no leading "-" (read differently by argparse versions), all finite."""
    flags = _POINT_FLAGS.get(argv[0] if argv else None)
    if flags is None:
        return None
    values, tokens = {}, iter(argv[1:])
    try:
        for token in tokens:
            name, eq, text = token.partition("=")
            text = text if eq else next(tokens, "-")
            if name not in flags or name in values or not eq and text.startswith("-"):
                return None
            values[name] = float(text)
    except ValueError:
        return None
    if len(values) < len(flags) or not all(map(math.isfinite, values.values())):
        return None
    # The handler looked up now, as the parser does when built: a patched one is used.
    return types.SimpleNamespace(subcommand=argv[0], func=globals()[f"cmd_{argv[0]}"],
                                 **{name[2:]: value for name, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    args = _point_query(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    if sys.stdout is None and getattr(args, "out", None) is None:  # descriptor 1 closed at start
        return _fail("cannot write stdout: it is closed")  # print would drop the output
    try:
        code = args.func(args)
        if sys.stdout is not None:  # only `simulate --out` runs without one
            sys.stdout.flush()
    except OSError as err:  # writing stdout; the handlers catch their other errors
        # Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        # A reader that stopped early, as `| head` does, ends the run quietly.
        return 0 if isinstance(err, BrokenPipeError) else _fail(f"cannot write stdout: {err}")
    return code


if __name__ == "__main__":
    sys.exit(main())
