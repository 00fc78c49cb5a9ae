"""Command-line front end.

Subcommands: ``verify`` runs the randomized identity suite, ``simulate``
writes a trajectory as CSV or JSON, ``orbit`` maps a dual point to chart
coordinates, ``act`` applies the group action to a chart point.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Numeric output uses the shortest round-trip representation so downstream
tools can re-check identities bit for bit.

Importing this module loads only ``group``, ``orbit`` and ``record``; ``simulate``
loads ``dynamics`` and ``write`` when it runs, and ``verify`` the suite.  Only
command lines other than a well-formed ``orbit``/``act`` call load argparse.
"""

import contextlib
import os
import stat
import sys
import types

from . import group, orbit

_POINT_FLAGS = {"orbit": ("--m", "--g", "--e", "--p"),  # required number flags, in order
                "act": ("--mass", "--g", "--t", "--h", "--p", "--q")}


def __getattr__(name: str):
    """`cli.dynamics` and `cli.verify`, each imported on first use."""
    if name not in ("dynamics", "verify"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__package__}.{name}")
    return sys.modules[f"{__package__}.{name}"]


def _numbers(parser: "argparse.ArgumentParser", *names: str) -> None:
    """Declare each of ``names`` as a required number flag, in order."""
    for name in names:
        parser.add_argument(name, type=float, required=True)


def _fmt(x: float) -> str:
    """Shortest round-trip form; integral values print without a fraction.

    repr ends in ".0" exactly on integral values below 1e16 in magnitude (it
    writes larger ones in exponent form); dropping that suffix keeps -0 signed.
    """
    r = repr(x)
    return r[:-2] if r.endswith(".0") else r


def cmd_verify(args: "argparse.Namespace") -> int:
    # Through the module attribute, so a `cli.verify` set from outside is used.
    results = sys.modules[__name__].verify.run_verify(args.seed, args.cases)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} max_violation={r.max_violation!r}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results)} properties, {failed} failed (seed={args.seed}, cases={args.cases})")
    return 1 if failed else 0


def cmd_simulate(args: "argparse.Namespace") -> int:
    # Through the module attribute, so a `cli.dynamics` set from outside is used.
    # The config checks its whole run, before anything is written.
    cfg = sys.modules[__name__].dynamics.SimulationConfig(
        m=args.mass, g=args.g, p0=args.p0, q0=args.q0,
        t_max=args.t_max, dt=args.dt, integrator=args.integrator,
    )

    from .write import write_trajectory
    if args.out is None:
        write_trajectory(sys.stdout, cfg, args.format)
        return 0
    opened = None
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            opened = os.fstat(fh.fileno())  # of the file a link names, as written
            write_trajectory(fh, cfg, args.format)
    except BaseException as err:  # a write error, a failed worker or Ctrl-C
        # A file cut at a chunk boundary would read as a whole, shorter run, so a
        # regular one is removed, not the link to it; /dev/full or a FIFO is kept.
        if opened is not None and stat.S_ISREG(opened.st_mode):
            with contextlib.suppress(OSError):
                path = os.path.realpath(args.out)
                if os.path.samestat(os.lstat(path), opened):
                    os.remove(path)
        if isinstance(err, OSError):
            raise ValueError(f"cannot write {args.out!r}: {err}") from err
        raise
    return 0


def cmd_orbit(args: "argparse.Namespace") -> int:
    ctx = orbit.OrbitContext(args.m, args.g)
    point = orbit.to_chart(ctx, orbit.CoadjointPoint(args.m, args.e, args.p))
    print(f"p={_fmt(point.p)} q={_fmt(point.q)}")
    return 0


def cmd_act(args: "argparse.Namespace") -> int:
    ctx = orbit.OrbitContext(args.mass, args.g)
    moved = orbit.canonical_act(
        ctx, group.BaseElement(args.t, args.h), orbit.OrbitPoint(args.p, args.q)
    )
    print(f"p={_fmt(moved.p)} q={_fmt(moved.q)}")
    return 0


def build_parser() -> "argparse.ArgumentParser":
    import argparse
    parser = argparse.ArgumentParser(
        prog="aristotle",
        description="Coadjoint-orbit mechanics of the extended static group.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_verify = sub.add_parser("verify", help="run the randomized identity suite")
    p_verify.add_argument("--seed", type=int, default=42, help="generator seed")
    p_verify.add_argument("--cases", type=int, default=1000, help="cases per property")

    p_sim = sub.add_parser("simulate", help="sample a trajectory to CSV or JSON")
    _numbers(p_sim, "--mass", "--g", "--p0", "--q0", "--t-max", "--dt")
    # dynamics.INTEGRATORS, spelled out so that the parser loads no dynamics.
    p_sim.add_argument("--integrator", choices=("exact", "symplectic_euler"), default="exact")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--out", default=None, help="output path (default: stdout)")

    _numbers(sub.add_parser("orbit", help="map a dual point to chart coordinates"),
             *_POINT_FLAGS["orbit"])
    _numbers(sub.add_parser("act", help="apply a translation to a chart point"),
             *_POINT_FLAGS["act"])

    return parser


def _point_query(argv: list[str]) -> types.SimpleNamespace | None:
    """An ``orbit``/``act`` call as argparse reads it, or None unless each flag
    appears once by its exact name, as ``--flag=value`` or as ``--flag value``
    with no leading "-" (read differently by argparse versions).  A non-finite
    value is read too: the value class the handler builds refuses it."""
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
    if len(values) < len(flags):
        return None
    return types.SimpleNamespace(subcommand=argv[0],
                                 **{name[2:]: value for name, value in values.items()})


def _to_devnull(stream) -> None:
    """Point the descriptor of stream at devnull, so the flush at exit cannot fail again."""
    fd, null = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
    if null != fd:  # else fd was closed, and devnull took its place
        os.dup2(null, fd)
        os.close(null)


def main(argv: list[str] | None = None) -> int:
    args = _point_query(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    try:
        if sys.stdout is None and getattr(args, "out", None) is None:  # descriptor 1 closed
            raise ValueError("cannot write stdout: it is closed")  # print would drop the output
        # The handler looked up now, so one patched on this module is run.
        code = globals()[f"cmd_{args.subcommand}"](args)
        if sys.stdout is not None:  # only `simulate --out` runs without one
            sys.stdout.flush()
        return code
    except ValueError as err:  # a refused input, or a failed run that is not a write error
        message = str(err)
    except OSError as err:  # writing stdout; `simulate --out` raises its own as ValueError
        _to_devnull(sys.stdout)
        if isinstance(err, BrokenPipeError):  # a reader that stopped early, as `| head` does
            return 0
        message = f"cannot write stdout: {err}"
    try:  # an unwritable stderr loses the line, not the exit code
        if sys.stderr is not None:  # else print would write to stdout
            print(f"error: {message}", file=sys.stderr)
    except OSError:  # as for stdout: the line kept in the buffer is not flushed at exit
        _to_devnull(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
