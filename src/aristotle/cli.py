"""Command-line front end.

Subcommands: ``verify`` runs the randomized identity suite, ``simulate``
writes a trajectory as CSV or JSON, ``orbit`` maps a dual point to chart
coordinates, ``act`` applies the group action to a chart point.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Numeric output uses the shortest round-trip representation so downstream
tools can re-check identities bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
from collections.abc import Iterator
from itertools import islice
from typing import TextIO

from . import dynamics, group, orbit


def __getattr__(name: str):
    """`cli.verify`, imported on first use: only `aristotle verify` runs the suite."""
    if name != "verify":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify
    return verify


# Rows formatted and written per write call by `simulate`.
_CHUNK_ROWS = 4096


def _finite(text: str) -> float:
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


def _chunks(cfg: dynamics.SimulationConfig, fmt: str, worker: int = 0,
            workers: int = 1) -> Iterator[str]:
    """Chunks worker, worker + workers, ... of _CHUNK_ROWS formatted records:
    joined in order, the bytes of joining every CSV record or of one json.dumps
    over all records less its "]".  Only t and p are formatted per row."""
    rows, energy = dynamics.sample_rows(cfg, _CHUNK_ROWS, worker, workers), cfg.energy
    if fmt == "csv":
        tail = f",{_fmt(cfg.q0)},{_fmt(energy)}\n"
        while chunk := "".join([f"{t!r},{p!r}{tail}" for t, p in islice(rows, _CHUNK_ROWS)]):
            # _fmt over the chunk at once: t and p are the only fields that
            # can end in ".0", and each is followed by a comma.
            yield chunk.replace(".0,", ",")
    else:
        # json.dumps writes a finite float as its repr.
        tail = f', "q": {cfg.q0!r}, "H": {energy!r}}}'
        sep = "[" if worker == 0 else ", "
        while chunk := ", ".join([f'{{"t": {t!r}, "p": {p!r}{tail}' for t, p in islice(rows, _CHUNK_ROWS)]):
            yield sep + chunk
            sep = ", "


def _write_forked(fd: int, cfg: dynamics.SimulationConfig, fmt: str, workers: int) -> None:
    """Write the chunks of all workers to fd in order, each worker forked.

    A ring of pipes passes one turn token, so the workers write in turn through
    the shared file offset.  A worker that fails exits with its errno, raised
    here as OSError (BrokenPipeError for EPIPE), and its closed pipe stops the rest."""
    ring = [os.pipe() for _ in range(workers)]
    os.write(ring[0][1], b".")
    pids = []
    try:
        for worker in range(workers):
            if pid := os.fork():
                pids.append(pid)
                continue
            turn, next_turn = ring[worker][0], ring[(worker + 1) % workers][1]
            code = 255  # not an errno: an exception other than OSError
            try:
                for end in {*sum(ring, ())} - {turn, next_turn}:
                    os.close(end)  # so each pipe has one writer, whose exit closes it
                for chunk in _chunks(cfg, fmt, worker, workers):
                    data = memoryview(chunk.encode())
                    if not os.read(turn, 1):
                        break  # an earlier worker failed
                    while data:
                        data = data[os.write(fd, data):]
                    with contextlib.suppress(BrokenPipeError):  # the next worker is done or failed
                        os.write(next_turn, b".")
                code = 0
            except OSError as err:
                code = err.errno
            except BaseException:
                sys.excepthook(*sys.exc_info())
            finally:
                os._exit(code)  # never the caller's return path, atexit or stdio flush
    finally:  # also when a fork fails: the workers started see the ring close
        for end in sum(ring, ()):
            os.close(end)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if code := next(filter(None, codes), 0):
        raise OSError(code, os.strerror(code) if code > 0 else f"worker got signal {-code}")


def _write_trajectory(fh: TextIO, cfg: dynamics.SimulationConfig, fmt: str) -> None:
    """Write the samples of cfg, all finite, to fh.

    Forked workers format the rows on every CPU the process may use, unless
    there is one CPU, one chunk, no descriptor or no fork; the bytes are the
    same either way, and memory does not grow with the rows."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, -(-dynamics.sample_count(cfg) // _CHUNK_ROWS))
    fh.write("t,p,q,H\n" if fmt == "csv" else "")
    try:
        fd = fh.fileno()
    except (AttributeError, io.UnsupportedOperation):
        workers = 1
    if workers > 1 and hasattr(os, "fork"):
        fh.flush()
        _write_forked(fd, cfg, fmt, workers)
    else:
        for chunk in _chunks(cfg, fmt):
            fh.write(chunk)
    fh.write("]\n" if fmt == "json" else "")


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg = dynamics.SimulationConfig(
            m=args.mass, g=args.g, p0=args.p0, q0=args.q0,
            t_max=args.t_max, dt=args.dt, integrator=args.integrator,
        )
    except ValueError as err:
        # The config checks its whole run, before anything is written.
        return _fail(str(err))

    if args.out is None:
        _write_trajectory(sys.stdout, cfg, args.format)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_trajectory(fh, cfg, args.format)
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
    p_sim.add_argument("--integrator", choices=dynamics.INTEGRATORS, default="exact")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--out", default=None, help="output path (default: stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_orbit = sub.add_parser("orbit", help="map a dual point to chart coordinates")
    _numbers(p_orbit, "--m", "--g", "--e", "--p")
    p_orbit.set_defaults(func=cmd_orbit)

    p_act = sub.add_parser("act", help="apply a translation to a chart point")
    _numbers(p_act, "--mass", "--g", "--t", "--h", "--p", "--q")
    p_act.set_defaults(func=cmd_act)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except OSError as err:  # writing stdout; the handlers catch their other errors
        # Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        # A reader that stopped early, as `| head` does, ends the run quietly.
        return 0 if isinstance(err, BrokenPipeError) else _fail(f"cannot write stdout: {err}")
    return code


if __name__ == "__main__":
    sys.exit(main())
