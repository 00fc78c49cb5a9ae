"""The writer of ``aristotle simulate``: the samples of a config as CSV or
JSON, formatted in forked workers.  Only ``simulate`` loads this module."""

import contextlib
import io
import os
import sys
from collections.abc import Iterator
from itertools import islice

from . import dynamics

# Rows formatted and written per write call.
_CHUNK_ROWS = 4096


def _chunks(cfg: dynamics.SimulationConfig, fmt: str, worker: int = 0,
            workers: int = 1) -> Iterator[str]:
    """Chunks worker, worker + workers, ... of _CHUNK_ROWS formatted records:
    joined in order, the bytes of joining every CSV record or of one json.dumps
    over all records less its "[" and "]".  Only t and p are formatted per row."""
    for start in range(worker * _CHUNK_ROWS, dynamics.sample_count(cfg), workers * _CHUNK_ROWS):
        rows = islice(dynamics.sample_rows(cfg, start), _CHUNK_ROWS)
        if fmt == "csv":
            # cli._fmt's rule over the chunk at once: a repr holds no comma or
            # newline, so ".0," and ".0\n" end one.  Only H precedes the newline.
            tail = f",{cfg.q0!r},{cfg.energy!r}\n".replace(".0\n", "\n")
            yield "".join([f"{t!r},{p!r}{tail}" for t, p in rows]).replace(".0,", ",")
        else:  # json.dumps writes a finite float as its repr
            tail = f', "q": {cfg.q0!r}, "H": {cfg.energy!r}}}'
            yield ", " * bool(start) + ", ".join([f'{{"t": {t!r}, "p": {p!r}{tail}' for t, p in rows])


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


def write_trajectory(fh: io.TextIOBase, cfg: dynamics.SimulationConfig, fmt: str) -> None:
    """Write the samples of cfg, all finite, to fh.

    Forked workers format the rows on every CPU the process may use, unless
    there is one CPU, one chunk, no descriptor or no fork; the bytes are the
    same either way, and memory does not grow with the rows."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, -(-dynamics.sample_count(cfg) // _CHUNK_ROWS))
    fh.write("t,p,q,H\n" if fmt == "csv" else "[")
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
