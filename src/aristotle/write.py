"""The writer of ``aristotle simulate``: the samples of a config as CSV or
JSON, formatted in forked workers, none of which outlives the call, even an
interrupted one.  Only ``simulate`` loads this module."""

import contextlib
import io
import os
import signal
import sys
from collections.abc import Iterator
from itertools import islice

from . import dynamics

# Rows formatted and written per write call.
_CHUNK_ROWS = 4096
_ASCII = bytes(range(128))  # the workers write the output's characters as these bytes


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


def _write_forked(fd: int, cfg: dynamics.SimulationConfig, fmt: str, workers: int) -> bool:
    """Write the chunks of all workers to fd in order, each worker forked, or
    return False, with nothing written, when a fork fails.

    A ring of pipes passes one turn token, so the workers write in turn through
    the shared file offset.  A worker that fails exits with its errno, raised
    here as OSError (BrokenPipeError for EPIPE), and its closed pipe stops the
    rest; a worker killed by a signal, or exiting otherwise, raises ValueError.
    On Ctrl-C only this process reports.  Whatever interrupts the wait for the
    workers kills and reaps those still running before it propagates, so none
    outlives the call; a worker stops once its parent is killed."""
    parent = os.getpid()
    ring = [os.pipe() for _ in range(workers)]
    pids = []
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})  # Ctrl-C waits for each worker's try
    try:
        for worker in range(workers):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the workers started see the ring close
                break
            if pid:
                pids.append(pid)
                continue
            code = 255  # not an errno: an exception other than OSError, or Ctrl-C
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                turn, next_turn = ring[worker][0], ring[(worker + 1) % workers][1]
                for end in {*sum(ring, ())} - {turn, next_turn}:
                    os.close(end)  # so each pipe has one writer, whose exit closes it
                for chunk in _chunks(cfg, fmt, worker, workers):
                    data = memoryview(chunk.encode())
                    if not os.read(turn, 1) or os.getppid() != parent:
                        break  # an earlier worker failed, or the parent was killed
                    while data:
                        data = data[os.write(fd, data):]
                    with contextlib.suppress(BrokenPipeError):  # the next worker is done or failed
                        os.write(next_turn, b".")
                code = 0
            except OSError as err:
                code = err.errno
            except Exception:  # not KeyboardInterrupt: only this process reports it
                sys.excepthook(*sys.exc_info())
            finally:
                os._exit(code)  # never the caller's return path, atexit or stdio flush
        else:
            os.write(ring[0][1], b".")  # the first turn, once every worker runs
    finally:
        for end in sum(ring, ()):
            os.close(end)
        codes = []  # the exit codes of pids[:len(codes)]
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a Ctrl-C held since the forks raises here
            for pid in pids:
                codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        except BaseException:  # Ctrl-C, say: no worker outlives the call
            for pid in pids[len(codes):]:
                with contextlib.suppress(ChildProcessError):  # reaped as the wait was cut
                    if not os.waitpid(pid, os.WNOHANG)[0]:  # still running, so the pid is still its own
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
            raise
    if 0 < (code := next(filter(None, codes), 0)) < 255:  # the errno of a failed read or write
        raise OSError(code, os.strerror(code))
    if code:  # not a write error: a signal, or an exception other than OSError
        raise ValueError(f"a worker process was killed by signal {-code} ({signal.strsignal(-code)})"
                         if code < 0 else f"a worker process exited unexpectedly with status {code}")
    return len(pids) == workers


def write_trajectory(fh: io.TextIOBase, cfg: dynamics.SimulationConfig, fmt: str) -> None:
    """Write the samples of cfg, all finite, to fh.

    Forked workers format the rows on every CPU the process may use, unless
    there is one CPU, one chunk, no fork or a failed one, or no descriptor
    encoding ASCII as is: the same bytes either way, in memory that does not
    grow with the rows.  A fmt other than "csv" or "json" is refused before
    anything is written."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; expected one of ('csv', 'json')")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, -(-dynamics.sample_count(cfg) // _CHUNK_ROWS))
    fh.write("t,p,q,H\n" if fmt == "csv" else "[")
    try:
        fd = fh.fileno()
        encodes_ascii = _ASCII.decode().encode(fh.encoding, "replace") == _ASCII
    except (AttributeError, io.UnsupportedOperation):
        encodes_ascii = False
    forked = workers > 1 and encodes_ascii and hasattr(os, "fork")
    if forked:
        fh.flush()
        forked = _write_forked(fd, cfg, fmt, workers)
    if not forked:
        for chunk in _chunks(cfg, fmt):
            fh.write(chunk)
    fh.write("]\n" if fmt == "json" else "")
