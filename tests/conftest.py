"""Fixtures that set how many CPUs `aristotle simulate` sees, so both of its
writing paths (rows formatted in process, or by forked workers) run on any
host, and one that runs code once in a bare interpreter with the modules it
imports measured; tests that run code there as it is call `run_bare`.  A call
that must return at once runs under `deadline`, and a test that forks
workers ends with `assert_reaped`."""

import ast
import contextlib
import os
import signal
import subprocess
import sys
import tempfile

import pytest

import aristotle

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
# Doubles at the edges of the value classes, for grids of extreme inputs.
GRID_VALUES = (0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-160, 1e-10, 0.5,
               1.0, -1.0, 3.0, 1e10, 1e154, 1e160, 1e290, 1e300, 8e307,
               1.7976931348623157e308, -1.7976931348623157e308)


@contextlib.contextmanager
def deadline(seconds, error=TimeoutError):
    """Raise error in this process, from a SIGALRM timer, once the block has
    run for seconds; the timer is disarmed and the handler restored on exit."""
    def expire(signum, frame):
        raise error

    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


def assert_reaped():
    """Every child process of this one has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def use_cpus(monkeypatch):
    """Make the CLI in this process see the given number of CPUs."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    return use


@pytest.fixture
def cli_command():
    """Command line running the CLI in a fresh interpreter that sees `cpus` CPUs."""
    def command(args, cpus):
        code = (f"import os, sys; os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
                "from aristotle.cli import main; sys.exit(main(sys.argv[1:]))")
        return [sys.executable, "-c", code, *args]
    return command


def run_bare(code, *argv, text=True, **kwargs):
    """Run code with argv in a fresh interpreter started with -S, so that no
    .pth file run by `site` imports modules of its own, and with the tested
    package's directory put first on sys.path; its output is captured as
    text, or as bytes with text=False."""
    src = os.path.dirname(os.path.dirname(aristotle.__file__))
    code = f"import sys; sys.path.insert(0, {src!r})\n{code}"
    return subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                          text=text, **kwargs)


def _measured(code):
    with tempfile.TemporaryDirectory() as cwd:
        proc = run_bare(
            "tried = set()\n"
            "sys.addaudithook(lambda event, args: event == 'import' and tried.add(args[0]))\n"
            "sys.modules['numpy'] = None\n"
            f"{code}\n"
            "loaded = {name for name, module in sys.modules.items() if module is not None}\n"
            "tops = {name.partition('.')[0] for name in loaded} - {'aristotle', '__main__'}\n"
            "print(sorted(tops - sys.stdlib_module_names), sorted(loaded | tried), sep='\\n',"
            " file=sys.stderr)",
            cwd=cwd, timeout=60)
    assert proc.returncode == 0, proc.stderr
    outside, seen = map(ast.literal_eval, proc.stderr.splitlines())
    return proc.stdout, set(outside), set(seen)


@pytest.fixture(scope="session")
def measured_python():
    """Run code once in a bare interpreter, in an empty working directory,
    where `import numpy` raises ImportError; the code must exit 0.  Returns
    its stdout, the top-level modules it loaded from outside the standard
    library, and every module it loaded or tried to import, which catches a
    guarded `import numpy` too."""
    return _measured
