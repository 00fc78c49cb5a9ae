"""Fixtures that set how many CPUs `aristotle simulate` sees, so both of its
writing paths (rows formatted in process, or by forked workers) run on any
host, and one that runs code in a bare interpreter."""

import os
import subprocess
import sys

import pytest

import aristotle


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


@pytest.fixture
def bare_python():
    """Run code with argv in a fresh interpreter started with -S, so that no
    .pth file run by `site` imports modules of its own, and with the tested
    package's directory put first on sys.path; its output is captured as
    text, or as bytes with text=False."""
    src = os.path.dirname(os.path.dirname(aristotle.__file__))

    def run(code, *argv, text=True, **kwargs):
        code = f"import sys; sys.path.insert(0, {src!r})\n{code}"
        return subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                              text=text, **kwargs)
    return run
