"""Fixtures that set how many CPUs `aristotle simulate` sees, so both of its
writing paths (rows formatted in process, or by forked workers) run on any
host."""

import os
import sys

import pytest


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
