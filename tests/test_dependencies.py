"""The package runs on the standard library alone: it declares no runtime
dependency, and no subcommand loads a module from outside the standard
library."""

import re
from pathlib import Path

import pytest

from test_cli import IMPORT_BUDGETS

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest itself depends on tomli
    import tomli as tomllib

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_declares_no_runtime_dependency():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    # The suite needs only pytest and Hypothesis: its tables are nested lists.
    assert project["optional-dependencies"]["test"] == ["pytest", "hypothesis"]


# subcommand -> the IMPORT_BUDGETS row whose one measured run this test reads
SUBCOMMAND_ROWS = {"orbit": "orbit-through-argparse", "act": "point-queries",
                   "simulate": "simulate-out", "verify": "verify"}


@pytest.mark.parametrize("row", SUBCOMMAND_ROWS.values(), ids=SUBCOMMAND_ROWS)
def test_each_subcommand_loads_only_the_standard_library(row, measured_python):
    code, stdout, _ = IMPORT_BUDGETS[row]
    out, outside, _ = measured_python(code)
    assert outside == set()
    assert re.fullmatch(stdout, out), out  # the command wrote its answer
