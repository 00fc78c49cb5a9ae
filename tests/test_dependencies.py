"""The package declares no runtime dependency.  That no entry point loads a
module from outside the standard library is `IMPORT_BUDGETS` in
`test_cli.py`: every row fails on one."""

from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest itself depends on tomli
    import tomli as tomllib

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_declares_no_runtime_dependency():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    # The suite needs only pytest: its tables are nested lists, and its random
    # inputs come from seeded `random.Random` generators.
    assert project["optional-dependencies"]["test"] == ["pytest"]
