"""The package runs on the standard library alone: it declares no runtime
dependency, and no subcommand loads a module from outside the standard
library."""

from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest itself depends on tomli
    import tomli as tomllib

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_declares_no_runtime_dependency():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


@pytest.mark.parametrize("argv", [
    ["orbit", "--m", "5", "--g", "2", "--e", "-30", "--p", "31"],
    ["act", "--mass", "5", "--g", "2", "--t", "3", "--h", "4", "--p", "1", "--q", "2"],
    ["simulate", "--mass", "2", "--g", "3", "--p0", "1", "--q0", "5", "--dt", "0.5",
     "--t-max", "4", "--out", "OUT"],
    ["verify", "--cases", "2"],
], ids=lambda argv: argv[0])
def test_each_subcommand_loads_only_the_standard_library(argv, tmp_path, bare_python):
    argv = [str(tmp_path / "trajectory.csv") if a == "OUT" else a for a in argv]
    proc = bare_python("from aristotle import cli\n"
                       "code = cli.main(sys.argv[1:])\n"
                       "tops = {name.partition('.')[0] for name in sys.modules}\n"
                       "print(sorted(tops - sys.stdlib_module_names - {'aristotle', '__main__'}),"
                       " file=sys.stderr)\n"
                       "sys.exit(code)", *argv, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "[]\n")
    out = (tmp_path / "trajectory.csv").read_text() if argv[0] == "simulate" else proc.stdout
    assert out.count("\n") > 1 or out.startswith("p=")  # the command wrote its answer
