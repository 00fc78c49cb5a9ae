"""The README's examples run and give the values their comments state."""

import re
import shlex
from pathlib import Path

from aristotle import cli
from aristotle.orbit import CoadjointPoint, OrbitPoint

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["moved"] == CoadjointPoint(5, -30, 31)
    assert namespace["pt"] == OrbitPoint(31, 3)


def test_command_line_examples(capsys):
    examples = re.findall(r"^aristotle (.*?)\s+# -> (.*)$", README.read_text(encoding="utf-8"), re.M)
    calls = [(shlex.split(flags), expected) for flags, expected in examples]
    # One example is read by argparse and one by the `orbit`/`act` recognizer.
    assert {cli._point_query(argv) is None for argv, _ in calls} == {True, False}
    for argv, expected in calls:
        assert (cli.main(argv), capsys.readouterr().out) == (0, expected + "\n"), argv
