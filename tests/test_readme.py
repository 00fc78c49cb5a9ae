"""The README's library example runs and gives the values its comments state."""

import re
from pathlib import Path

from aristotle.orbit import CoadjointPoint, OrbitPoint

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["moved"] == CoadjointPoint(5, -30, 31)
    assert namespace["pt"] == OrbitPoint(31, 3)
