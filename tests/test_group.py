"""A float-specific check of the extension: a bitwise result that neither
the exact model (test_model.py), which pins the base group, the space-time
action and the extension's maps, nor verify pins."""

from aristotle.group import BaseElement, cocycle_symmetric


class TestCocycles:
    def test_symmetric_cocycle_is_antisymmetric(self):
        # Bitwise in doubles; the exact model pins only its value.
        g = 9.81
        a, b = BaseElement(1.5, 2.5), BaseElement(-3.0, 4.0)
        assert cocycle_symmetric(g, a, b) == -cocycle_symmetric(g, b, a)
