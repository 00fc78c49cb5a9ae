"""Base group laws, and a float-specific check of the extension: a bitwise
result that neither the exact model (test_model.py) nor verify pins."""

from aristotle.group import (
    BASE_IDENTITY,
    BaseElement,
    cocycle_symmetric,
    inverse_base,
    multiply_base,
    spacetime_act,
)


class TestBaseGroup:
    def test_product_adds(self):
        assert multiply_base(BaseElement(2, 3), BaseElement(4, 5)) == BaseElement(6, 8)

    def test_identity(self):
        a = BaseElement(1.5, -2.5)
        assert multiply_base(BASE_IDENTITY, a) == a

    def test_commutative(self):
        a, b = BaseElement(2, 3), BaseElement(4, 5)
        assert multiply_base(a, b) == multiply_base(b, a)

    def test_inverse(self):
        a = BaseElement(2.0, -7.0)
        assert multiply_base(a, inverse_base(a)) == BASE_IDENTITY


class TestSpacetimeAction:
    def test_translates_event(self):
        assert spacetime_act(BaseElement(1, 2), 10.0, 20.0) == (11.0, 22.0)

    def test_identity_fixes_everything(self):
        assert spacetime_act(BASE_IDENTITY, 3.25, -4.5) == (3.25, -4.5)

    def test_action_property(self):
        a, b = BaseElement(1, 2), BaseElement(3, 4)
        assert spacetime_act(multiply_base(a, b), 0.0, 0.0) == (4.0, 6.0)
        assert spacetime_act(a, *spacetime_act(b, 0.0, 0.0)) == (4.0, 6.0)


class TestCocycles:
    def test_symmetric_cocycle_is_antisymmetric(self):
        # Bitwise in doubles; the exact model pins only its value.
        g = 9.81
        a, b = BaseElement(1.5, 2.5), BaseElement(-3.0, 4.0)
        assert cocycle_symmetric(g, a, b) == -cocycle_symmetric(g, b, a)
