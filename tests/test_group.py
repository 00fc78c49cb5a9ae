"""Base group laws, and the float-specific checks of the extension: bitwise
results that neither the exact model (test_model.py) nor verify's tolerance
classes pin."""

import random

from aristotle.group import (
    BASE_IDENTITY,
    BaseElement,
    ExtendedElement,
    cocycle_symmetric,
    from_canonical_coords,
    inverse_base,
    inverse_extended,
    multiply_base,
    multiply_canonical,
    multiply_extended,
    spacetime_act,
    to_canonical_coords,
)

GRAVITIES = [1.0, -1.0, 2.0, -2.0, 9.81]


def random_extended(rng):
    return ExtendedElement(*(rng.uniform(-10, 10) for _ in range(3)))


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


class TestExtendedGroup:
    def test_inverse_both_sides(self):
        # Bitwise t and h, which verify's extended_inverse bounds only to 1e-12.
        rng = random.Random(3)
        for _ in range(300):
            g = rng.choice(GRAVITIES)
            a = random_extended(rng)
            inv = inverse_extended(g, a)
            for product in (multiply_extended(g, a, inv), multiply_extended(g, inv, a)):
                assert abs(product.xi) <= 1e-12
                assert product.t == 0.0
                assert product.h == 0.0


class TestCocycles:
    def test_symmetric_cocycle_is_antisymmetric(self):
        # Bitwise in doubles; the exact model pins only its value.
        g = 9.81
        a, b = BaseElement(1.5, 2.5), BaseElement(-3.0, 4.0)
        assert cocycle_symmetric(g, a, b) == -cocycle_symmetric(g, b, a)


class TestCanonicalChart:
    def test_round_trip(self):
        # Bitwise t and h, which verify's canonical_round_trip bounds only to 1e-12.
        rng = random.Random(8)
        for _ in range(300):
            g = rng.choice(GRAVITIES)
            a = random_extended(rng)
            back = from_canonical_coords(g, to_canonical_coords(g, a))
            assert abs(back.xi - a.xi) <= 1e-12
            assert back.t == a.t and back.h == a.h

    def test_product_law_through_conversion(self):
        # Bitwise t and h, which verify's canonical_product_law bounds only to 1e-9.
        rng = random.Random(9)
        for _ in range(300):
            g = rng.choice(GRAVITIES)
            a, b = random_extended(rng), random_extended(rng)
            via = to_canonical_coords(
                g,
                multiply_extended(
                    g, from_canonical_coords(g, a), from_canonical_coords(g, b)
                ),
            )
            direct = multiply_canonical(g, a, b)
            assert abs(via.xi - direct.xi) <= 1e-9
            assert via.t == direct.t and via.h == direct.h
