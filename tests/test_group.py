"""Base and extended multiplication laws, cocycles, and chart changes."""

import random

import pytest

from aristotle.group import (
    BASE_IDENTITY,
    EXTENDED_IDENTITY,
    BaseElement,
    ExtendedElement,
    cocycle,
    cocycle_symmetric,
    conjugate_extended,
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
    def test_worked_product(self):
        a = ExtendedElement(1, 2, 3)
        b = ExtendedElement(4, 5, 6)
        assert multiply_extended(2.0, a, b) == ExtendedElement(35, 7, 9)

    def test_noncommutative(self):
        a = ExtendedElement(1, 2, 3)
        b = ExtendedElement(4, 5, 6)
        assert multiply_extended(2.0, b, a) == ExtendedElement(29, 7, 9)
        assert multiply_extended(2.0, a, b) != multiply_extended(2.0, b, a)

    def test_identity(self):
        a = ExtendedElement(1.25, -2.0, 3.5)
        assert multiply_extended(9.81, EXTENDED_IDENTITY, a) == a
        assert multiply_extended(9.81, a, EXTENDED_IDENTITY) == a

    def test_worked_inverse(self):
        assert inverse_extended(2.0, ExtendedElement(1, 2, 3)) == ExtendedElement(11, -2, -3)

    def test_inverse_of_pure_time(self):
        assert inverse_extended(2.0, ExtendedElement(0, 4, 0)) == ExtendedElement(0, -4, 0)

    def test_inverse_of_central(self):
        assert inverse_extended(2.0, ExtendedElement(7, 0, 0)) == ExtendedElement(-7, 0, 0)

    def test_inverse_both_sides(self):
        rng = random.Random(3)
        for _ in range(300):
            g = rng.choice(GRAVITIES)
            a = random_extended(rng)
            inv = inverse_extended(g, a)
            for product in (multiply_extended(g, a, inv), multiply_extended(g, inv, a)):
                assert abs(product.xi) <= 1e-12
                assert product.t == 0.0
                assert product.h == 0.0

    def test_conjugation_shifts_center_only(self):
        g = 2.0
        a = ExtendedElement(0.0, 3.0, 4.0)
        b = ExtendedElement(1.0, 5.0, 6.0)
        conj = conjugate_extended(g, a, b)
        assert (conj.t, conj.h) == (b.t, b.h)
        # xi picks up g*(h*t' - t*h') = 2*(4*5 - 3*6) = 4.
        assert conj.xi == pytest.approx(5.0, abs=1e-12)


class TestCocycles:
    def test_worked_value(self):
        assert cocycle(2.0, BaseElement(2, 3), BaseElement(5, 6)) == 30.0

    def test_identity_on_right(self):
        assert cocycle(2.0, BaseElement(2, 3), BASE_IDENTITY) == 0.0

    def test_cocycle_identity_instance(self):
        g = 2.0
        a, b, c = BaseElement(1, 2), BaseElement(3, 4), BaseElement(5, 6)
        lhs = cocycle(g, a, b) + cocycle(g, multiply_base(a, b), c)
        rhs = cocycle(g, a, multiply_base(b, c)) + cocycle(g, b, c)
        assert lhs == 72.0
        assert rhs == 72.0

    def test_symmetric_cocycle_is_antisymmetric(self):
        g = 9.81
        a, b = BaseElement(1.5, 2.5), BaseElement(-3.0, 4.0)
        assert cocycle_symmetric(g, a, b) == -cocycle_symmetric(g, b, a)


class TestCanonicalChart:
    def test_worked_conversion(self):
        assert to_canonical_coords(2.0, ExtendedElement(10, 3, 4)) == ExtendedElement(-2, 3, 4)

    def test_no_shift_without_space_part(self):
        a = ExtendedElement(10.0, 3.0, 0.0)
        assert to_canonical_coords(2.0, a) == a

    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(300):
            g = rng.choice(GRAVITIES)
            a = random_extended(rng)
            back = from_canonical_coords(g, to_canonical_coords(g, a))
            assert abs(back.xi - a.xi) <= 1e-12
            assert back.t == a.t and back.h == a.h

    def test_product_law_through_conversion(self):
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
