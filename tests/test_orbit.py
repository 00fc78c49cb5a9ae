"""Float checks of the pairing, the chart and the momentum map that are
stricter than a property, and the chart's refusal of a dual point of another
mass.  The exact model (test_model.py) pins every map of orbit.py, and
test_record.py the refusals of an OrbitContext."""

import random

import pytest

from aristotle.algebra import AlgebraElement, aristotle_bracket_table, bracket
from aristotle.group import BaseElement
from aristotle.orbit import (
    CoadjointPoint,
    OrbitContext,
    OrbitMismatchError,
    canonical_act,
    coadjoint_act,
    comomentum,
    pairing,
    poisson_bracket,
    to_chart,
)

P = AlgebraElement(1.0, 0.0, 0.0)
E = AlgebraElement(0.0, 1.0, 0.0)


class TestPairing:
    def test_doubling_is_exact(self):
        rng = random.Random(10)
        for _ in range(100):
            f = CoadjointPoint(*(rng.uniform(-10, 10) for _ in range(3)))
            x = AlgebraElement(*(rng.uniform(-10, 10) for _ in range(3)))
            assert pairing(f, 2.0 * x) == 2.0 * pairing(f, x)


class TestChart:
    def test_mass_mismatch(self):
        ctx = OrbitContext(5.0, 2.0)
        with pytest.raises(OrbitMismatchError):
            to_chart(ctx, CoadjointPoint(4.0, -30.0, 31.0))


class TestCanonicalAction:
    def test_chart_equivariance_random(self):
        rng = random.Random(16)
        for _ in range(300):
            m = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 10)
            ctx = OrbitContext(m, rng.choice([1.0, -1.0, 2.0, -2.0, 9.81]))
            a = BaseElement(rng.uniform(-10, 10), rng.uniform(-10, 10))
            f = CoadjointPoint(m, rng.uniform(-10, 10), rng.uniform(-10, 10))
            through_dual = to_chart(ctx, coadjoint_act(ctx.g, a, f))
            through_chart = canonical_act(ctx, a, to_chart(ctx, f))
            assert abs(through_dual.p - through_chart.p) <= 1e-9
            assert abs(through_dual.q - through_chart.q) <= 1e-9


class TestPoissonBracket:
    def test_anti_homomorphism_sign(self):
        rng = random.Random(19)
        table_cache = {}
        for _ in range(200):
            m = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 10)
            g = rng.choice([1.0, -1.0, 2.0, -2.0, 9.81])
            ctx = OrbitContext(m, g)
            table = table_cache.setdefault(g, aristotle_bracket_table(g))
            lhs = poisson_bracket(comomentum(ctx, P), comomentum(ctx, E)).c
            assert lhs == -(g * m)
            assert lhs == -comomentum(ctx, bracket(table, P, E)).c
