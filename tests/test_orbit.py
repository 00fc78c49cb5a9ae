"""Pairing, orbit chart, Poisson structure, and momentum map.  The exact model
(test_model.py) pins the coadjoint and adjoint actions, and test_record.py
the refusals of an OrbitContext."""

import random

import pytest

from aristotle.algebra import AlgebraElement, aristotle_bracket_table, bracket
from aristotle.group import BASE_IDENTITY, BaseElement
from aristotle.orbit import (
    AffineObservable,
    CoadjointPoint,
    OrbitContext,
    OrbitMismatchError,
    OrbitPoint,
    OrbitTangent,
    canonical_act,
    coadjoint_act,
    comomentum,
    from_chart,
    hamiltonian_vector_field,
    pairing,
    poisson_bracket,
    to_chart,
)

P = AlgebraElement(1.0, 0.0, 0.0)
E = AlgebraElement(0.0, 1.0, 0.0)
M = AlgebraElement(0.0, 0.0, 1.0)


class TestPairing:
    def test_worked_value(self):
        f = CoadjointPoint(5.0, 10.0, 1.0)
        x = AlgebraElement(c_P=4.0, c_E=3.0, c_M=2.0)
        assert pairing(f, x) == 44.0

    def test_zero_element(self):
        assert pairing(CoadjointPoint(5, 10, 1), AlgebraElement(0, 0, 0)) == 0.0

    def test_doubling_is_exact(self):
        rng = random.Random(10)
        for _ in range(100):
            f = CoadjointPoint(*(rng.uniform(-10, 10) for _ in range(3)))
            x = AlgebraElement(*(rng.uniform(-10, 10) for _ in range(3)))
            assert pairing(f, 2.0 * x) == 2.0 * pairing(f, x)


class TestChart:
    def test_worked_point(self):
        ctx = OrbitContext(5.0, 2.0)
        assert to_chart(ctx, CoadjointPoint(5.0, -30.0, 31.0)) == OrbitPoint(31.0, 3.0)

    def test_zero_energy_sits_at_origin(self):
        ctx = OrbitContext(5.0, 2.0)
        assert to_chart(ctx, CoadjointPoint(5.0, 0.0, 7.0)).q == 0.0

    def test_from_chart_worked_point(self):
        ctx = OrbitContext(5.0, 2.0)
        assert from_chart(ctx, OrbitPoint(31.0, 3.0)) == CoadjointPoint(5.0, -30.0, 31.0)

    def test_mass_mismatch(self):
        ctx = OrbitContext(5.0, 2.0)
        with pytest.raises(OrbitMismatchError):
            to_chart(ctx, CoadjointPoint(4.0, -30.0, 31.0))


class TestCanonicalAction:
    def test_worked_point(self):
        ctx = OrbitContext(5.0, 2.0)
        moved = canonical_act(ctx, BaseElement(3, 4), OrbitPoint(1, 2))
        assert moved == OrbitPoint(31.0, 6.0)

    def test_identity(self):
        ctx = OrbitContext(5.0, 2.0)
        pt = OrbitPoint(1.5, -2.5)
        assert canonical_act(ctx, BASE_IDENTITY, pt) == pt

    def test_chart_equivariance_worked_instance(self):
        ctx = OrbitContext(5.0, 2.0)
        a = BaseElement(3.0, 4.0)
        f = CoadjointPoint(5.0, 10.0, 1.0)
        assert to_chart(ctx, f) == OrbitPoint(1.0, -1.0)
        assert to_chart(ctx, coadjoint_act(2.0, a, f)) == OrbitPoint(31.0, 3.0)
        assert canonical_act(ctx, a, to_chart(ctx, f)) == OrbitPoint(31.0, 3.0)

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

    def test_translation_preserves_differences(self):
        # Pure translation: the Jacobian is the identity, determinant 1.
        ctx = OrbitContext(5.0, 2.0)
        a = BaseElement(3.0, 4.0)
        pt = OrbitPoint(0.25, -0.5)
        step = 0.5
        dp = (canonical_act(ctx, a, OrbitPoint(pt.p + step, pt.q)).p
              - canonical_act(ctx, a, OrbitPoint(pt.p - step, pt.q)).p) / (2 * step)
        dq = (canonical_act(ctx, a, OrbitPoint(pt.p, pt.q + step)).q
              - canonical_act(ctx, a, OrbitPoint(pt.p, pt.q - step)).q) / (2 * step)
        assert dp == 1.0
        assert dq == 1.0


class TestMomentumMap:
    def test_space_generator(self):
        ctx = OrbitContext(5.0, 2.0)
        assert comomentum(ctx, P) == AffineObservable(1.0, 0.0, 0.0)

    def test_time_generator(self):
        ctx = OrbitContext(5.0, 2.0)
        assert comomentum(ctx, E) == AffineObservable(0.0, -10.0, 0.0)

    def test_central_generator(self):
        ctx = OrbitContext(5.0, 2.0)
        assert comomentum(ctx, M) == AffineObservable(0.0, 0.0, 5.0)

    def test_fields_reproduce_generators(self):
        ctx = OrbitContext(5.0, 2.0)
        assert hamiltonian_vector_field(comomentum(ctx, P)) == OrbitTangent(0.0, -1.0)
        assert hamiltonian_vector_field(comomentum(ctx, E)) == OrbitTangent(-10.0, 0.0)

    def test_constant_observable_generates_nothing(self):
        assert hamiltonian_vector_field(AffineObservable(0.0, 0.0, 4.5)) == OrbitTangent(0.0, 0.0)

    def test_observable_value(self):
        f = AffineObservable(2.0, 3.0, 4.0)
        assert f.value(OrbitPoint(10.0, 100.0)) == 324.0


class TestPoissonBracket:
    def test_p_q_is_one(self):
        p_obs = AffineObservable(1.0, 0.0, 0.0)
        q_obs = AffineObservable(0.0, 1.0, 0.0)
        assert poisson_bracket(p_obs, q_obs) == AffineObservable(0.0, 0.0, 1.0)

    def test_momentum_map_bracket(self):
        ctx = OrbitContext(5.0, 2.0)
        result = poisson_bracket(comomentum(ctx, P), comomentum(ctx, E))
        assert result.c == -10.0

    def test_self_bracket_vanishes(self):
        f = AffineObservable(1.5, -2.5, 3.5)
        assert poisson_bracket(f, f).c == 0.0

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
