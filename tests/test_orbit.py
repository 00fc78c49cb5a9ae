"""Coadjoint action, orbit chart, Poisson structure, and momentum map."""

import random

import pytest

from aristotle.algebra import AlgebraElement, aristotle_bracket_table, bracket
from aristotle.group import BASE_IDENTITY, BaseElement, inverse_base, multiply_base
from aristotle.orbit import (
    AffineObservable,
    CoadjointPoint,
    DegenerateOrbitError,
    OrbitContext,
    OrbitMismatchError,
    OrbitPoint,
    OrbitTangent,
    adjoint_act,
    adjoint_act_via_conjugation,
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


class TestCoadjointAction:
    def test_worked_point(self):
        moved = coadjoint_act(2.0, BaseElement(3, 4), CoadjointPoint(5, 10, 1))
        assert moved == CoadjointPoint(5.0, -30.0, 31.0)

    def test_identity(self):
        f = CoadjointPoint(5.0, 10.0, 1.0)
        assert coadjoint_act(2.0, BASE_IDENTITY, f) == f

    def test_zero_mass_is_fixed(self):
        f = CoadjointPoint(0.0, 7.0, -3.0)
        for t, h in [(1, 2), (-5, 9), (0.5, -0.25)]:
            assert coadjoint_act(9.81, BaseElement(t, h), f) == f

    def test_action_law(self):
        rng = random.Random(12)
        for _ in range(300):
            g = rng.choice([1.0, -1.0, 2.0, -2.0, 9.81])
            f = CoadjointPoint(*(rng.uniform(-10, 10) for _ in range(3)))
            a = BaseElement(rng.uniform(-10, 10), rng.uniform(-10, 10))
            b = BaseElement(rng.uniform(-10, 10), rng.uniform(-10, 10))
            nested = coadjoint_act(g, a, coadjoint_act(g, b, f))
            direct = coadjoint_act(g, multiply_base(a, b), f)
            assert nested.m == direct.m
            assert abs(nested.e - direct.e) <= 1e-9
            assert abs(nested.p - direct.p) <= 1e-9


class TestAdjointAction:
    def test_worked_point(self):
        x = AlgebraElement(c_P=6.0, c_E=5.0, c_M=1.0)
        moved = adjoint_act(2.0, BaseElement(3, 4), x)
        assert moved == AlgebraElement(6.0, 5.0, 5.0)

    def test_identity(self):
        x = AlgebraElement(6.0, 5.0, 1.0)
        assert adjoint_act(2.0, BASE_IDENTITY, x) == x

    def test_matches_group_conjugation(self):
        rng = random.Random(13)
        for _ in range(300):
            g = rng.choice([1.0, -1.0, 2.0, -2.0, 9.81])
            a = BaseElement(rng.uniform(-10, 10), rng.uniform(-10, 10))
            x = AlgebraElement(*(rng.uniform(-10, 10) for _ in range(3)))
            closed = adjoint_act(g, a, x)
            conjugated = adjoint_act_via_conjugation(g, a, x)
            assert abs(closed.c_P - conjugated.c_P) <= 1e-9
            assert abs(closed.c_E - conjugated.c_E) <= 1e-9
            assert abs(closed.c_M - conjugated.c_M) <= 1e-9

    def test_equivariance_worked_instance(self):
        g = 2.0
        a = BaseElement(3.0, 4.0)
        f = CoadjointPoint(5.0, 10.0, 1.0)
        x = AlgebraElement(c_P=6.0, c_E=5.0, c_M=1.0)
        lhs = pairing(coadjoint_act(g, a, f), x)
        rhs = pairing(f, adjoint_act(g, inverse_base(a), x))
        assert lhs == 41.0
        assert rhs == 41.0

    def test_equivariance_random(self):
        rng = random.Random(14)
        for _ in range(300):
            g = rng.choice([1.0, -1.0, 2.0, -2.0, 9.81])
            a = BaseElement(rng.uniform(-10, 10), rng.uniform(-10, 10))
            f = CoadjointPoint(*(rng.uniform(-10, 10) for _ in range(3)))
            x = AlgebraElement(*(rng.uniform(-10, 10) for _ in range(3)))
            lhs = pairing(coadjoint_act(g, a, f), x)
            for pulled in (
                adjoint_act(g, inverse_base(a), x),
                adjoint_act_via_conjugation(g, inverse_base(a), x),
            ):
                rhs = pairing(f, pulled)
                assert abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)) <= 1e-9


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

    def test_round_trip(self):
        rng = random.Random(15)
        for _ in range(300):
            m = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 10)
            ctx = OrbitContext(m, rng.choice([1.0, -1.0, 2.0, -2.0, 9.81]))
            pt = OrbitPoint(rng.uniform(-10, 10), rng.uniform(-10, 10))
            back = to_chart(ctx, from_chart(ctx, pt))
            assert back.p == pt.p
            assert abs(back.q - pt.q) / max(1.0, abs(pt.q)) <= 1e-12

    def test_degenerate_orbit_mass(self):
        with pytest.raises(DegenerateOrbitError):
            OrbitContext(0.0, 2.0)

    def test_degenerate_orbit_gravity(self):
        with pytest.raises(DegenerateOrbitError):
            OrbitContext(5.0, 0.0)

    def test_degenerate_orbit_underflowed_product(self):
        # m and g nonzero but m*g underflows: the chart divisor is gone, but the
        # orbit is not a point, so the refusal is the subnormal product's.
        with pytest.raises(ValueError, match=r"^subnormal orbit parameter product m\*g$") as err:
            OrbitContext(1e-300, 1e-300)
        assert not isinstance(err.value, DegenerateOrbitError)

    def test_overflowed_product_is_rejected(self):
        # m and g finite but m*g overflows: q = -e/(m*g) would read as -0.
        with pytest.raises(ValueError, match=r"m\*g"):
            OrbitContext(1e200, 1e200)

    def test_subnormal_product_is_rejected(self):
        # m and g nonzero but m*g subnormal: it carries under 53 significant
        # bits, so q = -e/(m*g) could be off by up to a factor of 2.
        for m, g in ((1e-300, 7e-24), (1e-154, -1e-154), (-5e-324, 1.0)):
            with pytest.raises(ValueError, match=r"subnormal orbit parameter product m\*g"):
                OrbitContext(m, g)
        assert OrbitContext(2.2250738585072014e-308, -1.0).g == -1.0  # the least normal product

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
