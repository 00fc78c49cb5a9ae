"""Acceptance suite: one test per criterion, at the stated tolerance.

Every expected value below is either a hand-derived substitution into the
closed-form laws or a bitwise identity of the implementation; nothing is
calibrated against the code under test.  Run with ``pytest -v`` to get one
pass/fail line per criterion (each test also prints one when run with -s).
"""

import random
import subprocess
import sys
import time

import numpy as np
import pytest

from aristotle import cli, verify
from aristotle.algebra import (
    AlgebraElement,
    BracketTable,
    Dimension,
    E_INDEX,
    M_INDEX,
    P_INDEX,
    aristotle_bracket_table,
    dimension_of,
    jacobi_violation,
    pairing_dimension_check,
)
from aristotle.dynamics import (
    SimulationConfig,
    evolve_exact,
    generator_left,
    hamiltonian,
    physical_drift,
    simulate,
)
from aristotle.group import (
    EXTENDED_IDENTITY,
    BaseElement,
    ExtendedElement,
    canonical_shift,
    cocycle,
    cocycle_symmetric,
    inverse_base,
    inverse_extended,
    multiply_base,
    multiply_extended,
)
from aristotle.orbit import (
    AffineObservable,
    CoadjointPoint,
    DegenerateOrbitError,
    OrbitContext,
    OrbitPoint,
    OrbitTangent,
    adjoint_act,
    canonical_act,
    coadjoint_act,
    comomentum,
    from_chart,
    hamiltonian_vector_field,
    pairing,
    poisson_bracket,
    to_chart,
)

GRAVITIES = (1.0, -1.0, 2.0, -2.0, 9.81)
CASES = 1000


def _coord(rng):
    return rng.uniform(-10.0, 10.0)


def _report(name):
    print(f"PASS {name}")


def test_criterion_01_group_law_suite():
    rng = random.Random(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(CASES):
        g = rng.choice(GRAVITIES)
        a, b, c = (
            ExtendedElement(_coord(rng), _coord(rng), _coord(rng)) for _ in range(3)
        )
        left = multiply_extended(g, multiply_extended(g, a, b), c)
        right = multiply_extended(g, a, multiply_extended(g, b, c))
        worst = max(worst, abs(left.xi - right.xi), abs(left.t - right.t),
                    abs(left.h - right.h))
        for with_identity in (
            multiply_extended(g, EXTENDED_IDENTITY, a),
            multiply_extended(g, a, EXTENDED_IDENTITY),
        ):
            worst = max(worst, abs(with_identity.xi - a.xi),
                        abs(with_identity.t - a.t), abs(with_identity.h - a.h))
        inv = inverse_extended(g, a)
        for product in (multiply_extended(g, a, inv), multiply_extended(g, inv, a)):
            worst = max(worst, abs(product.xi), abs(product.t), abs(product.h))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"group-law violation {worst}"
    assert elapsed < 1.0, f"group-law suite took {elapsed:.3f}s"
    _report("criterion-01 group-law suite (assoc/identity/inverse <= 1e-9, < 1s)")


def test_criterion_02_cocycle_suite():
    rng = random.Random(42)
    worst_identity = 0.0
    worst_coboundary = 0.0
    for _ in range(CASES):
        g = rng.choice(GRAVITIES)
        a, b, c = (BaseElement(_coord(rng), _coord(rng)) for _ in range(3))
        lhs = cocycle(g, a, b) + cocycle(g, multiply_base(a, b), c)
        rhs = cocycle(g, a, multiply_base(b, c)) + cocycle(g, b, c)
        worst_identity = max(worst_identity, abs(lhs - rhs))
        difference = cocycle(g, a, b) - cocycle_symmetric(g, a, b)
        coboundary = (
            canonical_shift(g, multiply_base(a, b))
            - canonical_shift(g, a)
            - canonical_shift(g, b)
        )
        worst_coboundary = max(worst_coboundary, abs(difference - coboundary))
    assert worst_identity <= 1e-9
    assert worst_coboundary <= 1e-9
    _report("criterion-02 cocycle suite (2-cocycle identity and coboundary <= 1e-9)")


def test_criterion_03_lie_algebra_suite():
    for g in GRAVITIES:
        assert jacobi_violation(aristotle_bracket_table(g)) == 0.0
    corrupted = np.zeros((3, 3, 3))
    corrupted[P_INDEX, E_INDEX, M_INDEX] = 2.0
    corrupted[E_INDEX, P_INDEX, M_INDEX] = -2.0
    corrupted[P_INDEX, M_INDEX, P_INDEX] = 1.0
    corrupted[M_INDEX, P_INDEX, P_INDEX] = -1.0
    violation = jacobi_violation(BracketTable(corrupted))
    assert abs(violation - 2.0) <= 1e-12
    _report("criterion-03 Lie-algebra suite (Jacobi exactly 0; corrupted table -> 2)")


def test_criterion_04_coadjoint_suite():
    moved = coadjoint_act(2.0, BaseElement(3.0, 4.0), CoadjointPoint(5.0, 10.0, 1.0))
    assert moved == CoadjointPoint(5.0, -30.0, 31.0)

    rng = random.Random(42)
    worst = 0.0
    for _ in range(CASES):
        g = rng.choice(GRAVITIES)
        f = CoadjointPoint(_coord(rng), _coord(rng), _coord(rng))
        a = BaseElement(_coord(rng), _coord(rng))
        assert coadjoint_act(g, a, f).m == f.m  # exact invariance
        x = AlgebraElement(_coord(rng), _coord(rng), _coord(rng))
        lhs = pairing(coadjoint_act(g, a, f), x)
        rhs = pairing(f, adjoint_act(g, inverse_base(a), x))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    assert worst <= 1e-9
    _report("criterion-04 coadjoint suite (worked point exact; m invariant; equivariance <= 1e-9)")


def test_criterion_05_chart_suite():
    rng = random.Random(42)
    worst_round = 0.0
    worst_equiv = 0.0
    for _ in range(CASES):
        m = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 10.0)
        ctx = OrbitContext(m, rng.choice(GRAVITIES))
        pt = OrbitPoint(_coord(rng), _coord(rng))
        back = to_chart(ctx, from_chart(ctx, pt))
        assert back.p == pt.p  # momentum passes through untouched
        # q = -e/(m*g) inverts the stored e = -m*g*q up to one rounding each
        # way; binary floating point cannot promise a bitwise round trip for
        # arbitrary m*g (e.g. (3*0.1)/3 != 0.1), so the documented 1e-12
        # floating-point tolerance applies.
        worst_round = max(worst_round, abs(back.q - pt.q) / max(1.0, abs(pt.q)))

        a = BaseElement(_coord(rng), _coord(rng))
        f = CoadjointPoint(m, _coord(rng), _coord(rng))
        through_dual = to_chart(ctx, coadjoint_act(ctx.g, a, f))
        through_chart = canonical_act(ctx, a, to_chart(ctx, f))
        worst_equiv = max(worst_equiv, abs(through_dual.p - through_chart.p),
                          abs(through_dual.q - through_chart.q))
    assert worst_round <= 1e-12
    assert worst_equiv <= 1e-9
    with pytest.raises(DegenerateOrbitError):
        OrbitContext(0.0, 2.0)
    with pytest.raises(DegenerateOrbitError):
        OrbitContext(5.0, 0.0)
    _report("criterion-05 chart suite (round trip; equivariance <= 1e-9; degenerate errors)")


def test_criterion_06_momentum_map_suite():
    ctx = OrbitContext(5.0, 2.0)
    space = AlgebraElement(1.0, 0.0, 0.0)
    time_gen = AlgebraElement(0.0, 1.0, 0.0)
    assert comomentum(ctx, space) == AffineObservable(1.0, 0.0, 0.0)
    assert comomentum(ctx, time_gen) == AffineObservable(0.0, -10.0, 0.0)
    assert hamiltonian_vector_field(comomentum(ctx, space)) == OrbitTangent(0.0, -1.0)
    assert hamiltonian_vector_field(comomentum(ctx, time_gen)) == OrbitTangent(-10.0, 0.0)

    rng = random.Random(42)
    for _ in range(100):
        m = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 10.0)
        g = rng.choice(GRAVITIES)
        random_ctx = OrbitContext(m, g)
        result = poisson_bracket(
            comomentum(random_ctx, space), comomentum(random_ctx, time_gen)
        )
        assert result.c == -(g * m)  # exact
        assert result.a_p == result.a_q == 0.0
    _report("criterion-06 momentum-map suite (map, fields, bracket sign all exact)")


def test_criterion_07_dynamics_suite():
    ctx = OrbitContext(2.0, 3.0)
    assert evolve_exact(ctx, OrbitPoint(1.0, 5.0), 4.0) == OrbitPoint(25.0, 5.0)

    rng = random.Random(42)
    for _ in range(50):
        dt = rng.uniform(0.01, 0.5)
        base = dict(
            m=rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 10.0),
            g=rng.choice(GRAVITIES),
            p0=_coord(rng), q0=_coord(rng),
            t_max=dt * rng.uniform(1.0, 40.0), dt=dt,
        )
        exact = simulate(SimulationConfig(**base, integrator="exact"))
        euler = simulate(SimulationConfig(**base, integrator="symplectic_euler"))
        # q stays q0, so H is evaluated at each sampled (p, q0).
        sample_ctx = OrbitContext(base["m"], base["g"])
        for samples in (exact, euler):
            energies = [hamiltonian(sample_ctx, OrbitPoint(p, base["q0"])) for _, p in samples]
            assert all(h == energies[0] for h in energies)
        assert len(exact) == len(euler)
        for (te, pe), (ty, py) in zip(exact, euler):
            assert te == ty
            assert abs(pe - py) <= 1e-9

    step = 1e-6
    worst_fd = 0.0
    for _ in range(100):
        m = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 10.0)
        random_ctx = OrbitContext(m, rng.choice(GRAVITIES))
        pt = OrbitPoint(_coord(rng), _coord(rng))
        plus = evolve_exact(random_ctx, pt, step)
        minus = evolve_exact(random_ctx, pt, -step)
        fd = ((plus.p - minus.p) / (2 * step), (plus.q - minus.q) / (2 * step))
        drift = physical_drift(random_ctx)
        left = generator_left(random_ctx, "E")
        assert drift.dp == -left.dp and drift.dq == -left.dq == 0.0
        worst_fd = max(worst_fd, abs(fd[0] - drift.dp), abs(fd[1] - drift.dq))
        h_obs = AffineObservable(0.0, random_ctx.m * random_ctx.g, 0.0)
        assert poisson_bracket(AffineObservable(1.0, 0.0, 0.0), h_obs).c == drift.dp
        assert poisson_bracket(AffineObservable(0.0, 1.0, 0.0), h_obs).c == drift.dq == 0.0
    assert worst_fd <= 1e-5
    _report("criterion-07 dynamics suite (flow, conservation, integrators, generators)")


def test_criterion_08_no_kinetic_term():
    rng = random.Random(42)
    ctx = OrbitContext(2.0, 3.0)
    q = 5.0
    reference = hamiltonian(ctx, OrbitPoint(0.0, q))
    for _ in range(100):
        assert hamiltonian(ctx, OrbitPoint(_coord(rng), q)) == reference == 30.0
    _report("criterion-08 no-kinetic-term check (H independent of p, exact)")


def test_criterion_09_dimension_suite():
    assert pairing_dimension_check() is True
    assert dimension_of("xi") == Dimension(0, 2, -1)
    # [P, E] = g*M balances: dim(P)+dim(E) == dim(g)+dim(M) as exponents.
    p_dim = dimension_of("x").inverse()
    e_dim = dimension_of("t").inverse()
    m_dim = dimension_of("xi").inverse()
    assert p_dim * e_dim == dimension_of("g") * m_dim
    _report("criterion-09 dimension suite (pairing is an action; g consistent)")


def test_criterion_10_cli_end_to_end(monkeypatch, capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "aristotle.cli", "simulate", "--mass", "2", "--g", "3",
         "--p0", "1", "--q0", "5", "--dt", "0.5", "--t-max", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 9
    assert rows[-1] == "4,25,5,30"

    start = time.perf_counter()
    code = cli.main(["verify", "--seed", "42", "--cases", "1000"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 10.0, f"verification suite took {elapsed:.2f}s"

    with monkeypatch.context() as patcher:
        from aristotle import group as group_module

        def flat_multiply(g, a, b):
            return ExtendedElement(a.xi + b.xi, a.t + b.t, a.h + b.h)

        patcher.setattr(group_module, "multiply_extended", flat_multiply)
        mutated_code = cli.main(["verify", "--seed", "42", "--cases", "200"])
        out = capsys.readouterr().out
    assert mutated_code == 1
    assert "FAIL coadjoint_equivariance" in out
    assert "PASS extended_associativity" in out
    _report("criterion-10 CLI end-to-end (CSV, verify exit 0, mutation exit 1, < 10s)")
