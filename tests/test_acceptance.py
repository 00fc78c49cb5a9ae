"""Acceptance suite: one test per criterion, at the stated tolerance.

Every expected value below is either a hand-derived substitution into the
closed-form laws or a bitwise identity of the implementation; nothing is
calibrated against the code under test.  A criterion's random cases are
verify's own: it runs the properties that check its identities over CASES
seed-42 cases, each in a tolerance class at or below the criterion's bound.
Run with ``pytest -v`` to get one pass/fail line per criterion (each test
also prints one when run with -s).
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
from aristotle.dynamics import SimulationConfig, evolve_exact, hamiltonian, simulate
from aristotle.group import BaseElement
from aristotle.orbit import (
    AffineObservable,
    CoadjointPoint,
    DegenerateOrbitError,
    OrbitContext,
    OrbitPoint,
    OrbitTangent,
    coadjoint_act,
    comomentum,
    hamiltonian_vector_field,
    poisson_bracket,
)
from test_verify import assert_exits_one, assert_fails_exactly

GRAVITIES = (1.0, -1.0, 2.0, -2.0, 9.81)
CASES = 1000


def _report(name):
    print(f"PASS {name}")


def _verified(monkeypatch, bounds):
    """Seconds that verify takes to run the properties named in bounds over
    CASES seed-42 cases; each must pass, in a tolerance class at or below
    its bound."""
    monkeypatch.setattr(verify, "PROPERTIES",
                        tuple(p for p in verify.PROPERTIES if p.name in bounds))
    start = time.perf_counter()
    results = verify.run_verify(42, CASES)
    elapsed = time.perf_counter() - start
    assert {r.name for r in results} == set(bounds)
    for r in results:
        assert r.passed and r.tolerance <= bounds[r.name], r
    return elapsed


def test_criterion_01_group_law_suite(monkeypatch):
    elapsed = _verified(monkeypatch, {"extended_associativity": 1e-9, "extended_identity": 1e-9,
                                      "extended_inverse": 1e-9})
    assert elapsed < 1.0, f"group-law suite took {elapsed:.3f}s"
    _report("criterion-01 group-law suite (assoc/identity/inverse <= 1e-9, < 1s)")


def test_criterion_02_cocycle_suite(monkeypatch):
    _verified(monkeypatch, {"cocycle_identity": 1e-9, "cocycle_coboundary": 1e-9})
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


def test_criterion_04_coadjoint_suite(monkeypatch):
    moved = coadjoint_act(2.0, BaseElement(3.0, 4.0), CoadjointPoint(5.0, 10.0, 1.0))
    assert moved == CoadjointPoint(5.0, -30.0, 31.0)

    _verified(monkeypatch, {"coadjoint_m_invariance": 0.0, "coadjoint_equivariance": 1e-9,
                            "adjoint_closed_form_matches_conjugation": 1e-9})
    _report("criterion-04 coadjoint suite (worked point exact; m invariant; equivariance <= 1e-9)")


def test_criterion_05_chart_suite(monkeypatch):
    _verified(monkeypatch, {"chart_round_trip": 1e-12, "chart_equivariance": 1e-9})
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
    assert poisson_bracket(comomentum(ctx, space), comomentum(ctx, time_gen)).c == -10.0
    _report("criterion-06 momentum-map suite (map, fields, bracket sign all exact)")


def test_criterion_07_dynamics_suite(monkeypatch):
    ctx = OrbitContext(2.0, 3.0)
    assert evolve_exact(ctx, OrbitPoint(1.0, 5.0), 4.0) == OrbitPoint(25.0, 5.0)

    rng = random.Random(42)
    for _ in range(50):
        dt = rng.uniform(0.01, 0.5)
        base = dict(
            m=rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 10.0),
            g=rng.choice(GRAVITIES),
            p0=rng.uniform(-10.0, 10.0), q0=rng.uniform(-10.0, 10.0),
            t_max=dt * rng.uniform(1.0, 40.0), dt=dt,
        )
        exact = simulate(SimulationConfig(**base, integrator="exact"))
        euler = simulate(SimulationConfig(**base, integrator="symplectic_euler"))
        assert len(exact) == len(euler)
        for (te, pe), (ty, py) in zip(exact, euler):
            assert te == ty
            assert abs(pe - py) <= 1e-9

    _verified(monkeypatch, {"energy_conservation_exact": 0.0, "static_position": 0.0,
                            "hamiltons_equations": 0.0, "generator_finite_difference": 1e-5})
    _report("criterion-07 dynamics suite (flow, conservation, integrators, generators)")


def test_criterion_08_no_kinetic_term(monkeypatch):
    ctx = OrbitContext(2.0, 3.0)
    assert hamiltonian(ctx, OrbitPoint(0.0, 5.0)) == hamiltonian(ctx, OrbitPoint(-7.5, 5.0)) == 30.0
    _verified(monkeypatch, {"hamiltonian_p_independence": 0.0, "hamiltonian_is_time_momentum": 0.0})
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


def test_criterion_10_cli_end_to_end(capsys):
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

    # The product without its cocycle, read from the MUTANTS row's one run: it
    # fails exactly the row's properties, so extended_associativity passes.
    assert_fails_exactly("cocycle_dropped")
    assert_exits_one("cocycle_dropped")
    _report("criterion-10 CLI end-to-end (CSV, verify exit 0, mutation exit 1, < 10s)")
