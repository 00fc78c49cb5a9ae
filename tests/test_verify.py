"""Verification engine: determinism, report semantics, and mutation killing."""

import math

import pytest

from aristotle import group, verify
from aristotle.group import ExtendedElement


def result_map(results):
    return {r.name: r for r in results}


class TestReport:
    def test_all_properties_pass(self):
        results = verify.run_verify(seed=42, cases=50)
        assert all(r.passed for r in results)

    def test_property_names_are_unique(self):
        names = [p.name for p in verify.PROPERTIES]
        assert len(names) == len(set(names))

    def test_deterministic_given_seed(self):
        first = verify.run_verify(seed=7, cases=40)
        second = verify.run_verify(seed=7, cases=40)
        assert first == second

    def test_lines_format(self, capsys):
        from aristotle import cli

        results = verify.run_verify(seed=1, cases=5)
        assert cli.main(["verify", "--seed", "1", "--cases", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(results) + 1
        for line, result in zip(lines, results):
            status = "PASS" if result.passed else "FAIL"
            assert line == f"{status} {result.name} max_violation={result.max_violation!r}"
        assert lines[-1] == f"{len(results)} properties, 0 failed (seed=1, cases=5)"

    def test_exact_properties_report_zero(self):
        report = verify.run_verify(seed=3, cases=100)
        for result in result_map(report).values():
            if result.tolerance == 0.0:
                assert result.max_violation == 0.0

    def test_rejects_zero_cases(self):
        with pytest.raises(ValueError):
            verify.run_verify(seed=1, cases=0)


def flat_multiply(g, a, b):
    return ExtendedElement(a.xi + b.xi, a.t + b.t, a.h + b.h)


class TestCocycleMutation:
    """Dropping the cocycle term from the extended product must be caught.

    The mutated product stays associative (it is the direct product's), so
    associativity and the identity law still hold; what fails is the
    inverse, which still carries the cocycle, and the consistency between
    the group product and the dual action.
    """

    FAILED = {"extended_inverse", "canonical_product_law", "coadjoint_equivariance",
              "adjoint_closed_form_matches_conjugation"}

    @pytest.fixture
    def mutated(self, monkeypatch):
        monkeypatch.setattr(group, "multiply_extended", flat_multiply)

    def test_mutation_is_killed(self, mutated):
        results = verify.run_verify(seed=42, cases=50)
        assert {r.name for r in results if not r.passed} == self.FAILED

    def test_cli_exits_one(self, mutated, capsys):
        from aristotle import cli

        code = cli.main(["verify", "--seed", "42", "--cases", "50"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL coadjoint_equivariance" in out


class TestDirectProductMutation(TestCocycleMutation):
    """The untwisted direct product, its inverse too, must be caught.

    Every group law then holds, so only the three 1e-9-class properties that
    tie the product to the dual action fail: a run that loosened that class
    would pass a group without the central extension.
    """

    FAILED = {"canonical_product_law", "coadjoint_equivariance",
              "adjoint_closed_form_matches_conjugation"}

    @pytest.fixture
    def mutated(self, monkeypatch):
        monkeypatch.setattr(group, "multiply_extended", flat_multiply)
        monkeypatch.setattr(group, "inverse_extended",
                            lambda g, a: ExtendedElement(-a.xi, -a.t, -a.h))


class TestNaNViolationMutation:
    """A property whose check returns NaN must FAIL, not read as 0.

    max(0.0, nan) is 0.0, so a runner that folds violations with max alone
    would pass a cocycle that is NaN everywhere.
    """

    @pytest.fixture
    def mutated(self, monkeypatch):
        monkeypatch.setattr(group, "cocycle", lambda g, a, b: math.nan)

    def test_mutation_is_killed(self, mutated):
        by_name = result_map(verify.run_verify(seed=1, cases=20))
        for name in ("cocycle_identity", "cocycle_coboundary"):
            assert not by_name[name].passed
            assert math.isnan(by_name[name].max_violation)

    def test_cli_exits_one(self, mutated, capsys):
        from aristotle import cli

        assert cli.main(["verify", "--seed", "1", "--cases", "20"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL cocycle_identity max_violation=nan" in lines
        assert "FAIL cocycle_coboundary max_violation=nan" in lines
        assert lines[-1] == "37 properties, 2 failed (seed=1, cases=20)"

    def test_nan_stays_the_worst_case(self, monkeypatch):
        violations = iter([0.5, math.nan, 2.0])
        prop = verify.Property("p", 1.0, lambda rng: next(violations))
        monkeypatch.setattr(verify, "PROPERTIES", (prop,))
        (result,) = verify.run_verify(seed=1, cases=3)
        assert math.isnan(result.max_violation) and not result.passed


class TestNaNInOneComparedValue:
    """A NaN in any value a check compares must FAIL its property.

    max() keeps a NaN only when it comes first, so a check that folds its
    comparisons with max alone passes a NaN that follows a finite value.
    """

    def test_nan_hamiltonian_after_a_finite_sample(self, monkeypatch):
        from aristotle import dynamics

        real = dynamics.hamiltonian
        # The first sample's p is p0, in [-10, 10]; later samples reach past 12.
        monkeypatch.setattr(dynamics, "hamiltonian",
                            lambda ctx, pt: math.nan if pt.p > 12.0 else real(ctx, pt))
        by_name = result_map(verify.run_verify(seed=1, cases=200))
        for name in ("energy_conservation_exact", "energy_conservation_euler"):
            assert not by_name[name].passed
            assert math.isnan(by_name[name].max_violation)
        assert by_name["hamiltonian_p_independence"].passed

    def test_nan_second_coordinate_of_spacetime_act(self, monkeypatch):
        real = group.spacetime_act
        monkeypatch.setattr(group, "spacetime_act",
                            lambda a, t, x: (real(a, t, x)[0], math.nan))
        result = result_map(verify.run_verify(seed=1, cases=20))["spacetime_action_law"]
        assert not result.passed
        assert math.isnan(result.max_violation)


def test_checks_compare_only_through_violation():
    """No check folds or measures its own values: each compares through
    verify._violation, where a NaN anywhere is the worst."""
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(verify))
    checks = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")]
    assert len(checks) >= 30
    for check in checks:
        for node in ast.walk(check):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("abs", "max"), (check.name, node.lineno)


class TestEnergyMutation:
    """A kinetic term in H must fail both energy properties.

    The sampler copies one H into every sample, so only evaluating the
    Hamiltonian at each sampled point can see that H depends on p.
    """

    @pytest.fixture
    def mutated(self, monkeypatch):
        from aristotle import dynamics

        def with_kinetic_term(ctx, pt):
            return ctx.m * ctx.g * pt.q + pt.p ** 2 / (2.0 * ctx.m)

        monkeypatch.setattr(dynamics, "hamiltonian", with_kinetic_term)

    def test_mutation_is_killed(self, mutated):
        by_name = result_map(verify.run_verify(seed=42, cases=50))
        assert not by_name["energy_conservation_exact"].passed
        assert not by_name["energy_conservation_euler"].passed
        assert not by_name["hamiltonian_p_independence"].passed


class TestMovingPositionMutation:
    """A flow that moves q must fail static_position.

    Every sample carries q0, so only comparing the samples with the
    closed-form flow can see that the flow no longer freezes q.
    """

    @pytest.fixture
    def mutated(self, monkeypatch):
        from aristotle import dynamics
        from aristotle.orbit import OrbitPoint

        def drifting_flow(ctx, pt, t):
            return OrbitPoint(pt.p + ctx.m * ctx.g * t, pt.q + 1e-3 * t)

        monkeypatch.setattr(dynamics, "evolve_exact", drifting_flow)

    def test_mutation_is_killed(self, mutated):
        by_name = result_map(verify.run_verify(seed=42, cases=50))
        assert not by_name["static_position"].passed
        assert not by_name["generator_finite_difference"].passed
