"""Verification engine: determinism, report semantics, and mutation killing."""

import pytest

from aristotle import group, verify
from aristotle.group import ExtendedElement


def result_map(report):
    return {r.name: r for r in report.results}


class TestReport:
    def test_all_properties_pass(self):
        report = verify.run_verify(seed=42, cases=50)
        assert report.passed
        assert all(r.passed for r in report.results)

    def test_property_names_are_unique(self):
        names = [p.name for p in verify.PROPERTIES]
        assert len(names) == len(set(names))

    def test_deterministic_given_seed(self):
        first = verify.run_verify(seed=7, cases=40)
        second = verify.run_verify(seed=7, cases=40)
        assert first == second

    def test_lines_format(self):
        report = verify.run_verify(seed=1, cases=5)
        for line, result in zip(report.lines(), report.results):
            status = "PASS" if result.passed else "FAIL"
            assert line == f"{status} {result.name} max_violation={result.max_violation!r}"

    def test_exact_properties_report_zero(self):
        report = verify.run_verify(seed=3, cases=100)
        for result in result_map(report).values():
            if result.tolerance == 0.0:
                assert result.max_violation == 0.0

    def test_rejects_zero_cases(self):
        with pytest.raises(ValueError):
            verify.run_verify(seed=1, cases=0)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            verify.run_verify(seed=1, cases=5, tol=0.0)

    def test_tol_overrides_numerical_class_only(self):
        report = verify.run_verify(seed=1, cases=5, tol=1e-3)
        by_name = result_map(report)
        assert by_name["extended_associativity"].tolerance == 1e-3
        assert by_name["extended_inverse"].tolerance == verify.FP_TOL
        assert by_name["jacobi_identity"].tolerance == 0.0
        assert by_name["generator_finite_difference"].tolerance == verify.FINITE_DIFF_TOL


class TestCocycleMutation:
    """Dropping the cocycle term from the extended product must be caught.

    The mutated group stays associative (it is the direct product), so the
    pure group-law checks still pass; what fails is the consistency between
    the group product and the dual action.
    """

    @pytest.fixture
    def mutated(self, monkeypatch):
        def flat_multiply(g, a, b):
            return ExtendedElement(a.xi + b.xi, a.t + b.t, a.h + b.h)

        monkeypatch.setattr(group, "multiply_extended", flat_multiply)

    def test_mutation_is_killed(self, mutated):
        report = verify.run_verify(seed=42, cases=50)
        assert not report.passed
        by_name = result_map(report)
        assert by_name["extended_associativity"].passed
        assert by_name["extended_identity"].passed
        assert not by_name["coadjoint_equivariance"].passed
        assert not by_name["adjoint_closed_form_matches_conjugation"].passed

    def test_cli_exits_one(self, mutated, capsys):
        from aristotle import cli

        code = cli.main(["verify", "--seed", "42", "--cases", "50"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL coadjoint_equivariance" in out


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
