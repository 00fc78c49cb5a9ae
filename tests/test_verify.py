"""Verification engine: determinism, report semantics, and mutation killing."""

import ast
import inspect
import math
import tracemalloc
import types
from functools import partial

import pytest

import chain
from aristotle import algebra, dynamics, group, orbit, verify
from aristotle.group import ExtendedElement
from aristotle.record import Record


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

    def test_memory_stays_flat_as_cases_grow(self, monkeypatch):
        # Folding a list of 1e5 cases peaks near 3 MB; the generator, near 3 KB.
        prop = verify.Property("p", 1.0, lambda rng: rng.random())
        monkeypatch.setattr(verify, "PROPERTIES", (prop,))
        tracemalloc.start()
        try:
            (result,) = verify.run_verify(1, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed and 0.99 < result.max_violation < 1.0
        assert peak < 64 * 1024


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
        assert lines[-1] == "39 properties, 2 failed (seed=1, cases=20)"

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
        # The real function refuses a NaN x0, so the mutant does not call it.
        monkeypatch.setattr(group, "spacetime_act", lambda a, t, x: (t + a.t, math.nan))
        result = result_map(verify.run_verify(seed=1, cases=20))["spacetime_action_law"]
        assert not result.passed
        assert math.isnan(result.max_violation)


def _own_nodes(function):
    """The nodes of a function's body, without those of functions nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_checks_compare_only_through_violation():
    """No check folds, measures or scores its own values: each returns a
    verify._violation call, where a NaN anywhere is the worst and a negative
    or signed verdict is a difference like any other."""
    tree = ast.parse(inspect.getsource(verify))
    checks = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")]
    assert len(checks) >= 30
    for check in checks:
        for node in ast.walk(check):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("abs", "max"), (check.name, node.lineno)
        returns = [node for node in _own_nodes(check) if isinstance(node, ast.Return)]
        assert returns, check.name
        for node in returns:
            assert isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name), (
                check.name, node.lineno)
            assert node.value.func.id == "_violation", (check.name, node.lineno)


@pytest.mark.parametrize("lhs, rhs", [((1.0, 2.0), (1.0,)), (orbit.OrbitPoint(1.0, 5.0), (1.0,))],
                         ids=["tuple", "record"])
def test_violation_refuses_sides_of_unequal_length(lhs, rhs):
    """Pairing stops at neither side: a value left unscored could hide a defect."""
    with pytest.raises(ValueError):
        verify._violation((lhs, rhs, verify._absdiff))


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


hamiltonian, pairing, table = dynamics.hamiltonian, orbit.pairing, algebra.aristotle_bracket_table


@pytest.mark.parametrize("module, name, mutant, failed", [
    (dynamics, "hamiltonian", lambda ctx, pt: -hamiltonian(ctx, pt), "hamiltonian_is_time_momentum"),
    (dynamics, "hamiltonian", lambda ctx, pt: 2.0 * hamiltonian(ctx, pt),
     "hamiltonian_is_time_momentum"),
    (dynamics, "hamiltonian", lambda ctx, pt: hamiltonian(ctx, pt) + 1.0,
     "hamiltonian_is_time_momentum"),
    (orbit, "pairing", lambda f, x: -pairing(f, x), "momentum_map_realizes_pairing"),
    (orbit, "pairing", lambda f, x: 2.0 * pairing(f, x), "momentum_map_realizes_pairing"),
], ids=["hamiltonian_negated", "hamiltonian_doubled", "hamiltonian_plus_one",
        "pairing_negated", "pairing_doubled"])
def test_scaled_hamiltonian_or_pairing_is_killed(module, name, mutant, failed, monkeypatch):
    # The energy properties compare H with cfg.energy, which calls the same
    # function, and the pairing properties are invariant under scaling: only
    # the identities that tie H and the pairing to the momentum map see these.
    monkeypatch.setattr(module, name, mutant)
    results = verify.run_verify(seed=42, cases=20)
    assert [r.name for r in results if not r.passed] == [failed]


@pytest.mark.parametrize("mutant", [lambda g: table(2 * g), lambda g: table(-g),
                                    lambda g: table(g + 1)],
                         ids=["g_doubled", "g_negated", "g_plus_one"])
def test_changed_bracket_table_is_killed(mutant, monkeypatch):
    # The mutation gate reads no number of a table, whose constants sit three
    # levels deep.  Any g gives a Lie algebra, so only the identity that ties
    # the bracket to the Poisson bracket of the momentum map sees the change.
    monkeypatch.setattr(algebra, "aristotle_bracket_table", mutant)
    results = verify.run_verify(seed=42, cases=20)
    assert [r.name for r in results if not r.passed] == ["momentum_map_antihomomorphism"]


MUTATIONS = {"negated": lambda x: -x, "doubled": lambda x: 2 * x, "plus_one": lambda x: x + 1}

# Mutants that no check can kill.  Most mutate a value that is 0 wherever
# verify reads it (the canonical table has no c_P or c_E bracket, an affine
# observable's bracket is constant, a static system does not drift in q, and
# a Lie algebra's Jacobi defect is 0), and a negated or doubled 0 is still 0.
# The dimension_of ones scale one exponent column of every symbol: a
# consistent change of units, under which every dimensional identity holds.
EQUIVALENT_MUTANTS = {
    "bracket.c_P negated", "bracket.c_P doubled", "bracket.c_E negated", "bracket.c_E doubled",
    "poisson_bracket.a_p negated", "poisson_bracket.a_p doubled",
    "poisson_bracket.a_q negated", "poisson_bracket.a_q doubled",
    "physical_drift.dq negated", "physical_drift.dq doubled",
    "jacobi_violation negated", "jacobi_violation doubled",
    "dimension_of.mass_exp negated", "dimension_of.mass_exp doubled",
    "dimension_of.length_exp negated", "dimension_of.length_exp doubled",
    "dimension_of.time_exp negated", "dimension_of.time_exp doubled",
}


def _changed(result, path, change):
    """result with the number at path changed, rebuilt through its class."""
    if not path:
        return change(result)
    (key,) = path
    if isinstance(result, Record):
        return type(result)(**{**vars(result), key: change(getattr(result, key))})
    return (*result[:key], change(result[key]), *result[key + 1:])


def _on_results(fn, apply):
    """fn with apply run on its result, or on each item its generator yields."""
    def wrapped(*args):
        result = fn(*args)
        return map(apply, result) if isinstance(result, types.GeneratorType) else apply(result)
    return wrapped


def _mutation_sites(monkeypatch):
    """{name: {path: label}} of every number that each public function of the
    chain returns or yields, as itself or as a field or item of its result,
    during an unmutated verify run."""
    sites = {}

    def record(name, result):
        found = sites.setdefault(name, {})
        for path, x in chain.leaves(result):
            if len(path) <= 1 and not isinstance(x, bool):
                found[path] = ".".join(map(str, (name, *path)))
        return result

    with monkeypatch.context() as patch:
        for name, fn in chain.FUNCTIONS.items():
            patch.setattr(inspect.getmodule(fn), name, _on_results(fn, partial(record, name)))
        verify.run_verify(3, 5)
    return sites


def test_verify_kills_every_mutant_but_the_equivalent_ones(monkeypatch):
    """Each number that a public function of algebra, group, orbit or dynamics
    returns, negated, doubled or increased by 1, fails a property or makes
    the run raise ValueError, unless the mutant is equivalent on every input
    verify draws.  A new public function joins the gate by itself."""
    sites = _mutation_sites(monkeypatch)
    # Nothing verify runs calls simulate: the dynamics checks read
    # sample_rows, of which simulate is the list.
    assert set(chain.FUNCTIONS) - set(sites) == {"simulate"}
    survivors = set()
    for name, found in sites.items():
        fn = chain.FUNCTIONS[name]
        for path, label in found.items():
            for mutation, change in MUTATIONS.items():
                with monkeypatch.context() as patch:
                    patch.setattr(inspect.getmodule(fn), name,
                                  _on_results(fn, partial(_changed, path=path, change=change)))
                    try:
                        killed = not all(r.passed for r in verify.run_verify(3, 5))
                    except ValueError:  # a refused or malformed value: the run fails
                        killed = True
                if not killed:
                    survivors.add(f"{label} {mutation}")
    assert survivors == EQUIVALENT_MUTANTS


def test_negative_jacobi_grade_fails(monkeypatch):
    """A grade below 0 is a defect too: the check scores it through
    _violation, not as the worst of it and 0."""
    monkeypatch.setattr(algebra, "jacobi_violation", lambda table: -1.0)
    result = result_map(verify.run_verify(1, 20))["jacobi_identity"]
    assert not result.passed
    assert result.max_violation == 1.0
