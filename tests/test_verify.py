"""Verification engine: determinism, report semantics, and mutation killing."""

import ast
import contextlib
import inspect
import io
import math
import tracemalloc
import types
from functools import cache, partial
from unittest import mock

import pytest

import chain
from aristotle import algebra, cli, dynamics, group, orbit, verify
from aristotle.group import ExtendedElement
from aristotle.orbit import OrbitPoint
from aristotle.record import Record


class TestReport:
    def test_property_names_are_unique(self):
        names = [p.name for p in verify.PROPERTIES]
        assert len(names) == len(set(names))

    def test_deterministic_given_seed(self):
        first = verify.run_verify(seed=7, cases=40)
        second = verify.run_verify(seed=7, cases=40)
        assert first == second

    def test_lines_format(self, capsys):
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
        for result in report:
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


def _own_nodes(function):
    """The nodes of a function's body, without those of functions nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_checks_compare_only_through_violation(monkeypatch):
    """No check folds, measures or scores its own values: each returns a
    verify._violation call, where a NaN anywhere is the worst and a negative
    or signed verdict is a difference like any other, and every comparison it
    passes, a starred list's too, names one of the three measures."""
    tree = ast.parse(inspect.getsource(verify))
    checks = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")]
    assert len(checks) >= 30
    for check in checks:
        for node in ast.walk(check):
            assert not isinstance(node, ast.Lambda), (check.name, node.lineno)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("abs", "max"), (check.name, node.lineno)
        returns = [node for node in _own_nodes(check) if isinstance(node, ast.Return)]
        assert returns, check.name
        for node in returns:
            assert isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name), (
                check.name, node.lineno)
            assert node.value.func.id == "_violation", (check.name, node.lineno)
    measures, violation = set(), verify._violation

    def spy(*comparisons):
        measures.update(measure for *_, measure in comparisons)
        return violation(*comparisons)

    monkeypatch.setattr(verify, "_violation", spy)
    verify.run_verify(1, 2)
    assert measures == {verify._absdiff, verify._reldiff, verify._equal}


@pytest.mark.parametrize("lhs, rhs", [((1.0, 2.0), (1.0,)), (orbit.OrbitPoint(1.0, 5.0), (1.0,))],
                         ids=["tuple", "record"])
def test_violation_refuses_sides_of_unequal_length(lhs, rhs):
    """Pairing stops at neither side: a value left unscored could hide a defect."""
    with pytest.raises(ValueError):
        verify._violation((lhs, rhs, verify._absdiff))


hamiltonian, pairing, table = dynamics.hamiltonian, orbit.pairing, algebra.aristotle_bracket_table
multiply, inverse = group.multiply_extended, group.inverse_extended
to_canonical, multiply_canonical = group.to_canonical_coords, group.multiply_canonical
from_chart, generator_left = orbit.from_chart, dynamics.generator_left


def flat_multiply(g, a, b):
    return ExtendedElement(a.xi + b.xi, a.t + b.t, a.h + b.h)


def _changed(result, path, change):
    """result with the number at path changed, rebuilt through its class."""
    if not path:
        return change(result)
    (key,) = path
    if isinstance(result, Record):
        return type(result)(**{**vars(result), key: change(getattr(result, key))})
    return (*result[:key], change(result[key]), *result[key + 1:])


def ulp_up(result, field):
    """result with the named field moved one ulp up."""
    return _changed(result, (field,), lambda x: math.nextafter(x, math.inf))


SCALED = ("the energy properties compare H with cfg.energy, which calls the same function, and the"
          " pairing properties are invariant under scaling: only the momentum-map identities see it")
ULP = ("the value is exact in doubles, so verify compares it with ==: one ulp off reads inf,"
       " where a tolerance class would pass it")
TABLE_G = ("any g gives a Lie algebra, so only the identity that ties the bracket to the Poisson"
           " bracket of the momentum map sees it; the function-result gate reaches no table constant")

# Hand-written mutants: id -> (module, {name: mutant}, the properties that must
# FAIL, each as name or name=max_violation, and why only those see it).
MUTANTS = {
    "cocycle_dropped": (
        group, {"multiply_extended": flat_multiply},
        "extended_inverse canonical_product_law coadjoint_equivariance"
        " adjoint_closed_form_matches_conjugation",
        "the product stays associative (the direct product's); the inverse still carries the"
        " cocycle, and the product no longer matches the dual action"),
    "direct_product": (
        group, {"multiply_extended": flat_multiply,
                "inverse_extended": lambda g, a: ExtendedElement(-a.xi, -a.t, -a.h)},
        "canonical_product_law coadjoint_equivariance adjoint_closed_form_matches_conjugation",
        "every group law holds, so only the 1e-9-class properties that tie the product to the"
        " dual action see a group without the central extension"),
    "group_g_off_by_1e-6": (
        group, {"multiply_extended": lambda g, a, b: multiply(g * (1 + 1e-6), a, b),
                "inverse_extended": lambda g, a: inverse(g * (1 + 1e-6), a)},
        "canonical_product_law coadjoint_equivariance adjoint_closed_form_matches_conjugation",
        "every group law holds for any g, so only those properties see the extension's g off by"
        " 1e-6, at violations below 1e-3: a run that loosened their class would pass it"),
    "cocycle_nan": (
        group, {"cocycle": lambda g, a, b: math.nan},
        "cocycle_identity=nan cocycle_coboundary=nan",
        "max(0.0, nan) is 0.0: a runner that folds with max alone would pass a NaN cocycle"),
    "hamiltonian_nan_after_finite": (
        # The first sample's p is p0, in [-10, 10]; later samples reach past 12.
        dynamics, {"hamiltonian": lambda ctx, pt: math.nan if pt.p > 12.0 else hamiltonian(ctx, pt)},
        "energy_conservation_exact=nan energy_conservation_euler=nan",
        "max() keeps a NaN only when it comes first, so a check folding with max alone would"
        " pass a NaN after a finite sample"),
    "spacetime_act_nan_x": (
        # The real function refuses a NaN x0, so the mutant does not call it.
        group, {"spacetime_act": lambda a, t, x: (t + a.t, math.nan)},
        "spacetime_action_law=nan",
        "a NaN in the second compared coordinate must fail as one in the first does"),
    "hamiltonian_kinetic_term": (
        dynamics, {"hamiltonian": lambda ctx, pt: ctx.m * ctx.g * pt.q + pt.p ** 2 / (2.0 * ctx.m)},
        "energy_conservation_exact energy_conservation_euler hamiltonian_p_independence"
        " hamiltonian_is_time_momentum",
        "the sampler copies one H into every sample, so only evaluating H at each sampled point,"
        " or against the time momentum, sees that H depends on p"),
    "flow_moves_q": (
        dynamics,
        {"evolve_exact": lambda ctx, pt, t: OrbitPoint(pt.p + ctx.m * ctx.g * t, pt.q + 1e-3 * t)},
        "static_position generator_finite_difference",
        "every sample carries q0, so only comparing the samples with the closed-form flow sees"
        " that it moves q; the drift still composes"),
    "hamiltonian_negated": (dynamics, {"hamiltonian": lambda ctx, pt: -hamiltonian(ctx, pt)},
                            "hamiltonian_is_time_momentum", SCALED),
    "hamiltonian_doubled": (dynamics, {"hamiltonian": lambda ctx, pt: 2.0 * hamiltonian(ctx, pt)},
                            "hamiltonian_is_time_momentum", SCALED),
    "hamiltonian_plus_one": (dynamics, {"hamiltonian": lambda ctx, pt: hamiltonian(ctx, pt) + 1.0},
                             "hamiltonian_is_time_momentum", SCALED),
    "pairing_negated": (orbit, {"pairing": lambda f, x: -pairing(f, x)},
                        "momentum_map_realizes_pairing", SCALED),
    "pairing_doubled": (orbit, {"pairing": lambda f, x: 2.0 * pairing(f, x)},
                        "momentum_map_realizes_pairing", SCALED),
    "table_g_doubled": (algebra, {"aristotle_bracket_table": lambda g: table(2 * g)},
                        "momentum_map_antihomomorphism", TABLE_G),
    "table_g_negated": (algebra, {"aristotle_bracket_table": lambda g: table(-g)},
                        "momentum_map_antihomomorphism", TABLE_G),
    "table_g_plus_one": (algebra, {"aristotle_bracket_table": lambda g: table(g + 1)},
                         "momentum_map_antihomomorphism", TABLE_G),
    "jacobi_grade_negative": (
        algebra, {"jacobi_violation": lambda table: -1.0},
        "jacobi_identity=1.0",
        "a grade below 0 is a defect too: the check scores it through _violation, not as the"
        " worst of it and 0"),
    "inverse_t_ulp_up": (group, {"inverse_extended": lambda g, a: ulp_up(inverse(g, a), "t")},
                         "extended_inverse=inf", ULP),
    "to_canonical_h_ulp_up": (
        group, {"to_canonical_coords": lambda g, a: ulp_up(to_canonical(g, a), "h")},
        "canonical_product_law=inf canonical_round_trip=inf", ULP),
    "multiply_canonical_t_ulp_up": (
        group, {"multiply_canonical": lambda g, a, b: ulp_up(multiply_canonical(g, a, b), "t")},
        "canonical_product_law=inf", ULP),
    "from_chart_p_ulp_up": (orbit, {"from_chart": lambda ctx, pt: ulp_up(from_chart(ctx, pt), "p")},
                            "chart_round_trip=inf", ULP),
    "generator_e_dp_ulp_up": (
        dynamics, {"generator_left": lambda ctx, which: ulp_up(generator_left(ctx, which), "dp")
                   if which == "E" else generator_left(ctx, which)},
        "generator_finite_difference=inf", ULP),
}


@cache
def verify_under(row):
    """Exit code and output lines of the row's one `aristotle verify --seed 1
    --cases 20` run, with its mutant patched in."""
    module, patches, *_ = MUTANTS[row]
    with contextlib.ExitStack() as stack:
        for name, mutant in patches.items():
            stack.enter_context(mock.patch.object(module, name, mutant))
        out = stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        code = cli.main(["verify", "--seed", "1", "--cases", "20"])
    return code, out.getvalue().splitlines()


def assert_fails_exactly(row):
    """The run has exactly the row's FAIL lines, with the violations it pins."""
    *_, failed, reason = MUTANTS[row]
    expected = dict(spec.partition("=")[::2] for spec in failed.split())
    fails = dict(line.removeprefix("FAIL ").split(" max_violation=")
                 for line in verify_under(row)[1] if line.startswith("FAIL "))
    pinned = {name: value if expected.get(name) else "" for name, value in fails.items()}
    assert pinned == expected, reason


def assert_exits_one(row):
    """The run exits 1, and its summary counts the row's FAIL lines."""
    code, (*_, summary) = verify_under(row)
    failed = len(MUTANTS[row][2].split())
    assert (code, summary) == (
        1, f"{len(verify.PROPERTIES)} properties, {failed} failed (seed=1, cases=20)")


@pytest.mark.parametrize("row", MUTANTS)
def test_verify_fails_exactly_the_properties_that_see_a_mutant(row):
    """One `aristotle verify` run per mutant exits 1 with exactly its FAIL
    lines, and with the violation a row pins, such as nan."""
    assert_fails_exactly(row)
    assert_exits_one(row)


class MutantRowChecks:
    """A row's two checks under the names they had before the table; both
    read the row's one run."""

    def test_mutation_is_killed(self):
        assert_fails_exactly(self.ROW)

    def test_cli_exits_one(self):
        assert_exits_one(self.ROW)


class TestCocycleMutation(MutantRowChecks):
    """Dropping the cocycle term from the extended product."""

    ROW = "cocycle_dropped"


class TestDirectProductMutation(MutantRowChecks):
    """The untwisted direct product, its inverse too."""

    ROW = "direct_product"


class TestNaNViolationMutation(MutantRowChecks):
    """A property whose case returns NaN must FAIL, not read as 0.

    max(0.0, nan) is 0.0, so a runner that folds violations with max alone
    would pass it, as the table's NaN cocycle row shows through the CLI.
    """

    ROW = "cocycle_nan"

    def test_nan_stays_the_worst_case(self, monkeypatch):
        violations = iter([0.5, math.nan, 2.0])
        prop = verify.Property("p", 1.0, lambda rng: next(violations))
        monkeypatch.setattr(verify, "PROPERTIES", (prop,))
        (result,) = verify.run_verify(seed=1, cases=3)
        assert math.isnan(result.max_violation) and not result.passed


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
