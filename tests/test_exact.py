"""Exact inputs stay exact: every public function of the chain, called with
Fraction inputs, returns Fractions or ints, never a rounded float.

A float is allowed only as a literal constant in a field that no input can
reach, such as the zero a_p and a_q of a Poisson bracket or the zero dq of
the drift; each such field is named in the case.
"""

import inspect
from fractions import Fraction as F
from numbers import Number

import pytest

from aristotle import algebra, dynamics, group, orbit

G = F(981, 100)
CTX = orbit.OrbitContext(F(7, 3), G)
X = algebra.AlgebraElement(F(1, 2), F(-3, 5), F(2, 9))
Y = algebra.AlgebraElement(F(-4, 7), F(5, 11), F(1, 13))
A = group.BaseElement(F(1, 3), F(-2, 7))
B = group.BaseElement(F(-5, 6), F(3, 4))
U = group.ExtendedElement(F(1, 5), F(2, 3), F(-7, 8))
V = group.ExtendedElement(F(-3, 10), F(4, 9), F(5, 12))
DUAL = orbit.CoadjointPoint(CTX.m, F(-8, 3), F(6, 5))
PT = orbit.OrbitPoint(F(6, 5), F(9, 7))
OBS = orbit.AffineObservable(F(2, 3), F(-1, 4), F(5, 2))
OBS2 = orbit.AffineObservable(F(-7, 5), F(3, 8), F(1, 6))


def _corrupted_table():
    """Antisymmetric, with [P, E] = G*M and [P, M] = P: not a Lie algebra."""
    c = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = G, -G
    c[0][2][0], c[2][0][0] = F(1), F(-1)
    return algebra.BracketTable(c)


def _config(integrator):
    return dynamics.SimulationConfig(CTX.m, G, F(1, 3), F(5, 2), F(9, 4), F(1, 2), integrator)


CANONICAL = algebra.aristotle_bracket_table(G)
_CANONICAL_ZEROS = {("constants", i, j, k) for i in range(3) for j in range(3) for k in range(3)
                    if (i, j, k) not in ((0, 1, 2), (1, 0, 2))}

# name -> (call, the paths of fields that hold a literal float constant)
CASES = {
    "AlgebraElement arithmetic": (lambda: (X + Y, X - Y, -X, X * F(3, 7), F(3, 7) * X), ()),
    "BracketTable.is_antisymmetric": (lambda: _corrupted_table().is_antisymmetric(), ()),
    "aristotle_bracket_table": (lambda: CANONICAL, _CANONICAL_ZEROS),
    "bracket": (lambda: (algebra.bracket(CANONICAL, X, Y), algebra.bracket(_corrupted_table(), X, Y)),
                ()),
    # The canonical table's defect is the initial 0.0; a corrupted one's is exact.
    "jacobi_violation": (lambda: (algebra.jacobi_violation(CANONICAL),
                                  algebra.jacobi_violation(_corrupted_table())), {(0,)}),
    "dimension_of": (lambda: algebra.dimension_of("g"), ()),
    "pairing_dimension_check": (lambda: algebra.pairing_dimension_check(), ()),
    "multiply_base": (lambda: group.multiply_base(A, B), ()),
    "inverse_base": (lambda: group.inverse_base(A), ()),
    "spacetime_act": (lambda: group.spacetime_act(A, F(1, 9), F(-2, 3)), ()),
    "cocycle": (lambda: group.cocycle(G, A, B), ()),
    "cocycle_symmetric": (lambda: group.cocycle_symmetric(G, A, B), ()),
    "canonical_shift": (lambda: group.canonical_shift(G, A), ()),
    "multiply_extended": (lambda: group.multiply_extended(G, U, V), ()),
    "inverse_extended": (lambda: group.inverse_extended(G, U), ()),
    "conjugate_extended": (lambda: group.conjugate_extended(G, U, V), ()),
    "multiply_canonical": (lambda: group.multiply_canonical(G, U, V), ()),
    "to_canonical_coords": (lambda: group.to_canonical_coords(G, U), ()),
    "from_canonical_coords": (lambda: group.from_canonical_coords(G, U), ()),
    "pairing": (lambda: orbit.pairing(DUAL, X), ()),
    "coadjoint_act": (lambda: orbit.coadjoint_act(G, A, DUAL), ()),
    "adjoint_act": (lambda: orbit.adjoint_act(G, A, X), ()),
    "adjoint_act_via_conjugation": (lambda: orbit.adjoint_act_via_conjugation(G, A, X), ()),
    "to_chart": (lambda: orbit.to_chart(CTX, DUAL), ()),
    "from_chart": (lambda: orbit.from_chart(CTX, PT), ()),
    "canonical_act": (lambda: orbit.canonical_act(CTX, A, PT), ()),
    "comomentum": (lambda: orbit.comomentum(CTX, X), ()),
    "AffineObservable.value": (lambda: OBS.value(PT), ()),
    "hamiltonian_vector_field": (lambda: orbit.hamiltonian_vector_field(OBS), ()),
    "poisson_bracket": (lambda: orbit.poisson_bracket(OBS, OBS2), {("a_p",), ("a_q",)}),
    "hamiltonian": (lambda: dynamics.hamiltonian(CTX, PT), ()),
    "evolve_exact": (lambda: dynamics.evolve_exact(CTX, PT, F(11, 4)), ()),
    "generator_left": (lambda: (dynamics.generator_left(CTX, "E"), dynamics.generator_left(CTX, "P")),
                       {(0, "dq"), (1, "dp"), (1, "dq")}),
    "physical_drift": (lambda: dynamics.physical_drift(CTX), {("dq",)}),
    "SimulationConfig.energy": (lambda: (_config("exact").energy, _config("symplectic_euler").energy),
                                ()),
    "sample_count": (lambda: dynamics.sample_count(_config("exact")), ()),
    "sample_rows": (lambda: (list(dynamics.sample_rows(_config("exact"), 2)),
                             list(dynamics.sample_rows(_config("symplectic_euler"), 2))), ()),
    "simulate": (lambda: (dynamics.simulate(_config("exact")),
                          dynamics.simulate(_config("symplectic_euler"))), ()),
}


def _leaves(value, path=()):
    """(path, number) for every number in a result: record fields, tuple and list items."""
    if isinstance(value, Number):
        yield path, value
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from _leaves(item, (*path, i))
    else:
        for name, field in value.__dict__.items():
            yield from _leaves(field, (*path, name))


def test_every_public_function_has_a_case():
    names = {name for module in (algebra, group, orbit, dynamics)
             for name, obj in vars(module).items()
             if inspect.isfunction(obj) and obj.__module__ == module.__name__
             and not name.startswith("_")}
    assert names <= set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_fraction_inputs_give_exact_results(name):
    call, constants = CASES[name]
    leaves = dict(_leaves(call()))
    floats = {path for path, x in leaves.items() if isinstance(x, float)}
    assert floats == set(constants), f"{name} rounds {sorted(floats - set(constants))}"
    assert all(leaves[path] == int(leaves[path]) for path in constants)  # literals, not results


def test_exact_results_equal_their_closed_forms():
    # Identities that verify checks to a tolerance hold with equality here.
    assert algebra.bracket(CANONICAL, X, Y) == algebra.AlgebraElement(
        0, 0, G * (X.c_P * Y.c_E - X.c_E * Y.c_P))
    assert algebra.jacobi_violation(_corrupted_table()) == G
    assert orbit.adjoint_act_via_conjugation(G, A, X) == orbit.adjoint_act(G, A, X)
    assert group.cocycle(G, A, B) - group.cocycle_symmetric(G, A, B) == (
        group.canonical_shift(G, group.multiply_base(A, B))
        - group.canonical_shift(G, A) - group.canonical_shift(G, B))
    assert group.from_canonical_coords(G, group.to_canonical_coords(G, U)) == U
