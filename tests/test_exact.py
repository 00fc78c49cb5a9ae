"""Exact inputs stay exact: every public function and computing method of the
chain (tests/chain.py), called with Fraction inputs p/q, |p|, q <= 99,
returns Fractions or ints, never a rounded float.

A float is allowed only as an integral literal constant at a path that no
input can reach, such as the zero a_p and a_q of a Poisson bracket or the
zero dq of the drift; LITERALS names every such path, and each one must
appear over the draws.
"""

import random
from fractions import Fraction as F

import pytest

import chain
from aristotle import algebra, group, orbit

DRAWS = 50
G = F(981, 100)
X = algebra.AlgebraElement(F(1, 2), F(-3, 5), F(2, 9))
Y = algebra.AlgebraElement(F(-4, 7), F(5, 11), F(1, 13))
A = group.BaseElement(F(1, 3), F(-2, 7))
B = group.BaseElement(F(-5, 6), F(3, 4))
U = group.ExtendedElement(F(1, 5), F(2, 3), F(-7, 8))

# name -> the paths of a result that hold a literal float constant
LITERALS = {
    "aristotle_bracket_table": {("constants", i, j, k) for i in range(3) for j in range(3)
                                for k in range(3) if (i, j, k) not in ((0, 1, 2), (1, 0, 2))},
    # The canonical table's defect is the initial 0.0; another table's is exact.
    "jacobi_violation": {()},
    "poisson_bracket": {("a_p",), ("a_q",)},
    "generator_left": {("dp",), ("dq",)},
    "physical_drift": {("dq",)},
}


def _corrupted_table():
    """Antisymmetric, with [P, E] = G*M and [P, M] = P: not a Lie algebra."""
    c = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = G, -G
    c[0][2][0], c[2][0][0] = F(1), F(-1)
    return algebra.BracketTable(c)


def test_every_public_function_has_a_case():
    assert set(chain.BUILDERS) == set(chain.PUBLIC)


@pytest.mark.parametrize("name", sorted(chain.PUBLIC))
def test_fraction_inputs_give_exact_results(name):
    rng, literals, floats = random.Random(f"exact:{name}"), LITERALS.get(name, set()), set()
    for args, leaves in chain.results(name, lambda: F(rng.randint(-99, 99), rng.randint(1, 99)),
                                      rng, DRAWS):
        for path, v in leaves:
            if isinstance(v, float):
                assert path in literals and v == int(v), f"{name}{args!r} rounds {path}"
                floats.add(path)
    assert floats == literals


def test_exact_results_equal_their_closed_forms():
    # Identities that verify checks to a tolerance hold with equality here.
    assert algebra.bracket(algebra.aristotle_bracket_table(G), X, Y) == algebra.AlgebraElement(
        0, 0, G * (X.c_P * Y.c_E - X.c_E * Y.c_P))
    assert algebra.jacobi_violation(_corrupted_table()) == G
    assert orbit.adjoint_act_via_conjugation(G, A, X) == orbit.adjoint_act(G, A, X)
    assert group.cocycle(G, A, B) - group.cocycle_symmetric(G, A, B) == (
        group.canonical_shift(G, group.multiply_base(A, B))
        - group.canonical_shift(G, A) - group.canonical_shift(G, B))
    assert group.from_canonical_coords(G, group.to_canonical_coords(G, U)) == U
