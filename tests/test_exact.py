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
from aristotle import algebra

DRAWS = 50
G = F(981, 100)

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
    # A corrupted table's Jacobi defect is G itself, not a rounding of it.  The
    # other closed forms are the exact model's (test_model.py).
    assert algebra.jacobi_violation(_corrupted_table()) == G
