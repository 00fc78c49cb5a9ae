"""An exact model of the central extension, independent of the package's
formulas: the Heisenberg group as 3x3 unipotent matrices over the rationals
(Kirillov, *Lectures on the Orbit Method*, AMS 2004, ch. 2).

The group element (xi, t, h) is [[1, g*h, xi], [0, 1, t], [0, 0, 1]], the
algebra element (c_P, c_E, c_M) is the nilpotent [[0, g*c_P, c_M],
[0, 0, c_E], [0, 0, 0]], and exp(N) = I + N + N^2/2 is a finite sum.  So the
conventions the package fixes (the cocycle g*h*t' and the slot that carries
g, the canonical shift g*t*h/2, [P, E] = g*M and the sign of the dual action)
are read off matrix products alone.  Each test asserts with == that a
function of the package is the model's map, over DRAWS draws of Fractions
p/q, |p|, q <= 99, with g a nonzero one; the map is faithful only for g != 0.
"""

import random
from fractions import Fraction

import chain
from aristotle.algebra import AlgebraElement, aristotle_bracket_table, bracket
from aristotle.group import (canonical_shift, cocycle, cocycle_symmetric, conjugate_extended,
                             from_canonical_coords, inverse_extended, multiply_canonical,
                             multiply_extended, to_canonical_coords)
from aristotle.orbit import adjoint_act, adjoint_act_via_conjugation, coadjoint_act, pairing

DRAWS = 2000
I = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, column) if x and y) for column in zip(*b))
                 for row in a)


def add(a, b, s=1):
    """a + s*b"""
    return tuple(tuple(x + s * y for x, y in zip(u, v)) for u, v in zip(a, b))


def exp(n):
    return add(add(I, n), mul(n, n), Fraction(1, 2))


def log(u):
    k = add(u, I, -1)
    return add(k, mul(k, k), Fraction(-1, 2))


def inv(u):
    k = add(u, I, -1)
    return add(add(I, k, -1), mul(k, k))


def lift(g, a):
    """The matrix of an ExtendedElement, or of the lift (0, t, h) of a BaseElement."""
    return ((1, g * a.h, getattr(a, "xi", 0)), (0, 1, a.t), (0, 0, 1))


def matrix(g, x):
    """The nilpotent matrix of an AlgebraElement."""
    return ((0, g * x.c_P, x.c_M), (0, 0, x.c_E), (0, 0, 0))


def chart(g, u):
    """The logarithm of the element whose canonical coordinates are u, as lift reads them."""
    return ((0, g * u.h, getattr(u, "xi", 0)), (0, 0, u.t), (0, 0, 0))


def draws(name):
    """DRAWS triples (g, x, rng): g a nonzero Fraction, and x drawing one Fraction."""
    rng = random.Random(f"model:{name}")

    def x():
        return Fraction(rng.randint(-99, 99), rng.randint(1, 99))

    for _ in range(DRAWS):
        yield Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99)), x, rng


def test_multiply_extended_is_the_matrix_product():
    for g, x, _ in draws("multiply_extended"):
        a, b = chain._ext(x), chain._ext(x)
        assert lift(g, multiply_extended(g, a, b)) == mul(lift(g, a), lift(g, b)), (g, a, b)


def test_inverse_extended_is_the_matrix_inverse():
    for g, x, _ in draws("inverse_extended"):
        a = chain._ext(x)
        assert lift(g, inverse_extended(g, a)) == inv(lift(g, a)), (g, a)


def test_conjugate_extended_is_matrix_conjugation():
    for g, x, _ in draws("conjugate_extended"):
        a, b = chain._ext(x), chain._ext(x)
        assert lift(g, conjugate_extended(g, a, b)) == mul(mul(lift(g, a), lift(g, b)),
                                                           inv(lift(g, a))), (g, a, b)


def test_canonical_chart_is_the_exponential_chart():
    for g, x, _ in draws("canonical"):
        a, u, v = chain._ext(x), chain._ext(x), chain._ext(x)
        assert exp(chart(g, to_canonical_coords(g, a))) == lift(g, a), (g, a)
        assert lift(g, from_canonical_coords(g, u)) == exp(chart(g, u)), (g, u)
        assert exp(chart(g, multiply_canonical(g, u, v))) == mul(exp(chart(g, u)),
                                                                 exp(chart(g, v))), (g, u, v)


def test_bracket_is_the_commutator():
    for g, x, _ in draws("bracket"):
        a, b = chain._alg(x), chain._alg(x)
        commutator = add(mul(matrix(g, a), matrix(g, b)), mul(matrix(g, b), matrix(g, a)), -1)
        assert matrix(g, bracket(aristotle_bracket_table(g), a, b)) == commutator, (g, a, b)


def test_adjoint_act_is_conjugation_by_the_lift():
    for g, x, _ in draws("adjoint_act"):
        a, y = chain._base(x), chain._alg(x)
        conjugated = mul(mul(lift(g, a), matrix(g, y)), inv(lift(g, a)))
        assert matrix(g, adjoint_act(g, a, y)) == conjugated, (g, a, y)
        assert matrix(g, adjoint_act_via_conjugation(g, a, y)) == conjugated, (g, a, y)


def test_coadjoint_act_is_the_dual_of_ad_of_the_inverse():
    for g, x, _ in draws("coadjoint_act"):
        a, f, y = chain._base(x), chain._dual(x, x()), chain._alg(x)
        n = mul(mul(inv(lift(g, a)), matrix(g, y)), lift(g, a))  # Ad(a^-1) y
        pulled = AlgebraElement(n[0][1] / g, n[1][2], n[0][2])
        assert pairing(coadjoint_act(g, a, f), y) == pairing(f, pulled), (g, a, f, y)


def test_cocycles_are_the_central_twists():
    # What a product adds to its factors' central coordinates, in each chart,
    # and the polarized central coordinate less the canonical one.
    for g, x, rng in draws("cocycle"):
        a, b = chain._element(x, rng), chain._element(x, rng)
        pa, pb, ca, cb = lift(g, a), lift(g, b), chart(g, a), chart(g, b)
        assert cocycle(g, a, b) == mul(pa, pb)[0][2] - pa[0][2] - pb[0][2], (g, a, b)
        assert cocycle_symmetric(g, a, b) == (log(mul(exp(ca), exp(cb)))[0][2]
                                              - ca[0][2] - cb[0][2]), (g, a, b)
        assert canonical_shift(g, a) == exp(ca)[0][2] - ca[0][2], (g, a)
