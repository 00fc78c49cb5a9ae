"""An exact model of the central extension, independent of the package's
formulas: the Heisenberg group as 3x3 unipotent matrices over the rationals
(Kirillov, *Lectures on the Orbit Method*, AMS 2004, ch. 2).

The group element (xi, t, h) is [[1, g*h, xi], [0, 1, t], [0, 0, 1]], the
algebra element (c_P, c_E, c_M) is the nilpotent [[0, g*c_P, c_M],
[0, 0, c_E], [0, 0, 0]], and exp(N) = I + N + N^2/2 is a finite sum.  So the
conventions the package fixes (the cocycle g*h*t' and the slot that carries
g, the canonical shift g*t*h/2, [P, E] = g*M and the sign of the dual action)
are read off matrix products alone.  The dual point (m, e, p) pairs with
(c_P, c_E, c_M) as m*c_M + e*c_E + p*c_P, the base group acts on it by
<a.f, y> = <f, Ad(a^-1) y>, and sigma = dp ^ dq; from these the chart, the
momentum map, the fields, the Poisson bracket and the flow of H = m*g*q follow.
Each test asserts with == that a function of the package is the model's map,
over DRAWS draws of Fractions p/q, |p|, q <= 99, with g and m nonzero ones;
the map is faithful only for g != 0.
"""

import ast
import pathlib
import random
from fractions import Fraction

import chain
from aristotle.algebra import AlgebraElement, aristotle_bracket_table, bracket
from aristotle.dynamics import evolve_exact, generator_left, hamiltonian, physical_drift
from aristotle.group import (BaseElement, canonical_shift, cocycle, cocycle_symmetric,
                             conjugate_extended, from_canonical_coords, inverse_base,
                             inverse_extended, multiply_base, multiply_canonical,
                             multiply_extended, spacetime_act, to_canonical_coords)
from aristotle.orbit import (AffineObservable, CoadjointPoint, OrbitContext, OrbitTangent,
                             adjoint_act, adjoint_act_via_conjugation, canonical_act,
                             coadjoint_act, comomentum, from_chart, hamiltonian_vector_field,
                             pairing, poisson_bracket, to_chart)

DRAWS = 2000
I = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
P, E, M = AlgebraElement(1, 0, 0), AlgebraElement(0, 1, 0), AlgebraElement(0, 0, 1)


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


def element(g, n):
    """The AlgebraElement of a nilpotent matrix, as matrix writes it."""
    return AlgebraElement(n[0][1] / g, n[1][2], n[0][2])


def quotient(u):
    """The image of a group matrix in the base group: u without its central entry."""
    return (u[0][:2], u[1], u[2])


def pair(f, y):
    """<f, y>, by its definition."""
    return f.m * y.c_M + f.e * y.c_E + f.p * y.c_P


def coadjoint(g, a, f):
    """The dual point a.f: <a.f, y> = <f, Ad(a^-1) y> on the basis P, E, M."""
    c_P, c_E, c_M = (pair(f, element(g, mul(mul(inv(lift(g, a)), matrix(g, y)), lift(g, a))))
                     for y in (P, E, M))
    return CoadjointPoint(c_M, c_E, c_P)


def sigma(u, v):
    """dp ^ dq on two tangents."""
    return u.dp * v.dq - u.dq * v.dp


def nonzero(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))


def draws(name):
    """DRAWS triples (g, x, rng): g a nonzero Fraction, and x drawing one Fraction."""
    rng = random.Random(f"model:{name}")

    def x():
        return Fraction(rng.randint(-99, 99), rng.randint(1, 99))

    for _ in range(DRAWS):
        yield nonzero(rng), x, rng


def test_the_model_calls_no_function_of_the_package():
    # Every function here but the tests is the model's, and none may call a
    # map of the package: a helper that did would check the map against itself.
    helpers = [node for node in ast.parse(pathlib.Path(__file__).read_text()).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_")]
    assert {"lift", "matrix", "inv", "pair", "coadjoint", "sigma", "quotient"} <= {
        h.name for h in helpers}
    calls = [(h.name, getattr(call.func, "id", getattr(call.func, "attr", None)))
             for h in helpers for call in ast.walk(h) if isinstance(call, ast.Call)]
    assert [(name, called) for name, called in calls if called in chain.FUNCTIONS] == []


def test_base_group_is_the_lifted_group_modulo_the_center():
    for g, x, _ in draws("base"):
        a, b, t0, x0 = chain._base(x), chain._base(x), x(), x()
        product = mul(lift(g, a), lift(g, b))
        assert quotient(lift(g, multiply_base(a, b))) == quotient(product), (g, a, b)
        assert quotient(lift(g, inverse_base(a))) == quotient(inv(lift(g, a))), (g, a)
        moved = BaseElement(*spacetime_act(a, t0, x0))
        assert moved == multiply_base(a, BaseElement(t0, x0)), (a, t0, x0)


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
        a, f = chain._base(x), chain._dual(x, x())
        assert coadjoint_act(g, a, f) == coadjoint(g, a, f), (g, a, f)


def test_pairing_is_the_definition():
    for _, x, _ in draws("pairing"):
        f, y = chain._dual(x, x()), chain._alg(x)
        assert pairing(f, y) == pair(f, y), (f, y)


def test_chart_carries_the_coadjoint_action_to_canonical_act():
    for g, x, rng in draws("chart"):
        ctx = OrbitContext(nonzero(rng), g)
        a, f, pt = chain._base(x), chain._dual(x, ctx.m), chain._pt(x)
        pt_f = to_chart(ctx, f)
        assert to_chart(ctx, coadjoint(g, a, f)) == canonical_act(ctx, a, pt_f), (ctx, a, f)
        assert from_chart(ctx, pt_f) == f, (ctx, f)
        assert to_chart(ctx, from_chart(ctx, pt)) == pt, (ctx, pt)


def test_comomentum_is_the_pairing_and_its_field_the_action_of_exp_minus_y():
    for g, x, rng in draws("comomentum"):
        ctx = OrbitContext(nonzero(rng), g)
        f, y = chain._dual(x, ctx.m), chain._alg(x)
        pt = to_chart(ctx, f)
        moved = to_chart(ctx, coadjoint(g, BaseElement(-y.c_E, -y.c_P), f))
        assert comomentum(ctx, y).value(pt) == pair(f, y), (ctx, f, y)
        field = OrbitTangent(moved.p - pt.p, moved.q - pt.q)
        assert hamiltonian_vector_field(comomentum(ctx, y)) == field, (ctx, f, y)


def test_fields_and_brackets_are_read_off_sigma():
    d_p, d_q = OrbitTangent(1, 0), OrbitTangent(0, 1)
    for g, x, rng in draws("poisson"):
        ctx, f, h = OrbitContext(nonzero(rng), g), chain._obs(x), chain._obs(x)
        x_f, x_h = hamiltonian_vector_field(f), hamiltonian_vector_field(h)
        assert (sigma(x_f, d_p), sigma(x_f, d_q)) == (f.a_p, f.a_q), f  # i_{X_f} sigma = df
        assert poisson_bracket(f, h) == AffineObservable(0, 0, sigma(x_f, x_h)), (f, h)
        # The momentum map is an anti-homomorphism: {map(a), map(b)} = map([b, a]).
        a, b = chain._alg(x), chain._alg(x)
        b_a = element(g, add(mul(matrix(g, b), matrix(g, a)), mul(matrix(g, a), matrix(g, b)), -1))
        bracketed = poisson_bracket(comomentum(ctx, a), comomentum(ctx, b))
        assert bracketed == comomentum(ctx, b_a), (ctx, a, b)


def test_the_flow_of_h_is_the_time_translation():
    for g, x, rng in draws("dynamics"):
        ctx, s = OrbitContext(nonzero(rng), g), x()
        f = chain._dual(x, ctx.m)
        pt = to_chart(ctx, f)

        def displacement(t, h):
            moved = to_chart(ctx, coadjoint(g, BaseElement(t, h), f))
            return OrbitTangent(moved.p - pt.p, moved.q - pt.q)

        # H = m*g*q is minus the energy e, whatever p is: no kinetic term.
        assert hamiltonian(ctx, pt) == -pair(f, E), (ctx, f)
        flowed = to_chart(ctx, coadjoint(g, BaseElement(s, 0), f))
        assert evolve_exact(ctx, pt, s) == flowed, (ctx, f, s)
        assert generator_left(ctx, "E") == displacement(-1, 0), ctx
        assert generator_left(ctx, "P") == displacement(0, -1), ctx
        assert physical_drift(ctx) == displacement(1, 0), ctx


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
