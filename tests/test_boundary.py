"""The chain at the double boundary: every public function of algebra, group,
orbit and dynamics, and AffineObservable.value, driven with extreme finite
inputs, refuses them with ValueError or OverflowError or returns only finite
numbers.

Inputs are log-uniform in magnitude from 1e-300 to 1e300, or one of the
special doubles: 0, the smallest subnormal, the smallest normal and the
largest double, each with either sign.  Arguments that a value class refuses
while they are built are drawn again, so each function sees CALLS accepted
inputs.
"""

import inspect
import math
import random
from numbers import Number

import pytest

from aristotle import algebra, dynamics, group, orbit
from aristotle.record import Record

CALLS = 2000
SPECIAL = (0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)
# jacobi_violation documents NaN as the grade of a table whose sums overflow.
NAN_RESULT = {"jacobi_violation"}

PUBLIC = {name: fn for module in (algebra, group, orbit, dynamics)
          for name, fn in inspect.getmembers(module, inspect.isfunction)
          if fn.__module__ == module.__name__ and not name.startswith("_")}
PUBLIC["AffineObservable.value"] = orbit.AffineObservable.value


def _x(rng):
    """A signed extreme double: a special value one time in four, else log-uniform."""
    v = rng.choice(SPECIAL) if rng.random() < 0.25 else 10.0 ** rng.uniform(-300, 300)
    return v if rng.random() < 0.5 else -v


def _alg(rng):
    return algebra.AlgebraElement(_x(rng), _x(rng), _x(rng))


def _table(rng):
    """The canonical table of an extreme g, or an antisymmetric table of extremes."""
    if rng.random() < 0.5:
        return algebra.aristotle_bracket_table(_x(rng))
    c = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                c[i][j][k] = _x(rng)
                c[j][i][k] = -c[i][j][k]
    return algebra.BracketTable(c)


def _overrides(rng):
    symbols = ("xi", "t", "x", "m", "e", "p", "g", "action")
    return {s: algebra.Dimension(*(rng.randint(-3, 3) for _ in range(3)))
            for s in rng.sample(symbols, rng.randint(0, 3))} or None


def _base(rng):
    return group.BaseElement(_x(rng), _x(rng))


def _ext(rng):
    return group.ExtendedElement(_x(rng), _x(rng), _x(rng))


def _element(rng):
    return _base(rng) if rng.random() < 0.5 else _ext(rng)


def _ctx(rng):
    return orbit.OrbitContext(_x(rng), _x(rng))


def _dual(rng, m):
    return orbit.CoadjointPoint(m, _x(rng), _x(rng))


def _pt(rng):
    return orbit.OrbitPoint(_x(rng), _x(rng))


def _obs(rng):
    return orbit.AffineObservable(_x(rng), _x(rng), _x(rng))


def _config(rng):
    """A run of at most 7 samples."""
    dt = abs(_x(rng))
    return dynamics.SimulationConfig(_x(rng), _x(rng), _x(rng), _x(rng),
                                     dt * rng.choice((0, 1, 2.5, 5)), dt,
                                     rng.choice(dynamics.INTEGRATORS))


def _chart_args(rng):
    ctx = _ctx(rng)
    return ctx, _dual(rng, ctx.m)


# name -> rng -> the arguments of one call
BUILDERS = {
    "aristotle_bracket_table": lambda rng: (_x(rng),),
    "bracket": lambda rng: (_table(rng), _alg(rng), _alg(rng)),
    "jacobi_violation": lambda rng: (_table(rng),),
    "dimension_of": lambda rng: (rng.choice(("xi", "t", "x", "m", "e", "p", "g", "action", "q")),),
    "pairing_dimension_check": lambda rng: (_overrides(rng),),
    "multiply_base": lambda rng: (_base(rng), _base(rng)),
    "inverse_base": lambda rng: (_base(rng),),
    "spacetime_act": lambda rng: (_base(rng), _x(rng), _x(rng)),
    "cocycle": lambda rng: (_x(rng), _element(rng), _element(rng)),
    "cocycle_symmetric": lambda rng: (_x(rng), _element(rng), _element(rng)),
    "canonical_shift": lambda rng: (_x(rng), _element(rng)),
    "multiply_extended": lambda rng: (_x(rng), _ext(rng), _ext(rng)),
    "inverse_extended": lambda rng: (_x(rng), _ext(rng)),
    "conjugate_extended": lambda rng: (_x(rng), _ext(rng), _ext(rng)),
    "multiply_canonical": lambda rng: (_x(rng), _ext(rng), _ext(rng)),
    "to_canonical_coords": lambda rng: (_x(rng), _ext(rng)),
    "from_canonical_coords": lambda rng: (_x(rng), _ext(rng)),
    "pairing": lambda rng: (_dual(rng, _x(rng)), _alg(rng)),
    "coadjoint_act": lambda rng: (_x(rng), _base(rng), _dual(rng, _x(rng))),
    "adjoint_act": lambda rng: (_x(rng), _base(rng), _alg(rng)),
    "adjoint_act_via_conjugation": lambda rng: (_x(rng), _base(rng), _alg(rng)),
    "to_chart": _chart_args,
    "from_chart": lambda rng: (_ctx(rng), _pt(rng)),
    "canonical_act": lambda rng: (_ctx(rng), _base(rng), _pt(rng)),
    "comomentum": lambda rng: (_ctx(rng), _alg(rng)),
    "hamiltonian_vector_field": lambda rng: (_obs(rng),),
    "poisson_bracket": lambda rng: (_obs(rng), _obs(rng)),
    "AffineObservable.value": lambda rng: (_obs(rng), _pt(rng)),
    "hamiltonian": lambda rng: (_ctx(rng), _pt(rng)),
    "evolve_exact": lambda rng: (_ctx(rng), _pt(rng), _x(rng)),
    "generator_left": lambda rng: (_ctx(rng), rng.choice("EP")),
    "physical_drift": lambda rng: (_ctx(rng),),
    "sample_count": lambda rng: (_config(rng),),
    "sample_rows": lambda rng: (_config(rng), rng.randint(0, 8)),
    "simulate": lambda rng: (_config(rng),),
}


def _accepted(build, rng):
    """The arguments of one call, drawn again while a value class refuses them."""
    for _ in range(1000):
        try:
            return build(rng)
        except ValueError:
            pass
    raise AssertionError("no accepted arguments in 1000 draws")


def _numbers(value):
    """Every number in a result: record fields, and tuple, list and generator items."""
    if isinstance(value, Number):
        yield value
    elif isinstance(value, (tuple, list)) or inspect.isgenerator(value):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, Record):
        for field in vars(value).values():
            yield from _numbers(field)
    else:
        raise TypeError(f"unexpected result {value!r}")


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_finite_or_refused(name):
    assert name in BUILDERS, f"no argument builder for public function {name}"
    fn, build, rng = PUBLIC[name], BUILDERS[name], random.Random(f"boundary:{name}")
    for _ in range(CALLS):
        args = _accepted(build, rng)
        try:
            values = list(_numbers(fn(*args)))
        except (ValueError, OverflowError):
            continue
        bad = [v for v in values if not (math.isfinite(v) or name in NAN_RESULT and v != v)]
        assert not bad, f"{name}{args!r} gave {bad}"
