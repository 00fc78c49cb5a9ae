"""The public surface of the chain (algebra → group → orbit → dynamics), for
the sweeps that must reach all of it: the boundary sweep, the exact sweep and
the mutation gate of verify.

A new public function joins all three by one row in BUILDERS.  A builder
takes x, which draws one number (an extreme double, or a small Fraction), and
the random.Random that makes every other choice.
"""

import inspect
from fractions import Fraction
from numbers import Number

from aristotle import algebra, dynamics, group, orbit
from aristotle.record import Record

MODULES = (algebra, group, orbit, dynamics)

# name -> every public function of the chain
FUNCTIONS = {name: fn for module in MODULES
             for name, fn in inspect.getmembers(module, inspect.isfunction)
             if fn.__module__ == module.__name__ and not name.startswith("_")}

# The functions and the methods that compute numbers.
PUBLIC = {
    **FUNCTIONS,
    "AlgebraElement arithmetic": lambda a, b, s: (a + b, a - b, -a, a * s, s * a),
    "BracketTable.is_antisymmetric": algebra.BracketTable.is_antisymmetric,
    "AffineObservable.value": orbit.AffineObservable.value,
    "SimulationConfig.energy": dynamics.SimulationConfig.energy.fget,
}


def _alg(x):
    return algebra.AlgebraElement(x(), x(), x())


def _table(x, rng):
    """The canonical table of a drawn g, or an antisymmetric table of draws
    whose zeros are int 0, so that a table of Fractions stays exact."""
    if rng.random() < 0.5:
        return algebra.aristotle_bracket_table(x())
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                c[i][j][k] = x()
                c[j][i][k] = -c[i][j][k]
    return algebra.BracketTable(c)


def _overrides(rng):
    symbols = ("xi", "t", "x", "m", "e", "p", "g", "action")
    return {s: algebra.Dimension(*(rng.randint(-3, 3) for _ in range(3)))
            for s in rng.sample(symbols, rng.randint(0, 3))} or None


def _base(x):
    return group.BaseElement(x(), x())


def _ext(x):
    return group.ExtendedElement(x(), x(), x())


def _element(x, rng):
    return _base(x) if rng.random() < 0.5 else _ext(x)


def _ctx(x):
    return orbit.OrbitContext(x(), x())


def _dual(x, m):
    return orbit.CoadjointPoint(m, x(), x())


def _pt(x):
    return orbit.OrbitPoint(x(), x())


def _obs(x):
    return orbit.AffineObservable(x(), x(), x())


def _config(x, rng):
    """A run of at most 7 samples; t_max is dt times 0, 1, 5/2 or 5, exact
    when dt is."""
    dt = abs(x())
    return dynamics.SimulationConfig(x(), x(), x(), x(),
                                     dt * rng.choice((0, 1, Fraction(5, 2), 5)), dt,
                                     rng.choice(dynamics.INTEGRATORS))


# name -> (x, rng) -> the arguments of one call
BUILDERS = {
    "AlgebraElement arithmetic": lambda x, rng: (_alg(x), _alg(x), x()),
    "BracketTable.is_antisymmetric": lambda x, rng: (_table(x, rng),),
    "aristotle_bracket_table": lambda x, rng: (x(),),
    "bracket": lambda x, rng: (_table(x, rng), _alg(x), _alg(x)),
    "jacobi_violation": lambda x, rng: (_table(x, rng),),
    "dimension_of": lambda x, rng: (rng.choice(("xi", "t", "x", "m", "e", "p", "g", "action", "q")),),
    "pairing_dimension_check": lambda x, rng: (_overrides(rng),),
    "multiply_base": lambda x, rng: (_base(x), _base(x)),
    "inverse_base": lambda x, rng: (_base(x),),
    "spacetime_act": lambda x, rng: (_base(x), x(), x()),
    "cocycle": lambda x, rng: (x(), _element(x, rng), _element(x, rng)),
    "cocycle_symmetric": lambda x, rng: (x(), _element(x, rng), _element(x, rng)),
    "canonical_shift": lambda x, rng: (x(), _element(x, rng)),
    "multiply_extended": lambda x, rng: (x(), _ext(x), _ext(x)),
    "inverse_extended": lambda x, rng: (x(), _ext(x)),
    "conjugate_extended": lambda x, rng: (x(), _ext(x), _ext(x)),
    "multiply_canonical": lambda x, rng: (x(), _ext(x), _ext(x)),
    "to_canonical_coords": lambda x, rng: (x(), _ext(x)),
    "from_canonical_coords": lambda x, rng: (x(), _ext(x)),
    "pairing": lambda x, rng: (_dual(x, x()), _alg(x)),
    "coadjoint_act": lambda x, rng: (x(), _base(x), _dual(x, x())),
    "adjoint_act": lambda x, rng: (x(), _base(x), _alg(x)),
    "adjoint_act_via_conjugation": lambda x, rng: (x(), _base(x), _alg(x)),
    "to_chart": lambda x, rng: ((ctx := _ctx(x)), _dual(x, ctx.m)),
    "from_chart": lambda x, rng: (_ctx(x), _pt(x)),
    "canonical_act": lambda x, rng: (_ctx(x), _base(x), _pt(x)),
    "comomentum": lambda x, rng: (_ctx(x), _alg(x)),
    "hamiltonian_vector_field": lambda x, rng: (_obs(x),),
    "poisson_bracket": lambda x, rng: (_obs(x), _obs(x)),
    "AffineObservable.value": lambda x, rng: (_obs(x), _pt(x)),
    "hamiltonian": lambda x, rng: (_ctx(x), _pt(x)),
    "evolve_exact": lambda x, rng: (_ctx(x), _pt(x), x()),
    "generator_left": lambda x, rng: (_ctx(x), rng.choice("EP")),
    "physical_drift": lambda x, rng: (_ctx(x),),
    "SimulationConfig.energy": lambda x, rng: (_config(x, rng),),
    "sample_count": lambda x, rng: (_config(x, rng),),
    "sample_rows": lambda x, rng: (_config(x, rng), rng.randint(0, 8)),
    "simulate": lambda x, rng: (_config(x, rng),),
}


def accepted(name, x, rng):
    """The arguments of one call of name, drawn again while a value class refuses them."""
    for _ in range(1000):
        try:
            return BUILDERS[name](x, rng)
        except ValueError:
            pass
    raise AssertionError(f"no accepted arguments for {name} in 1000 draws")


def results(name, x, rng, calls):
    """(args, leaves of the result) of each of `calls` calls of name on
    accepted arguments that returns rather than raising ValueError or
    OverflowError.  At least a quarter must return, so a sweep that
    refuses nearly every call fails instead of checking nothing."""
    returned = 0
    for _ in range(calls):
        args = accepted(name, x, rng)
        try:
            found = list(leaves(PUBLIC[name](*args)))
        except (ValueError, OverflowError):
            continue
        returned += 1
        yield args, found
    assert 4 * returned >= calls, f"{name} returned {returned} of {calls} calls"


def leaves(value, path=()):
    """(path, number) for every number in a result: record fields, and tuple,
    list and generator items."""
    if isinstance(value, Number):
        yield path, value
    elif isinstance(value, (tuple, list)) or inspect.isgenerator(value):
        for i, item in enumerate(value):
            yield from leaves(item, (*path, i))
    elif isinstance(value, Record):
        for name, field in vars(value).items():
            yield from leaves(field, (*path, name))
    else:
        raise TypeError(f"unexpected result {value!r}")
