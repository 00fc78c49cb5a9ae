"""Randomized verification of every identity the library promises.

Each property draws its own deterministic input stream, seeded by the pair
(seed, property name), so results never depend on the order in which
properties run and the suite can be sharded without coordination.  A case's
violation is the worst absolute or relative difference over the values its
check compares through ``_violation``; a value exact in doubles by
construction is compared with ``==`` instead (``_equal``: +0.0 and -0.0 are
equal, and a mismatch reads inf).  A property reports its worst
violation over the requested number of cases and passes when that maximum
stays within its tolerance; a NaN in any compared value is the worst case
and fails.  ``record.worst`` alone owns that fold, over a case's values and
over a property's cases.  ``run_verify`` returns one ``PropertyResult`` per
property, and ``cli`` writes the report.

Tolerance classes, one per property, fixed by its ``PROPERTIES`` entry:

* 0.0        identities that hold bitwise in IEEE doubles (copied fields,
             symmetric negations, no-op arithmetic);
* 1e-12      identities exact in exact arithmetic whose float evaluation
             regroups terms; rounding alone FAILs bracket_bilinearity at seed
             807443437 x 3000 (1.0231815394945443e-12, tests/test_verify_corpus.py);
* 1e-9       the documented tolerance for composite numerical identities;
* 1e-5       finite-difference checks at step 1e-6.

Coordinates are drawn from [-10, 10], the acceleration from
{1, -1, 2, -2, 9.81}, and orbit masses from +/-[0.5, 10].
"""

import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from . import algebra, dynamics, group, orbit
from .record import Record, worst

GRAVITY_CHOICES = (1.0, -1.0, 2.0, -2.0, 9.81)

EXACT = 0.0
FP_TOL = 1e-12
NUMERICAL_TOL = 1e-9
FINITE_DIFF_TOL = 1e-5
FINITE_DIFF_STEP = 1e-6


# ---------------------------------------------------------------------------
# samplers

def _coord(rng: random.Random) -> float:
    return rng.uniform(-10.0, 10.0)


def _gravity(rng: random.Random) -> float:
    return rng.choice(GRAVITY_CHOICES)


def _mass(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 10.0)


def _algebra_element(rng: random.Random) -> algebra.AlgebraElement:
    return algebra.AlgebraElement(_coord(rng), _coord(rng), _coord(rng))


def _base(rng: random.Random) -> group.BaseElement:
    return group.BaseElement(_coord(rng), _coord(rng))


def _extended(rng: random.Random) -> group.ExtendedElement:
    return group.ExtendedElement(_coord(rng), _coord(rng), _coord(rng))


def _context(rng: random.Random) -> orbit.OrbitContext:
    return orbit.OrbitContext(_mass(rng), _gravity(rng))


def _orbit_point(rng: random.Random) -> orbit.OrbitPoint:
    return orbit.OrbitPoint(_coord(rng), _coord(rng))


def _observable(rng: random.Random) -> orbit.AffineObservable:
    return orbit.AffineObservable(_coord(rng), _coord(rng), _coord(rng))


def _simulation_config(rng: random.Random, integrator: str) -> dynamics.SimulationConfig:
    dt = rng.uniform(0.01, 0.5)
    t_max = 0.0 if rng.random() < 0.05 else dt * rng.uniform(1.0, 40.0)
    return dynamics.SimulationConfig(
        m=_mass(rng), g=_gravity(rng), p0=_coord(rng), q0=_coord(rng),
        t_max=t_max, dt=dt, integrator=integrator,
    )


# ---------------------------------------------------------------------------
# violation measures

def _absdiff(x: float, y: float) -> float:
    return abs(x - y)


def _reldiff(x: float, y: float) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


def _equal(x: float, y: float) -> float:
    """0.0 if x == y, else inf; a NaN stays NaN."""
    return 0.0 if x == y else abs(x - y) * math.inf


def _numbers(x) -> tuple:
    """A record's fields, a tuple of numbers, the flattened items of a tuple of
    records or tuples, or a number alone."""
    if isinstance(x, Record):
        return tuple(vars(x).values())
    if isinstance(x, tuple) and isinstance(x[0], (Record, tuple)):
        return tuple(n for item in x for n in _numbers(item))
    return x if isinstance(x, tuple) else (x,)


def _violation(*comparisons: tuple) -> float:
    """The worst violation of comparisons (lhs, rhs, measure), number by number;
    a NaN anywhere is the worst (``record.worst``), and unequal sides raise ValueError."""
    return worst(measure(x, y) for lhs, rhs, measure in comparisons
                 for x, y in zip(_numbers(lhs), _numbers(rhs), strict=True))


def _central(plus: orbit.OrbitPoint, minus: orbit.OrbitPoint, step: float) -> tuple[float, float]:
    """The central difference (dp, dq) of two points a step either side."""
    return ((plus.p - minus.p) / (2.0 * step), (plus.q - minus.q) / (2.0 * step))


# ---------------------------------------------------------------------------
# algebra properties

def _check_bracket_antisymmetry(rng: random.Random) -> float:
    table = algebra.aristotle_bracket_table(_gravity(rng))
    a, b = _algebra_element(rng), _algebra_element(rng)
    lhs = algebra.bracket(table, a, b)
    rhs = algebra.bracket(table, b, a)
    return _violation((lhs, -rhs, _absdiff))


def _check_bracket_bilinearity(rng: random.Random) -> float:
    table = algebra.aristotle_bracket_table(_gravity(rng))
    alpha = _coord(rng)
    a, b, c = (_algebra_element(rng) for _ in range(3))
    lhs = algebra.bracket(table, alpha * a + b, c)
    rhs = alpha * algebra.bracket(table, a, c) + algebra.bracket(table, b, c)
    return _violation((lhs.c_M, rhs.c_M, _reldiff), ((lhs.c_P, lhs.c_E), (rhs.c_P, rhs.c_E), _equal))


def _check_jacobi_identity(rng: random.Random) -> float:
    grade = algebra.jacobi_violation(algebra.aristotle_bracket_table(_gravity(rng)))
    return _violation((grade, 0.0, _absdiff))


def _check_vector_space_laws(rng: random.Random) -> float:
    a, b = _algebra_element(rng), _algebra_element(rng)
    return _violation(((a + b, 2.0 * a, 1.0 * a, a - a, 0.0 * a),
                       (b + a, a + a, a, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), _absdiff))


def _check_dimension_consistency(rng: random.Random) -> float:
    ok = algebra.pairing_dimension_check()
    # Deliberate mismatches must be caught, not waved through.
    bad_e = algebra.pairing_dimension_check({"e": algebra.Dimension(1, 0, 0)})
    bad_g = algebra.pairing_dimension_check({"g": algebra.Dimension(0, 0, 0)})
    return _violation(((ok, bad_e, bad_g), (1.0, 0.0, 0.0), _absdiff))


# ---------------------------------------------------------------------------
# group properties

def _check_base_abelian(rng: random.Random) -> float:
    a, b = _base(rng), _base(rng)
    ab = group.multiply_base(a, b)
    ba = group.multiply_base(b, a)
    ae = group.multiply_base(a, group.BASE_IDENTITY)
    return _violation(((ab, ae), (ba, a), _absdiff))


def _check_spacetime_action_law(rng: random.Random) -> float:
    a, b = _base(rng), _base(rng)
    t0, x0 = _coord(rng), _coord(rng)
    via_product = group.spacetime_act(group.multiply_base(a, b), t0, x0)
    nested = group.spacetime_act(a, *group.spacetime_act(b, t0, x0))
    return _violation((via_product, nested, _absdiff))


def _check_extended_associativity(rng: random.Random) -> float:
    g = _gravity(rng)
    a, b, c = (_extended(rng) for _ in range(3))
    lhs = group.multiply_extended(g, group.multiply_extended(g, a, b), c)
    rhs = group.multiply_extended(g, a, group.multiply_extended(g, b, c))
    return _violation((lhs, rhs, _absdiff))


def _check_extended_identity(rng: random.Random) -> float:
    g = _gravity(rng)
    a = _extended(rng)
    return _violation(((group.multiply_extended(g, group.EXTENDED_IDENTITY, a),
                        group.multiply_extended(g, a, group.EXTENDED_IDENTITY)), (a, a), _absdiff))


def _check_extended_inverse(rng: random.Random) -> float:
    g = _gravity(rng)
    a = _extended(rng)
    inv = group.inverse_extended(g, a)
    left, right = group.multiply_extended(g, a, inv), group.multiply_extended(g, inv, a)
    return _violation(((left.xi, right.xi), (0.0, 0.0), _absdiff),
                      ((left.t, left.h, right.t, right.h), (0.0,) * 4, _equal))


def _check_central_commutes(rng: random.Random) -> float:
    g = _gravity(rng)
    z = group.ExtendedElement(_coord(rng), 0.0, 0.0)
    a = _extended(rng)
    return _violation((group.multiply_extended(g, z, a), group.multiply_extended(g, a, z), _absdiff))


def _check_cocycle_identity(rng: random.Random) -> float:
    g = _gravity(rng)
    a, b, c = (_base(rng) for _ in range(3))
    lhs = group.cocycle(g, a, b) + group.cocycle(g, group.multiply_base(a, b), c)
    rhs = group.cocycle(g, a, group.multiply_base(b, c)) + group.cocycle(g, b, c)
    return _violation((lhs, rhs, _absdiff))


def _check_cocycle_coboundary(rng: random.Random) -> float:
    g = _gravity(rng)
    a, b = _base(rng), _base(rng)
    difference = group.cocycle(g, a, b) - group.cocycle_symmetric(g, a, b)
    coboundary = (
        group.canonical_shift(g, group.multiply_base(a, b))
        - group.canonical_shift(g, a)
        - group.canonical_shift(g, b)
    )
    return _violation((difference, coboundary, _absdiff))


def _check_canonical_product_law(rng: random.Random) -> float:
    g = _gravity(rng)
    a, b = _extended(rng), _extended(rng)
    via_conversion = group.to_canonical_coords(
        g,
        group.multiply_extended(
            g, group.from_canonical_coords(g, a), group.from_canonical_coords(g, b)
        ),
    )
    direct = group.multiply_canonical(g, a, b)
    return _violation((via_conversion.xi, direct.xi, _absdiff),
                      ((via_conversion.t, via_conversion.h), (direct.t, direct.h), _equal))


def _check_canonical_round_trip(rng: random.Random) -> float:
    g = _gravity(rng)
    a = _extended(rng)
    there_back = group.from_canonical_coords(g, group.to_canonical_coords(g, a))
    back_there = group.to_canonical_coords(g, group.from_canonical_coords(g, a))
    return _violation(((there_back.xi, back_there.xi), (a.xi, a.xi), _absdiff),
                      ((there_back.t, there_back.h, back_there.t, back_there.h), (a.t, a.h) * 2, _equal))


# ---------------------------------------------------------------------------
# coadjoint properties

def _check_m_invariance(rng: random.Random) -> float:
    f = orbit.CoadjointPoint(_coord(rng), _coord(rng), _coord(rng))
    moved = orbit.coadjoint_act(_gravity(rng), _base(rng), f)
    return _violation((moved.m, f.m, _absdiff))


def _check_coadjoint_action_law(rng: random.Random) -> float:
    g = _gravity(rng)
    a, b = _base(rng), _base(rng)
    f = orbit.CoadjointPoint(_coord(rng), _coord(rng), _coord(rng))
    nested = orbit.coadjoint_act(g, a, orbit.coadjoint_act(g, b, f))
    direct = orbit.coadjoint_act(g, group.multiply_base(a, b), f)
    return _violation((nested, direct, _reldiff))


def _check_zero_mass_fixed_point(rng: random.Random) -> float:
    f = orbit.CoadjointPoint(0.0, _coord(rng), _coord(rng))
    moved = orbit.coadjoint_act(_gravity(rng), _base(rng), f)
    return _violation((moved, f, _absdiff))


def _check_pairing_linearity(rng: random.Random) -> float:
    f = orbit.CoadjointPoint(_coord(rng), _coord(rng), _coord(rng))
    alpha = _coord(rng)
    x, y = _algebra_element(rng), _algebra_element(rng)
    lhs = orbit.pairing(f, alpha * x + y)
    rhs = alpha * orbit.pairing(f, x) + orbit.pairing(f, y)
    return _violation((lhs, rhs, _reldiff))


def _check_coadjoint_equivariance(rng: random.Random) -> float:
    """Pairing with the moved dual point equals pairing with the algebra
    pulled back through the group product (conjugation by the inverse lift),
    which is what ties the cocycle of the group law to the dual action."""
    g = _gravity(rng)
    a = _base(rng)
    f = orbit.CoadjointPoint(_coord(rng), _coord(rng), _coord(rng))
    x = _algebra_element(rng)
    lhs = orbit.pairing(orbit.coadjoint_act(g, a, f), x)
    rhs = orbit.pairing(f, orbit.adjoint_act_via_conjugation(g, group.inverse_base(a), x))
    return _violation((lhs, rhs, _reldiff))


def _check_adjoint_closed_form(rng: random.Random) -> float:
    g = _gravity(rng)
    a = _base(rng)
    x = _algebra_element(rng)
    closed = orbit.adjoint_act(g, a, x)
    conjugated = orbit.adjoint_act_via_conjugation(g, a, x)
    return _violation((closed, conjugated, _reldiff))


def _check_chart_round_trip(rng: random.Random) -> float:
    ctx = _context(rng)
    pt = _orbit_point(rng)
    back = orbit.to_chart(ctx, orbit.from_chart(ctx, pt))
    f = orbit.CoadjointPoint(ctx.m, _coord(rng), _coord(rng))
    forth = orbit.from_chart(ctx, orbit.to_chart(ctx, f))
    return _violation(((back.q, forth.e), (pt.q, f.e), _reldiff),
                      ((back.p, forth.m, forth.p), (pt.p, f.m, f.p), _equal))


def _check_chart_equivariance(rng: random.Random) -> float:
    ctx = _context(rng)
    a = _base(rng)
    f = orbit.CoadjointPoint(ctx.m, _coord(rng), _coord(rng))
    through_dual = orbit.to_chart(ctx, orbit.coadjoint_act(ctx.g, a, f))
    through_chart = orbit.canonical_act(ctx, a, orbit.to_chart(ctx, f))
    return _violation((through_dual, through_chart, _reldiff))


def _check_canonical_action_jacobian(rng: random.Random) -> float:
    """The chart action is a translation, so its Jacobian is the identity and
    its determinant 1; checked by central differences, which are exact for an
    affine map up to rounding (dyadic step, no truncation error)."""
    ctx = _context(rng)
    a = _base(rng)
    pt = _orbit_point(rng)
    step = 0.5

    def moved(dp: float, dq: float) -> orbit.OrbitPoint:
        return orbit.canonical_act(ctx, a, orbit.OrbitPoint(pt.p + dp, pt.q + dq))

    j_pp, j_qp = _central(moved(step, 0.0), moved(-step, 0.0), step)
    j_pq, j_qq = _central(moved(0.0, step), moved(0.0, -step), step)
    det = j_pp * j_qq - j_pq * j_qp
    return _violation(((j_pp, j_pq, j_qp, j_qq, det), (1.0, 0.0, 0.0, 1.0, 1.0), _absdiff))


def _check_poisson_antisymmetry(rng: random.Random) -> float:
    f, h = _observable(rng), _observable(rng)
    lhs = orbit.poisson_bracket(f, h)
    rhs = orbit.poisson_bracket(h, f)
    return _violation(((lhs, orbit.poisson_bracket(f, f).c), ((-rhs.a_p, -rhs.a_q, -rhs.c), 0.0),
                       _absdiff))


def _check_poisson_jacobi(rng: random.Random) -> float:
    f, h, k = (_observable(rng) for _ in range(3))
    cyclic = (
        orbit.poisson_bracket(orbit.poisson_bracket(f, h), k).c
        + orbit.poisson_bracket(orbit.poisson_bracket(h, k), f).c
        + orbit.poisson_bracket(orbit.poisson_bracket(k, f), h).c
    )
    return _violation((cyclic, 0.0, _absdiff))


def _check_momentum_map_antihomomorphism(rng: random.Random) -> float:
    ctx = _context(rng)
    table = algebra.aristotle_bracket_table(ctx.g)
    x, y = _algebra_element(rng), _algebra_element(rng)
    bracket_of_maps = orbit.poisson_bracket(
        orbit.comomentum(ctx, x), orbit.comomentum(ctx, y)
    )
    map_of_bracket = orbit.comomentum(ctx, algebra.bracket(table, x, y))
    return _violation((bracket_of_maps.c, -map_of_bracket.c, _reldiff),
                      ((map_of_bracket.a_p, map_of_bracket.a_q), (0.0, 0.0), _absdiff))


def _check_hamiltonian_field_convention(rng: random.Random) -> float:
    ctx = _context(rng)
    space = orbit.comomentum(ctx, algebra.AlgebraElement(1.0, 0.0, 0.0))
    time = orbit.comomentum(ctx, algebra.AlgebraElement(0.0, 1.0, 0.0))
    x_space = orbit.hamiltonian_vector_field(space)
    x_time = orbit.hamiltonian_vector_field(time)
    x_const = orbit.hamiltonian_vector_field(orbit.AffineObservable(0.0, 0.0, _coord(rng)))
    expected = ((0.0, -1.0), (-(ctx.m * ctx.g), 0.0), (0.0, 0.0))
    return _violation(((x_space, x_time, x_const), expected, _absdiff))


def _check_momentum_map_realizes_pairing(rng: random.Random) -> float:
    """The momentum map of x, read at the chart point of f, is the pairing <f, x>."""
    ctx = _context(rng)
    f = orbit.CoadjointPoint(ctx.m, _coord(rng), _coord(rng))
    x = _algebra_element(rng)
    lhs = orbit.comomentum(ctx, x).value(orbit.to_chart(ctx, f))
    return _violation((lhs, orbit.pairing(f, x), _reldiff))


# ---------------------------------------------------------------------------
# dynamics properties

def _check_static_position(rng: random.Random) -> float:
    """Every sampled q is the q of the closed-form flow at the sample's time,
    and the run has sample_count rows, the count its writer cuts chunks by."""
    comparisons = []
    for integrator in dynamics.INTEGRATORS:
        cfg = _simulation_config(rng, integrator)
        start = orbit.OrbitPoint(cfg.p0, cfg.q0)
        flow_q = tuple(dynamics.evolve_exact(cfg, start, t).q for t, _ in dynamics.sample_rows(cfg))
        comparisons.append((flow_q, (cfg.q0,) * len(flow_q), _absdiff))  # q stays q0 on every sample
        comparisons.append((len(flow_q), dynamics.sample_count(cfg), _absdiff))
    return _violation(*comparisons)


def _check_energy_conservation(integrator: str, rng: random.Random) -> float:
    """The Hamiltonian evaluated at every sampled point stays at the config's
    H, that of its first point.  A trajectory writes that one H on every row,
    so only this evaluation sees a Hamiltonian that depends on p."""
    cfg = _simulation_config(rng, integrator)
    energies = tuple(dynamics.hamiltonian(cfg, orbit.OrbitPoint(p, cfg.q0)) for _, p in dynamics.sample_rows(cfg))
    return _violation((energies, (cfg.energy,) * len(energies), _equal))


def _check_momentum_linear(integrator: str, rng: random.Random) -> float:
    cfg = _simulation_config(rng, integrator)
    drift = cfg.m * cfg.g
    ts, ps = zip(*dynamics.sample_rows(cfg))
    return _violation((tuple(p - cfg.p0 for p in ps), tuple(drift * t for t in ts), _reldiff))


def _check_flow_composition(rng: random.Random) -> float:
    ctx = _context(rng)
    pt = _orbit_point(rng)
    t1, t2 = _coord(rng), _coord(rng)
    split = dynamics.evolve_exact(ctx, dynamics.evolve_exact(ctx, pt, t1), t2)
    joined = dynamics.evolve_exact(ctx, pt, t1 + t2)
    return _violation((split, joined, _reldiff))


def _check_generator_finite_difference(rng: random.Random) -> float:
    ctx = _context(rng)
    pt = _orbit_point(rng)
    s = FINITE_DIFF_STEP
    # Left generators: flow of exp(-s X).
    de = _central(
        orbit.canonical_act(ctx, group.BaseElement(-s, 0.0), pt),
        orbit.canonical_act(ctx, group.BaseElement(s, 0.0), pt), s,
    )
    dp_ = _central(
        orbit.canonical_act(ctx, group.BaseElement(0.0, -s), pt),
        orbit.canonical_act(ctx, group.BaseElement(0.0, s), pt), s,
    )
    gen_e = dynamics.generator_left(ctx, "E")
    gen_p = dynamics.generator_left(ctx, "P")
    # Forward-time drift from the closed-form flow.
    dt_ = _central(dynamics.evolve_exact(ctx, pt, s), dynamics.evolve_exact(ctx, pt, -s), s)
    drift = dynamics.physical_drift(ctx)
    return _violation(((de, dp_, dt_), (gen_e, gen_p, drift), _absdiff),
                      (drift, (-gen_e.dp, -gen_e.dq), _equal))


def _check_hamiltons_equations(rng: random.Random) -> float:
    ctx = _context(rng)
    h_obs = orbit.AffineObservable(0.0, ctx.m * ctx.g, 0.0)
    p_obs = orbit.AffineObservable(1.0, 0.0, 0.0)
    q_obs = orbit.AffineObservable(0.0, 1.0, 0.0)
    dp_dt = orbit.poisson_bracket(p_obs, h_obs).c
    dq_dt = orbit.poisson_bracket(q_obs, h_obs).c
    drift = dynamics.physical_drift(ctx)
    return _violation(((dp_dt, dq_dt), drift, _absdiff))


def _check_hamiltonian_p_independence(rng: random.Random) -> float:
    ctx = _context(rng)
    q = _coord(rng)
    reference = dynamics.hamiltonian(ctx, orbit.OrbitPoint(_coord(rng), q))
    other = dynamics.hamiltonian(ctx, orbit.OrbitPoint(_coord(rng), q))
    return _violation((reference, other, _absdiff))


def _check_hamiltonian_is_time_momentum(rng: random.Random) -> float:
    """H = m*g*q is minus the momentum of time translation: no kinetic term."""
    ctx = _context(rng)
    pt = _orbit_point(rng)
    time = orbit.comomentum(ctx, algebra.AlgebraElement(0.0, 1.0, 0.0))
    return _violation((dynamics.hamiltonian(ctx, pt), -time.value(pt), _absdiff))


# ---------------------------------------------------------------------------
# registry and runner

@dataclass(frozen=True)
class Property:
    name: str
    tolerance: float
    check: Callable[[random.Random], float]


PROPERTIES: tuple[Property, ...] = (
    # algebra
    Property("bracket_antisymmetry", EXACT, _check_bracket_antisymmetry),
    Property("bracket_bilinearity", FP_TOL, _check_bracket_bilinearity),
    Property("jacobi_identity", EXACT, _check_jacobi_identity),
    Property("algebra_vector_space_laws", EXACT, _check_vector_space_laws),
    Property("pairing_dimension_consistency", EXACT, _check_dimension_consistency),
    # group
    Property("base_group_abelian", EXACT, _check_base_abelian),
    Property("spacetime_action_law", FP_TOL, _check_spacetime_action_law),
    Property("extended_associativity", NUMERICAL_TOL, _check_extended_associativity),
    Property("extended_identity", EXACT, _check_extended_identity),
    Property("extended_inverse", FP_TOL, _check_extended_inverse),
    Property("central_coordinate_commutes", EXACT, _check_central_commutes),
    Property("cocycle_identity", NUMERICAL_TOL, _check_cocycle_identity),
    Property("cocycle_coboundary", NUMERICAL_TOL, _check_cocycle_coboundary),
    Property("canonical_product_law", NUMERICAL_TOL, _check_canonical_product_law),
    Property("canonical_round_trip", FP_TOL, _check_canonical_round_trip),
    # coadjoint
    Property("coadjoint_m_invariance", EXACT, _check_m_invariance),
    Property("coadjoint_action_law", FP_TOL, _check_coadjoint_action_law),
    Property("coadjoint_zero_mass_fixed_point", EXACT, _check_zero_mass_fixed_point),
    Property("pairing_linearity", FP_TOL, _check_pairing_linearity),
    Property("coadjoint_equivariance", NUMERICAL_TOL, _check_coadjoint_equivariance),
    Property("adjoint_closed_form_matches_conjugation", NUMERICAL_TOL, _check_adjoint_closed_form),
    Property("chart_round_trip", FP_TOL, _check_chart_round_trip),
    Property("chart_equivariance", NUMERICAL_TOL, _check_chart_equivariance),
    Property("canonical_action_jacobian", FP_TOL, _check_canonical_action_jacobian),
    Property("poisson_antisymmetry", EXACT, _check_poisson_antisymmetry),
    Property("poisson_jacobi", EXACT, _check_poisson_jacobi),
    Property("momentum_map_antihomomorphism", NUMERICAL_TOL, _check_momentum_map_antihomomorphism),
    Property("hamiltonian_field_convention", EXACT, _check_hamiltonian_field_convention),
    # dynamics
    Property("static_position", EXACT, _check_static_position),
    Property("energy_conservation_exact", EXACT, partial(_check_energy_conservation, "exact")),
    Property("energy_conservation_euler", NUMERICAL_TOL, partial(_check_energy_conservation, "symplectic_euler")),
    Property("momentum_linear_exact", FP_TOL, partial(_check_momentum_linear, "exact")),
    Property("momentum_linear_euler", NUMERICAL_TOL, partial(_check_momentum_linear, "symplectic_euler")),
    Property("flow_composition", FP_TOL, _check_flow_composition),
    Property("generator_finite_difference", FINITE_DIFF_TOL, _check_generator_finite_difference),
    Property("hamiltons_equations", EXACT, _check_hamiltons_equations),
    Property("hamiltonian_p_independence", EXACT, _check_hamiltonian_p_independence),
    # the momentum map is the pairing, and H is minus its time component
    Property("momentum_map_realizes_pairing", FP_TOL, _check_momentum_map_realizes_pairing),
    Property("hamiltonian_is_time_momentum", EXACT, _check_hamiltonian_is_time_momentum),
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    max_violation: float
    tolerance: float
    passed: bool


def run_verify(seed: int, cases: int) -> tuple[PropertyResult, ...]:
    """Run every registered property over `cases` seeded random inputs."""
    if cases < 1:
        raise ValueError("cases must be >= 1")
    results = []
    for prop in PROPERTIES:
        rng = random.Random(f"{seed}:{prop.name}")
        violation = worst(prop.check(rng) for _ in range(cases))  # a generator: memory stays flat
        results.append(PropertyResult(prop.name, violation, prop.tolerance, violation <= prop.tolerance))
    return tuple(results)
