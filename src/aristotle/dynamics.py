"""Time evolution on the orbit: closed-form flow, generators, and a
fixed-step trajectory sampler.

The Hamiltonian m*g*q carries no momentum term, so the flow moves p linearly
and freezes q: a static particle steadily gaining momentum.  The first-order
``symplectic_euler`` update is exact for this constant drift; it is kept as
an independent cross-check of the closed form and as the integrator contract
for any future system that is not static.

Sign bookkeeping: the left-action generator of time translations is
(-m*g, 0) (the derivative of the flow of exp(-s E)), while forward time
evolution drifts with (+m*g, 0).  Both are public so both signs stay pinned
by tests.
"""

import math
from collections.abc import Iterator
from itertools import accumulate, repeat

from .orbit import OrbitContext, OrbitPoint, OrbitTangent
from .record import finite

INTEGRATORS = ("exact", "symplectic_euler")


class SimulationConfig(OrbitContext):
    """Trajectory request on the orbit (m, g): initial point, grid, integrator.

    A config is the OrbitContext of its run.  Building one checks the whole
    run by its last sample, read by index with sample_rows: ValueError is
    raised unless m*g, the sample count, every p and H are finite.
    """

    def __init__(self, m: float, g: float, p0: float, q0: float, t_max: float,
                 dt: float, integrator: str = "exact") -> None:
        OrbitContext.__init__(self, m, g)  # m and g before every other check
        for name, value in (("p0", p0), ("q0", q0), ("t_max", t_max), ("dt", dt)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite configuration value {name}")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if t_max < 0.0:
            raise ValueError("t_max must be nonnegative")
        if t_max > 0.0 and dt > t_max:
            raise ValueError("dt must not exceed t_max")
        if integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {integrator!r}; expected one of {INTEGRATORS}")
        self.__dict__.update(p0=p0, q0=q0, t_max=t_max, dt=dt, integrator=integrator)
        # Rounding is monotone, so every p lies between p0 and the last sample,
        # and H = m*g*q0 is the same on every sample.
        for _, p in sample_rows(self, sample_count(self) - 1):
            hamiltonian(self, OrbitPoint(p, q0))

    @property
    def energy(self) -> float:
        """H = m*g*q0, the same on every sample (q stays q0)."""
        return hamiltonian(self, OrbitPoint(self.p0, self.q0))


def hamiltonian(ctx: OrbitContext, pt: OrbitPoint) -> float:
    """Full Hamiltonian m*g*q: gravitational potential energy, no kinetic term."""
    return finite(ctx.m * ctx.g * pt.q, "energy H = m*g*q")


def evolve_exact(ctx: OrbitContext, pt: OrbitPoint, t: float) -> OrbitPoint:
    """Closed-form flow for time t: momentum grows linearly, position is frozen."""
    return OrbitPoint(pt.p + ctx.m * ctx.g * t, pt.q)


def generator_left(ctx: OrbitContext, which: str) -> OrbitTangent:
    """Left-action generator d/ds of the flow of exp(-s X) at s = 0.

    ``which`` selects X: "E" (time translation) gives (-m*g, 0) and "P"
    (space translation) gives (0, -1).
    """
    if which == "E":
        return OrbitTangent(-(ctx.m * ctx.g), 0.0)
    if which == "P":
        return OrbitTangent(0.0, -1.0)
    raise ValueError(f"unknown generator {which!r}; expected 'E' or 'P'")


def physical_drift(ctx: OrbitContext) -> OrbitTangent:
    """(dp/dt, dq/dt) of forward time evolution; minus generator_left(ctx, 'E')."""
    return OrbitTangent(ctx.m * ctx.g, 0.0)


def _time_grid(t_max: float, dt: float) -> tuple[int, bool]:
    """(n, final): the grid is 0, dt, ..., n*dt with n = floor(t_max/dt),
    clamped so no grid point exceeds t_max, and ``final`` says whether an
    exact final sample at t_max follows it.  Grid points are k*dt rather than
    accumulated sums, so the sample count never depends on summation order.
    """
    steps = t_max / dt
    if math.isinf(steps):
        raise ValueError("too many samples: t_max/dt overflows")
    n = math.floor(steps)
    if n * dt > t_max:  # steps rounded up; above 2**53 k*dt is one float for many k
        lo, hi = 0, n  # bisect: lo*dt <= t_max < hi*dt, and k*dt is monotone in k
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if mid * dt > t_max else (mid, hi)
        n = lo
    return n, n * dt < t_max


def sample_count(cfg: SimulationConfig) -> int:
    """Number of samples on the grid of cfg, final point included."""
    n, final = _time_grid(cfg.t_max, cfg.dt)
    return n + 1 + final


def sample_rows(cfg: SimulationConfig, start: int = 0) -> Iterator[tuple[float, float]]:
    """(t, p) of the samples of cfg from index ``start`` >= 0 on, final point
    included, all finite: the floats of the whole run, where an Euler run
    resumes from its p at ``start`` found binade by binade."""
    if start < 0:
        raise ValueError("start must be nonnegative")
    n, final = _time_grid(cfg.t_max, cfg.dt)
    drift = physical_drift(cfg).dp
    p0, dt, t_max, step = cfg.p0, cfg.dt, cfg.t_max, drift * cfg.dt
    if cfg.integrator == "exact":
        for k in range(start, n + 1):
            t = k * dt
            yield t, p0 + drift * t  # evolve_exact, without a point per row
        end = p0 + drift * t_max
    elif start <= n + final:  # not past the last sample
        p = _euler_steps(p0, step, min(start, n))
        for k, p in zip(range(start, n + 1), accumulate(repeat(step), initial=p)):
            yield k * dt, p
        end = p + drift * (t_max - n * dt)  # a partial last step from p at n*dt
    if final and start <= n + 1:
        yield t_max, end


def _euler_steps(p: float, s: float, k: int) -> float:
    """p after k rounded steps p = p + s, the same float, in O(binades) passes.

    In a binade of ulp u each step adds one multiple r of u (at a tie with an
    odd r/u the steps alternate), so a q whose next two steps add r strides to
    the binade's edge: 2**53 - 1 ulps out, -(2**52) - 1 in, or -1 where one
    ulp holds down to zero."""
    while k:
        q, k = p + s, k - 1
        if q == p or math.isinf(q):  # p stays put from here on
            return q
        u, r = math.ulp(q), (q + s) - q
        if r and (q + r + s) - (q + r) == r:  # false for an infinite r
            a = q / u if s > 0 else -q / u  # q in ulps, signed along the steps
            edge = 2**53 - 1 if a >= 0 else -1 if u == math.ulp(0.0) else -2**52 - 1
            j = min(k, int((edge - a) // abs(r / u)))
            if j > 0:
                q, k = q + j * r, k - j
        p = q
    return p


def simulate(cfg: SimulationConfig) -> list[tuple[float, float]]:
    """The (t, p) rows of the whole run as a list: list(sample_rows(cfg))."""
    return list(sample_rows(cfg))
