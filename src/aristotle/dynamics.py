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

from __future__ import annotations

import math
from collections.abc import Iterator

from .orbit import OrbitContext, OrbitPoint, OrbitTangent
from .record import Record

INTEGRATORS = ("exact", "symplectic_euler")


class SimulationConfig(Record):
    """Trajectory request: orbit parameters, initial point, grid, integrator.

    Building one checks its whole run: ValueError is raised when m*g, the
    sample count, any p or H would not be finite, so every sample is finite.
    """

    def __init__(self, m: float, g: float, p0: float, q0: float, t_max: float,
                 dt: float, integrator: str = "exact") -> None:
        for name, value in (("m", m), ("g", g), ("p0", p0), ("q0", q0),
                            ("t_max", t_max), ("dt", dt)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite configuration value {name}")
        if m == 0.0 or g == 0.0:
            raise ValueError("m and g must be nonzero")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if t_max < 0.0:
            raise ValueError("t_max must be nonnegative")
        if t_max > 0.0 and dt > t_max:
            raise ValueError("dt must not exceed t_max")
        if integrator not in INTEGRATORS:
            raise ValueError(
                f"unknown integrator {integrator!r}; expected one of {INTEGRATORS}"
            )
        OrbitContext(m, g)  # m*g is checked before the sample count
        n, final = _time_grid(t_max, dt)
        self.__dict__.update(m=m, g=g, p0=p0, q0=q0, t_max=t_max, dt=dt,
                             integrator=integrator)
        # Rounding is monotone, so exact p runs monotonically from the first sample,
        # p0, to the last: when both are finite, so is every p between them.  An
        # Euler p is a running sum with no closed form.  With s = m*g*dt, a step
        # moves |p| by at most 3|s| while |p| <= 2**54*|s|, past that p + s rounds
        # back to p when the two share a sign, and toward zero |p| cannot grow past
        # max(|p0|, |s|).  So |p| stays below both max(|p0|, 2**55*|s|) and
        # |p0| + 3*n*|s|, and every Euler p, the final partial step included, is
        # finite when either bound is; only when both overflow is the run summed.
        mg = m * g
        s = abs(mg * dt)
        bound = 2 * (min(max(abs(p0), 2**55 * s), abs(p0) + 3 * s * n)
                     + abs(mg * (t_max - n * dt)))
        if integrator == "exact" or not math.isfinite(bound):
            for _, p in sample_rows(self, 1, n + final):
                OrbitPoint(p, q0)
        if not math.isfinite(self.energy):
            raise ValueError("non-finite energy H = m*g*q0")

    @property
    def energy(self) -> float:
        """H = m*g*q0, the same on every sample (q stays q0)."""
        return hamiltonian(OrbitContext(self.m, self.g), OrbitPoint(self.p0, self.q0))


class TrajectorySample(Record):
    """One trajectory record; H is m*g*q for the producing configuration."""

    def __init__(self, t: float, p: float, q: float, H: float) -> None:
        self.__dict__.update(t=t, p=p, q=q, H=H)


def hamiltonian(ctx: OrbitContext, pt: OrbitPoint) -> float:
    """Full Hamiltonian m*g*q: gravitational potential energy, no kinetic term."""
    return ctx.m * ctx.g * pt.q


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


def sample_rows(cfg: SimulationConfig, block: int = 0, first: int = 0,
                every: int = 1) -> Iterator[tuple[float, float]]:
    """(t, p) of the samples of cfg, final point included, all finite; given
    a ``block`` size, only blocks first, first + every, ... of that many
    samples.  The Euler sum steps over the samples skipped, so each p is the
    same float as in the whole run."""
    n, final = _time_grid(cfg.t_max, cfg.dt)
    drift = physical_drift(OrbitContext(cfg.m, cfg.g)).dp
    p0, dt, t_max, block = cfg.p0, cfg.dt, cfg.t_max, block or n + 2
    p, at, step = p0, 0, drift * dt  # Euler: p is the running sum at grid point `at`
    for start in range(first * block, n + 1 + final, every * block):
        stop = min(start + block, n + 1)  # the grid points of this block end here
        if cfg.integrator == "exact":
            for k in range(start, stop):
                t = k * dt
                yield t, p0 + drift * t  # evolve_exact, without a point per row
            end = p0 + drift * t_max
        else:
            for _ in range(at, min(start, n)):
                p = p + step
            for k in range(start, min(stop, n)):
                yield k * dt, p
                p = p + step
            at = min(stop, n)
            if start <= n < stop:
                yield n * dt, p
            end = p + drift * (t_max - n * dt)  # a partial step for the rest of the grid
        if final and start + block > n + 1:
            yield t_max, end


def simulate(cfg: SimulationConfig) -> list[TrajectorySample]:
    """Sample the trajectory on the configured grid, final point included,
    as a list."""
    energy = cfg.energy
    return [TrajectorySample(t, p, cfg.q0, energy) for t, p in sample_rows(cfg)]
