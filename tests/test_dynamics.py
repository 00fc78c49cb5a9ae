"""Trajectory sampling, the time grid and the Euler run, and the refusal of an
unknown generator.  The exact model (test_model.py) pins the Hamiltonian, the
exact flow, the generators and the drift."""

import math
import random
import select
import subprocess
import time
from itertools import islice

import pytest

from aristotle.dynamics import (
    SimulationConfig,
    _euler_steps,
    _time_grid,
    generator_left,
    sample_count,
    sample_rows,
    simulate,
)
from aristotle.orbit import OrbitContext, OrbitPoint
from conftest import GRID_VALUES, deadline


class TestGenerators:
    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            generator_left(OrbitContext(5.0, 2.0), "M")


class TestTrajectory:
    @pytest.mark.parametrize("integrator", ["exact", "symplectic_euler"])
    def test_is_the_list_of_sample_rows(self, integrator):
        cfg = SimulationConfig(m=1.7, g=-9.81, p0=-3.25, q0=0.5, t_max=3.42, dt=0.3,
                               integrator=integrator)
        assert repr(simulate(cfg)) == repr(list(sample_rows(cfg)))

    def test_exact_rows_are_lazy(self):
        # 1e12 samples: only the rows taken are ever computed.
        cfg = SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=1e3, dt=1e-9)
        assert cfg.energy == 30.0
        assert list(islice(sample_rows(cfg), 3)) == [(0.0, 1.0), (1e-9, 1.0 + 6.0 * 1e-9),
                                                     (2e-9, 1.0 + 6.0 * 2e-9)]

    @pytest.mark.parametrize("integrator", ["exact", "symplectic_euler"])
    def test_blocks_share_out_the_whole_run(self, integrator):
        # Whole and fractional horizons of 0-11 steps, read from every sample
        # index and from one past the last: a read may hold only the final
        # sample, or nothing.  Each is the tail of the whole run bit for bit,
        # sign of zero and Euler's running sum included.
        for steps in range(12):
            for extra in (0.0, 0.4):
                t_max = (steps + extra) * 0.3 if steps else 0.0
                cfg = SimulationConfig(m=1.7, g=-9.81, p0=-3.25, q0=0.5, t_max=t_max,
                                       dt=0.3, integrator=integrator)
                whole = list(sample_rows(cfg))
                assert len(whole) == sample_count(cfg)
                for start in range(len(whole) + 1):
                    assert repr(list(sample_rows(cfg, start))) == repr(whole[start:])

    @pytest.mark.parametrize("integrator", ["exact", "symplectic_euler"])
    def test_negative_start_is_refused_at_once(self, integrator):
        # Not the rows at t = -0.5 and -0.25, which precede the run, nor a
        # count of Euler steps down from -2 that never reaches 0.
        cfg = SimulationConfig(m=1.0, g=2.0, p0=0.5, q0=1.0, t_max=1.0, dt=0.25,
                               integrator=integrator)
        with deadline(10), pytest.raises(ValueError, match="^start must be nonnegative$"):
            list(sample_rows(cfg, -2))


# Grids of about 3.6e23 and 8.1e29 steps on which floor(t_max/dt)*dt
# overshoots t_max; n*dt then stays the same float over many steps of n.
HUGE_GRIDS = [((1.4352975688775189e+231, 4.0021897092912223e+207),
               (358628069415456673366016, True)),
              ((4.694264214818541e+150, 5.770113319301335e+120),
               (813548011113746811495240433664, True))]


def _stepped_time_grid(t_max, dt):
    """The grid clamp as one step down at a time: the reference for _time_grid."""
    n = math.floor(t_max / dt)
    while n > 0 and n * dt > t_max:
        n -= 1
    return n, n * dt < t_max


class TestTimeGrid:
    def test_huge_grids_are_clamped_at_once(self):
        with deadline(10):
            clamped = [_time_grid(*grid) for grid, _ in HUGE_GRIDS]
        assert clamped == [expected for _, expected in HUGE_GRIDS]
        for (t_max, dt), (n, _) in HUGE_GRIDS:
            assert n * dt <= t_max < (n + 1) * dt

    def test_clamp_matches_stepping_down(self):
        # Up to 2**62 steps; t_max at a grid point, a few ulps below one
        # (where floor(t_max/dt) overshoots), or one ulp above.
        rng = random.Random(6)
        overshoots = 0
        for _ in range(20000):
            k = rng.randrange(1, 2 ** rng.randrange(1, 63))
            dt = 10.0 ** rng.uniform(-300, 299 - math.log10(k))
            t_max = k * dt
            if rng.random() < 0.6:
                for _ in range(rng.randrange(1, 5)):
                    t_max = math.nextafter(t_max, 0.0)
            elif rng.random() < 0.5:
                t_max = math.nextafter(t_max, math.inf)
            expected = _stepped_time_grid(t_max, dt)
            assert _time_grid(t_max, dt) == expected
            overshoots += expected[0] < math.floor(t_max / dt) - 1
        assert overshoots > 20  # cases where the old loop stepped down more than once


def _summed_check(m, g, p0, q0, t_max, dt):
    """The refusal message of an Euler config that passes the field rules, or
    None, found by summing its whole run: the reference for the run check
    in SimulationConfig."""
    try:
        OrbitContext(m, g)
        n, final = _time_grid(t_max, dt)
        p, step = p0, m * g * dt
        for _ in range(n):
            p = p + step
        OrbitPoint(p + m * g * (t_max - n * dt) if final else p, q0)
        if not math.isfinite(m * g * q0):
            raise ValueError("non-finite energy H = m*g*q")
    except ValueError as err:
        return str(err)
    return None


def _extreme_euler_configs(rng, count):
    """Euler configs of up to 4095 steps with magnitudes 10**+-300: half of
    them with p0 and s = m*g*dt drawn at random, half with |s| within 2**-60
    and 2**-1 of the largest double and |p0| up to 2**60 |s|, where a run can
    just overflow."""
    big = 2.0 ** 1023

    def sign():
        return rng.choice((-1.0, 1.0))

    for i in range(count):
        dt = 10.0 ** rng.uniform(-300, 300)
        g = sign() * 10.0 ** rng.uniform(-300, 300)
        if i % 2:
            mg, p0 = sign() * 10.0 ** rng.uniform(-300, 300), sign() * 10.0 ** rng.uniform(-300, 308)
        else:
            mg = sign() * big * 2.0 ** rng.uniform(-60, -1) / dt
            p0 = sign() * abs(mg * dt) * 2.0 ** rng.uniform(0, 60)
        m = mg / g
        t_max = dt * (rng.randrange(1, 2 ** rng.randrange(1, 13)) + rng.choice((0.0, rng.random())))
        values = dict(m=m, g=g, p0=p0, q0=sign() * 10.0 ** rng.uniform(-300, 308),
                      t_max=t_max, dt=dt)
        if all(map(math.isfinite, values.values())) and m != 0.0:
            yield values


class TestEulerRunDecisions:
    def test_decisions_match_the_summed_run(self):
        rng = random.Random(7)
        refused = accepted = 0
        for values in _extreme_euler_configs(rng, 6000):
            try:
                cfg = SimulationConfig(**values, integrator="symplectic_euler")
                decision = None
            except ValueError as err:
                decision = str(err)
            assert decision == _summed_check(**values), values
            if decision is None:
                accepted += 1
                assert all(math.isfinite(p) for _, p in sample_rows(cfg)), values
            refused += decision == "non-finite chart coordinate"
        assert accepted > 1000 and refused > 100


def _euler_step_inputs(rng, count):
    """(p, s) pairs where rounded steps p = p + s are delicate: ties, binade
    edges, subnormals and signed zeros, runs across zero, runs that stop
    moving, and the overflow threshold."""
    big = 1.7976931348623157e308

    def sign():
        return rng.choice((-1.0, 1.0))

    for i in range(count):
        kind = i % 6
        if kind == 0:  # a tie: s an odd multiple of half an ulp of p's binade
            p = sign() * 2.0 ** rng.uniform(-1073, 1023)
            s = sign() * rng.randrange(1, 16, 2) * math.ulp(p) / 2
        elif kind == 1:  # p a few ulps to either side of a binade edge
            p = sign() * 2.0 ** rng.randrange(-1073, 1023)
            toward = rng.choice((0.0, 2 * p))
            for _ in range(rng.randrange(1, 6)):
                p = math.nextafter(p, toward)
            s = sign() * math.ulp(p) * rng.choice((0.5, 1.0, 1.5, 3.0, 8 * rng.random()))
        elif kind == 2:  # subnormal p and s, either of them possibly +-0
            p = sign() * 5e-324 * rng.randrange(2 ** rng.randrange(1, 53))
            s = sign() * 5e-324 * rng.randrange(2 ** rng.randrange(1, 20))
        elif kind == 3:  # from p = -j*s (+-0 for j = 0) across zero
            s = sign() * 10.0 ** rng.uniform(-323, 300)
            p = -s * rng.randrange(3000) * rng.choice((1.0, rng.random()))
        elif kind == 4:  # near the largest double: |s| >= 2**970, s = +-inf, or p stops
            p = sign() * big * rng.uniform(0.5, 1.0)
            s = rng.choice((sign() * 2.0 ** rng.uniform(970, 1023), sign() * math.inf,
                            sign() * math.ulp(p) * 3 * rng.random()))
        else:  # |s| from 2**-60 to 8 times |p|
            p = sign() * 10.0 ** rng.uniform(-323, 308)
            s = sign() * abs(p) * 2.0 ** rng.uniform(-60, 3)
        yield p, s


class TestEulerSteps:
    def test_matches_the_sequential_sum(self):
        # Runs of up to 1e5 steps, summed one step at a time and compared bit
        # for bit, sign of zero included, at every k below 64 and at 16 more.
        rng = random.Random(9)
        for p0, s in _euler_step_inputs(rng, 3000):
            k_max = min(10**5, rng.randrange(1, 2 ** rng.randrange(1, 18)))
            checks = {*range(64), *(rng.randrange(k_max + 1) for _ in range(16)), k_max}
            p = p0
            for k in range(k_max + 1):
                if k in checks:
                    assert repr(_euler_steps(p0, s, k)) == repr(p), (p0, s, k)
                p = p + s

    def test_huge_step_counts_return_at_once(self):
        # 10**18 steps each, (p, s, the float they reach): one step at a time,
        # each would take years.  The first two cross the subnormals, where one
        # ulp holds down to zero; the last crosses every binade twice.
        cases = [(-2.0 ** -1023, 5e-324, 2.0 ** -1021), (5e-324, -5e-324, -2.0 ** -1021),
                 (1.0, 1.0, 2.0 ** 53), (-1e10, 3.0, 2.0 ** 55), (-0.0, -0.3, -2.0 ** 52),
                 (0.0, 1e292, math.inf), (-1.7976931348623157e308, 1e292, math.inf)]
        with deadline(10):
            for p, s, reached in cases:
                start = time.perf_counter()
                assert _euler_steps(p, s, 10**18) == reached, (p, s)
                assert time.perf_counter() - start < 0.1, (p, s)


class TestRunCheck:
    def test_grid_of_extreme_configs_is_decided_at_once(self):
        # Every config is built for both integrators within 60 s, and an Euler
        # decision of at most 2**16 steps is that of the summed run.
        rng = random.Random(10)
        grid = [tuple(rng.choice(GRID_VALUES) for _ in range(6)) for _ in range(4000)]

        def decide(values, integrator):
            try:
                SimulationConfig(*values, integrator=integrator)
            except ValueError as err:
                return str(err)

        with deadline(60):
            decisions = {integrator: [decide(values, integrator) for values in grid]
                         for integrator in ("exact", "symplectic_euler")}
        compared = []
        for (m, g, p0, q0, t_max, dt), decision in zip(grid, decisions["symplectic_euler"]):
            if m and g and 0 < dt and 0 <= t_max and not 0 < t_max < dt and t_max / dt <= 2**16:
                assert decision == _summed_check(m, g, p0, q0, t_max, dt), (m, g, p0, q0, t_max, dt)
                compared.append(decision)
        assert compared.count(None) > 50 and compared.count("non-finite chart coordinate") > 10


def _cli_head(cli_command, argv):
    """The first two complete stdout lines of `aristotle simulate`, its exit
    code and stderr: the lines must come within 10 s, and the CLI must then
    end within 10 s, after its reader stops as `| head -2` does."""
    with subprocess.Popen(cli_command(["simulate", *argv.split()], 2), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        head = b""
        while (head.count(b"\n") < 2 and select.select([proc.stdout], [], [], 10)[0]
               and (chunk := proc.stdout.read1(4096))):
            head += chunk
        proc.stdout.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        return head.split(b"\n")[:-1][:2], proc.returncode, proc.stderr.read()


ORIGIN = ([b"t,p,q,H", b"0,0,0,0"], 0, b"")
REFUSED_RUN = ([], 2, b"error: non-finite chart coordinate\n")
# Runs far too long to step through, each written from its first row or
# refused at once: id -> (integrator, simulate flags, what _cli_head reads).
HUGE_RUNS = {
    "exact-huge-grid": ("exact", "--mass 1 --g 1 --p0 0 --q0 0 --t-max %r --dt %r"
                        % HUGE_GRIDS[1][0], ORIGIN),
    # 1e30 Euler steps: none may be summed before the first row is written.
    "euler-1e30": ("symplectic_euler", "--mass 1 --g 1 --p0 0 --q0 0 --t-max 1e30 --dt 1", ORIGIN),
    # 1e15 steps of 1e292 end near 1e307, strided binade by binade, never one at a time.
    "euler-1e15-huge": ("symplectic_euler", "--mass 1e151 --g 1e151 --p0 0 --q0 0 --t-max 1e5"
                        " --dt 1e-10", ORIGIN),
    # 1e30 steps of 1 from 1e308: p never moves.
    "euler-stuck": ("symplectic_euler", "--mass 1 --g 1 --p0 1e308 --q0 0 --t-max 1e30 --dt 1",
                    ([b"t,p,q,H", b"0,1e+308,0,0"], 0, b"")),
    # 1e16 steps of 1e292 end near 1.1e308, and 2e16 of them overflow.
    "euler-1e16-huge": ("symplectic_euler", "--mass 1e151 --g 1e151 --p0 0 --q0 0 --t-max 1e6"
                        " --dt 1e-10", ORIGIN),
    "euler-2e16-huge": ("symplectic_euler", "--mass 1e151 --g 1e151 --p0 0 --q0 0 --t-max 2e6"
                        " --dt 1e-10", REFUSED_RUN),
    # m*g*dt overflows.
    "euler-step-overflows": ("symplectic_euler", "--mass 1e160 --g 1 --p0 0 --q0 0 --t-max 1e300"
                             " --dt 1e154", REFUSED_RUN),
}


@pytest.mark.parametrize("integrator, flags, expected", HUGE_RUNS.values(), ids=list(HUGE_RUNS))
def test_huge_run_is_decided_at_once(cli_command, integrator, flags, expected):
    assert _cli_head(cli_command, f"{flags} --integrator {integrator}") == expected
