"""Trajectory sampling, the time grid and the Euler run, and the refusal of an
unknown generator.  The exact model (test_model.py) pins the Hamiltonian, the
exact flow, the generators and the drift."""

import ast
import math
import random
import select
import subprocess
import sys
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

    def test_negative_start_is_refused(self):
        # Not the rows at t = -0.5 and -0.25, which precede the run.
        cfg = SimulationConfig(m=1.0, g=2.0, p0=0.5, q0=1.0, t_max=1.0, dt=0.25)
        with pytest.raises(ValueError, match="^start must be nonnegative$"):
            list(sample_rows(cfg, -2))

    def test_negative_euler_start_is_refused_at_once(self):
        # Not a count of steps down from -2 that never reaches 0.
        code = ("from aristotle.dynamics import SimulationConfig, sample_rows\n"
                "cfg = SimulationConfig(1.0, 2.0, 0.5, 1.0, 1.0, 0.25, 'symplectic_euler')\n"
                "try:\n"
                "    list(sample_rows(cfg, -2))\n"
                "except ValueError as err:\n"
                "    print(err)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=10)
        assert (proc.stdout, proc.stderr) == ("start must be nonnegative\n", "")


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


def _cli_head(cli_command, argv):
    """The first two complete stdout lines of the CLI, its exit code and
    stderr: the lines must come within 10 s, and the CLI must then end within
    10 s, after its reader stops as `| head -2` does."""
    with subprocess.Popen(cli_command(argv, 2), stdout=subprocess.PIPE,
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


def _assert_streams_at_once(cli_command, t_max, dt, integrator, mass=1.0, g=1.0):
    """The CLI writes the first rows of a run from the origin within 10 s, and
    ends quietly when its reader stops early, as `| head` does."""
    argv = ["simulate", "--mass", repr(mass), "--g", repr(g), "--p0", "0", "--q0", "0",
            "--t-max", repr(t_max), "--dt", repr(dt), "--integrator", integrator]
    assert _cli_head(cli_command, argv) == ([b"t,p,q,H", b"0,0,0,0"], 0, b"")


class TestTimeGrid:
    def test_huge_grids_are_clamped_at_once(self):
        code = ("from aristotle.dynamics import _time_grid\n"
                f"print([_time_grid(*grid) for grid, _ in {HUGE_GRIDS!r}])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=10)
        assert proc.stdout == f"{[expected for _, expected in HUGE_GRIDS]}\n"
        for (t_max, dt), (n, _) in HUGE_GRIDS:
            assert n * dt <= t_max < (n + 1) * dt

    def test_huge_grid_streams_at_once(self, cli_command):
        (t_max, dt), _ = HUGE_GRIDS[1]
        _assert_streams_at_once(cli_command, t_max, dt, "exact")

    def test_huge_euler_run_streams_at_once(self, cli_command):
        # 1e30 Euler steps: none may be summed before the first row is written.
        _assert_streams_at_once(cli_command, 1e30, 1.0, "symplectic_euler")

    def test_huge_euler_run_of_huge_steps_streams_at_once(self, cli_command):
        # 1e15 steps of 1e292 end near 1e307: the run check strides over them
        # binade by binade and never sums them one at a time.
        _assert_streams_at_once(cli_command, 1e5, 1e-10, "symplectic_euler", 1e151, 1e151)

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
        code = ("import time\nfrom aristotle.dynamics import _euler_steps\n"
                f"for p, s in {[(p.hex(), s.hex()) for p, s, _ in cases]!r}:\n"
                "    start = time.perf_counter()\n"
                "    p = _euler_steps(float.fromhex(p), float.fromhex(s), 10**18)\n"
                "    print(p.hex(), time.perf_counter() - start)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=10)
        lines = [line.split() for line in proc.stdout.splitlines()]
        assert [float.fromhex(p) for p, _ in lines] == [p for _, _, p in cases]
        assert max(float(seconds) for _, seconds in lines) < 0.1


GRID_VALUES = (0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-160, 1e-10, 0.5,
               1.0, -1.0, 3.0, 1e10, 1e154, 1e160, 1e290, 1e300, 8e307,
               1.7976931348623157e308, -1.7976931348623157e308)


class TestRunCheck:
    def test_grid_of_extreme_configs_is_decided_at_once(self):
        # Every config is built for both integrators within 60 s, and an Euler
        # decision of at most 2**16 steps is that of the summed run.
        rng = random.Random(10)
        grid = [tuple(rng.choice(GRID_VALUES) for _ in range(6)) for _ in range(4000)]
        code = ("import ast, sys\nfrom aristotle.dynamics import SimulationConfig\n"
                "def decide(values, integrator):\n"
                "    try:\n"
                "        SimulationConfig(*values, integrator=integrator)\n"
                "    except ValueError as err:\n"
                "        return str(err)\n"
                "grid = ast.literal_eval(sys.stdin.read())\n"
                "print([[decide(values, integrator) for values in grid]\n"
                "       for integrator in ('exact', 'symplectic_euler')])\n")
        proc = subprocess.run([sys.executable, "-c", code], input=repr(grid),
                              capture_output=True, text=True, timeout=60)
        exact, euler = ast.literal_eval(proc.stdout)
        assert len(exact) == len(euler) == len(grid)
        compared = []
        for (m, g, p0, q0, t_max, dt), decision in zip(grid, euler):
            if m and g and 0 < dt and 0 <= t_max and not 0 < t_max < dt and t_max / dt <= 2**16:
                assert decision == _summed_check(m, g, p0, q0, t_max, dt), (m, g, p0, q0, t_max, dt)
                compared.append(decision)
        assert compared.count(None) > 50 and compared.count("non-finite chart coordinate") > 10

    @pytest.mark.parametrize("argv, head, code, err", [
        # 1e30 steps of 1 from 1e308: p never moves.
        ("--mass 1 --g 1 --p0 1e308 --q0 0 --t-max 1e30 --dt 1",
         [b"t,p,q,H", b"0,1e+308,0,0"], 0, b""),
        # 1e16 steps of 1e292 end near 1.1e308, and 2e16 of them overflow.
        ("--mass 1e151 --g 1e151 --p0 0 --q0 0 --t-max 1e6 --dt 1e-10",
         [b"t,p,q,H", b"0,0,0,0"], 0, b""),
        ("--mass 1e151 --g 1e151 --p0 0 --q0 0 --t-max 2e6 --dt 1e-10",
         [], 2, b"error: non-finite chart coordinate\n"),
        # m*g*dt overflows.
        ("--mass 1e160 --g 1 --p0 0 --q0 0 --t-max 1e300 --dt 1e154",
         [], 2, b"error: non-finite chart coordinate\n"),
    ])
    def test_huge_euler_runs_are_decided_at_once(self, cli_command, argv, head, code, err):
        argv = ["simulate", *argv.split(), "--integrator", "symplectic_euler"]
        assert _cli_head(cli_command, argv) == (head, code, err)
