"""Exact flow, generators, trajectory sampling, and energy bookkeeping."""

import math
import random
import select
import subprocess
import sys
from itertools import islice

import pytest

from aristotle.dynamics import (
    SimulationConfig,
    TrajectorySample,
    _time_grid,
    evolve_exact,
    generator_left,
    hamiltonian,
    physical_drift,
    sample_count,
    sample_rows,
    simulate,
)
from aristotle.orbit import (
    AffineObservable,
    OrbitContext,
    OrbitPoint,
    OrbitTangent,
    poisson_bracket,
)


class TestHamiltonian:
    def test_worked_value(self):
        assert hamiltonian(OrbitContext(2.0, 3.0), OrbitPoint(0.0, 5.0)) == 30.0

    def test_zero_at_origin(self):
        assert hamiltonian(OrbitContext(2.0, 3.0), OrbitPoint(7.0, 0.0)) == 0.0

    def test_no_kinetic_term(self):
        ctx = OrbitContext(2.0, 3.0)
        assert hamiltonian(ctx, OrbitPoint(0.0, 5.0)) == hamiltonian(ctx, OrbitPoint(100.0, 5.0)) == 30.0


class TestExactFlow:
    def test_worked_point(self):
        ctx = OrbitContext(2.0, 3.0)
        assert evolve_exact(ctx, OrbitPoint(1.0, 5.0), 4.0) == OrbitPoint(25.0, 5.0)

    def test_zero_time(self):
        ctx = OrbitContext(2.0, 3.0)
        pt = OrbitPoint(1.0, 5.0)
        assert evolve_exact(ctx, pt, 0.0) == pt

    def test_flow_additivity(self):
        ctx = OrbitContext(2.0, 3.0)
        pt = OrbitPoint(1.0, 5.0)
        assert evolve_exact(ctx, evolve_exact(ctx, pt, 1.0), 3.0) == evolve_exact(ctx, pt, 4.0)


class TestGenerators:
    def test_time_generator(self):
        assert generator_left(OrbitContext(5.0, 2.0), "E") == OrbitTangent(-10.0, 0.0)

    def test_space_generator(self):
        assert generator_left(OrbitContext(5.0, 2.0), "P") == OrbitTangent(0.0, -1.0)

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            generator_left(OrbitContext(5.0, 2.0), "M")

    def test_physical_drift_worked(self):
        assert physical_drift(OrbitContext(2.0, 3.0)) == OrbitTangent(6.0, 0.0)

    def test_drift_is_minus_left_generator(self):
        rng = random.Random(20)
        for _ in range(100):
            m = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 10)
            ctx = OrbitContext(m, rng.choice([1.0, -1.0, 2.0, -2.0, 9.81]))
            drift = physical_drift(ctx)
            gen = generator_left(ctx, "E")
            assert drift.dp == -gen.dp
            assert drift.dq == -gen.dq == 0.0

    def test_drift_flips_with_gravity(self):
        assert physical_drift(OrbitContext(2.0, -3.0)).dp == -physical_drift(OrbitContext(2.0, 3.0)).dp

    def test_finite_difference_of_left_flow(self):
        from aristotle.group import BaseElement
        from aristotle.orbit import canonical_act

        ctx = OrbitContext(5.0, 2.0)
        pt = OrbitPoint(1.0, 2.0)
        s = 1e-6
        moved = canonical_act(ctx, BaseElement(-s, 0.0), pt)
        forward = ((moved.p - pt.p) / s, (moved.q - pt.q) / s)
        assert forward[0] == pytest.approx(-10.0, abs=1e-5)
        assert forward[1] == pytest.approx(0.0, abs=1e-5)

    def test_hamiltons_equations_via_bracket(self):
        ctx = OrbitContext(5.0, 2.0)
        h_obs = AffineObservable(0.0, ctx.m * ctx.g, 0.0)
        dp_dt = poisson_bracket(AffineObservable(1.0, 0.0, 0.0), h_obs).c
        dq_dt = poisson_bracket(AffineObservable(0.0, 1.0, 0.0), h_obs).c
        drift = physical_drift(ctx)
        assert dp_dt == drift.dp == 10.0
        assert dq_dt == drift.dq == 0.0


class TestSimulate:
    def test_worked_trajectory(self):
        cfg = SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=4.0, dt=0.5)
        samples = simulate(cfg)
        assert len(samples) == 9
        assert samples[0] == TrajectorySample(0.0, 1.0, 5.0, 30.0)
        assert samples[-1] == TrajectorySample(4.0, 25.0, 5.0, 30.0)

    def test_euler_matches_exact_here(self):
        # Constant drift: first-order stepping telescopes to the closed form.
        base = dict(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=4.0, dt=0.5)
        exact = simulate(SimulationConfig(**base, integrator="exact"))
        euler = simulate(SimulationConfig(**base, integrator="symplectic_euler"))
        assert len(exact) == len(euler)
        for se, sy in zip(exact, euler):
            assert se.t == sy.t
            assert abs(se.p - sy.p) <= 1e-9
            assert se.q == sy.q
            assert abs(se.H - sy.H) <= 1e-9

    def test_zero_horizon(self):
        cfg = SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=0.0, dt=0.5)
        assert simulate(cfg) == [TrajectorySample(0.0, 1.0, 5.0, 30.0)]

    def test_fractional_horizon_appends_exact_final_sample(self):
        cfg = SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=1.0, dt=0.3)
        samples = simulate(cfg)
        # floor(1.0/0.3) = 3 grid points after zero, plus the appended final.
        assert len(samples) == 5
        assert samples[-1].t == 1.0
        assert samples[-1].p == pytest.approx(7.0, abs=1e-12)
        euler = simulate(SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=1.0,
                                          dt=0.3, integrator="symplectic_euler"))
        assert euler[-1].t == 1.0
        assert euler[-1].p == pytest.approx(7.0, abs=1e-12)

    def test_position_and_energy_frozen(self):
        rng = random.Random(21)
        for integrator in ("exact", "symplectic_euler"):
            for _ in range(50):
                dt = rng.uniform(0.01, 0.5)
                cfg = SimulationConfig(
                    m=rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 10),
                    g=rng.choice([1.0, -1.0, 2.0, -2.0, 9.81]),
                    p0=rng.uniform(-10, 10),
                    q0=rng.uniform(-10, 10),
                    t_max=dt * rng.uniform(1, 40),
                    dt=dt,
                    integrator=integrator,
                )
                samples = simulate(cfg)
                assert all(s.q == cfg.q0 for s in samples)
                # H evaluated at each sampled (p, q), not the H field the sampler copies.
                ctx = OrbitContext(cfg.m, cfg.g)
                energies = [hamiltonian(ctx, OrbitPoint(s.p, s.q)) for s in samples]
                assert all(h == energies[0] for h in energies)

    def test_momentum_linear_in_time(self):
        cfg = SimulationConfig(m=5.0, g=9.81, p0=-2.0, q0=1.0, t_max=10.0, dt=0.25)
        for s in simulate(cfg):
            assert s.p - cfg.p0 == pytest.approx(cfg.m * cfg.g * s.t, abs=1e-12, rel=1e-12)


class TestTrajectory:
    def test_exact_rows_are_lazy(self):
        # 1e12 samples: only the rows taken are ever computed.
        cfg = SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=1e3, dt=1e-9)
        assert cfg.energy == 30.0
        assert list(islice(sample_rows(cfg), 3)) == [(0.0, 1.0), (1e-9, 1.0 + 6.0 * 1e-9),
                                                     (2e-9, 1.0 + 6.0 * 2e-9)]

    @pytest.mark.parametrize("integrator", ["exact", "symplectic_euler"])
    def test_blocks_share_out_the_whole_run(self, integrator):
        # Whole and fractional horizons of 0-11 steps, cut into blocks of 1-4
        # samples dealt to 1-4 callers: a block may hold only the final sample,
        # and a caller may get none.  Interleaved, the blocks are the whole run
        # bit for bit, Euler's running sum included.
        for steps in range(12):
            for extra in (0.0, 0.4):
                t_max = (steps + extra) * 0.3 if steps else 0.0
                cfg = SimulationConfig(m=1.7, g=-9.81, p0=-3.25, q0=0.5, t_max=t_max,
                                       dt=0.3, integrator=integrator)
                whole = list(sample_rows(cfg))
                assert len(whole) == sample_count(cfg)
                for block in range(1, 5):
                    for every in range(1, 5):
                        dealt = [list(sample_rows(cfg, block, first, every))
                                 for first in range(every)]
                        joined = [row for i in range(0, len(whole), block)
                                  for row in dealt[i // block % every][
                                      i // block // every * block:][:block]]
                        assert joined == whole
                        assert sum(map(len, dealt)) == len(whole)

    @pytest.mark.parametrize("integrator", ["exact", "symplectic_euler"])
    def test_non_finite_samples_rejected_up_front(self, integrator):
        overflow_p = dict(m=10.0, g=9.81, p0=1.0, q0=5.0, t_max=1e308, dt=1e307)
        overflow_h = dict(m=1e200, g=1e100, p0=1.0, q0=1e10, t_max=0.0, dt=1.0)
        too_many = dict(m=1.0, g=1.0, p0=1.0, q0=1.0, t_max=1e10, dt=1e-300)
        for base in (overflow_p, overflow_h, too_many):
            with pytest.raises(ValueError):
                SimulationConfig(**base, integrator=integrator)


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


def _assert_streams_at_once(cli_command, t_max, dt, integrator, mass=1.0, g=1.0):
    """The CLI writes the first rows of a run from the origin within 10 s, and
    ends quietly when its reader stops early, as `| head` does."""
    argv = ["simulate", "--mass", repr(mass), "--g", repr(g), "--p0", "0", "--q0", "0",
            "--t-max", repr(t_max), "--dt", repr(dt), "--integrator", integrator]
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
        err = proc.stderr.read()
    assert head.startswith(b"t,p,q,H\n0,0,0,0\n")
    assert (proc.returncode, err) == (0, b"")


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
        # 1e15 steps of 1e292: 2**55 steps overflow, but 3 * 1e15 steps do not.
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
    None, found by summing its whole run: the reference for the step bound
    in SimulationConfig."""
    try:
        OrbitContext(m, g)
        n, final = _time_grid(t_max, dt)
        p, step = p0, m * g * dt
        for _ in range(n):
            p = p + step
        OrbitPoint(p + m * g * (t_max - n * dt) if final else p, q0)
        if not math.isfinite(m * g * q0):
            raise ValueError("non-finite energy H = m*g*q0")
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


class TestEulerStepBound:
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


class TestConfigValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SimulationConfig(m=float("nan"), g=3.0, p0=1.0, q0=5.0, t_max=4.0, dt=0.5)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            SimulationConfig(m=0.0, g=3.0, p0=1.0, q0=5.0, t_max=4.0, dt=0.5)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=4.0, dt=-1.0)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=-4.0, dt=0.5)

    def test_rejects_step_beyond_horizon(self):
        with pytest.raises(ValueError):
            SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=0.25, dt=0.5)

    def test_rejects_unknown_integrator(self):
        with pytest.raises(ValueError):
            SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=4.0, dt=0.5, integrator="rk4")

