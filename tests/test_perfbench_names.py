"""The benchmark in `perfbench/` drives the package through names it looks up
at run time: `cli.verify`, `cli.dynamics`, the `cli.cmd_*` handlers and
`dynamics.simulate`, among others.  This runs its per-layer code on small
inputs, so renaming or removing one of those names fails here rather than
in a benchmark run."""

import random
import types
from itertools import islice

import pytest

from aristotle import algebra, cli, dynamics, group, orbit, verify
from conftest import PERFBENCH


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    monkeypatch.setattr(layers, "LOOP_SAMPLES", 200)
    monkeypatch.setattr(layers, "ALLOC_SAMPLES", 100)
    monkeypatch.setattr(layers, "VERIFY_CASES", 2)
    return layers


def test_layers_run_against_the_package(layers, tmp_path):
    from workloads import point_calls, trajectory_call

    pkg = types.SimpleNamespace(algebra=algebra, group=group, orbit=orbit,
                                dynamics=dynamics, verify=verify, cli=cli)
    metrics = layers.dynamics_timings(pkg, 1)
    metrics.update(layers.verify_timings(pkg, 1))
    assert len(metrics) == 3 + len(verify.PROPERTIES)
    rng = random.Random(1)
    calls = [trajectory_call(rng, "csv", 100), trajectory_call(rng, "json", 100),
             *islice(point_calls(1), 5)]
    tracer = layers.Tracer()
    _, problems = layers.run_pass(pkg, calls, str(tmp_path), tracer)
    assert problems == []
    assert tracer.total_ns("cli.cmd_simulate") > 0
    assert tracer.total_ns("cli.cmd_orbit") > 0
    assert tracer.total_ns("cli.cmd_act") > 0


def test_traced_verify_call_reaches_the_patched_cli_verify(layers, tmp_path):
    # `traced` replaces `cli.verify` with a wrapped view, and the verify
    # subcommand must call run_verify through it.
    from workloads import Call

    pkg = types.SimpleNamespace(algebra=algebra, group=group, orbit=orbit,
                                dynamics=dynamics, verify=verify, cli=cli)
    call = Call("verify", ("verify", "--seed", "1", "--cases", "2"), len(verify.PROPERTIES) * 2,
                {"seed": 1, "cases": 2})
    tracer = layers.Tracer()
    _, problems = layers.run_pass(pkg, [call], str(tmp_path), tracer)
    assert problems == []
    assert tracer.total_ns("verify.run_verify") > 0
    assert cli.verify is verify
