"""Per-layer metrics of `src/aristotle`, from outside the package.

Each layer is one module: algebra, group, orbit, dynamics, verify, cli.

* ns_per_call, ns_per_sample, new_ns and us_per_case come from direct
  timing loops over seeded inputs, with no wrapper installed.
* Span counts, self times and self shares come from a traced pass: the
  first inputs of all three workloads run in-process through
  `aristotle.cli.main(argv)` with wrappers installed on the module
  attributes the callers look up at call time.  The same inputs also run
  without wrappers; the difference is the tracing overhead.
* cli.import_ms and cli.import_numpy_ms are parsed from
  `python -X importtime -c "import aristotle.cli"`.

The traced pass is the same whichever workload is named, so every per-layer
metric is defined on every workload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
import types
from itertools import islice

from check import ReportedFailure, check_call
from workloads import (VERIFY_CASES, point_calls, trajectory_call, trajectory_calls,
                       verify_calls)

IMPORT_REPEATS = 5
TIMING_REPEATS = 5
TRACED_QUERIES = 200
LOOP_SAMPLES = 200_000
ALLOC_SAMPLES = 100_000
LAYERS = ("algebra", "group", "orbit", "dynamics", "verify")
# Untraced and traced runs of a pass alternate this many times and report
# medians.  Trajectory passes run once each: their wrappers fire three times
# per call, so tracing costs them nothing measurable, and they are long.
# The tracing overhead is reported over the repeated passes.
REPEATS = {"verify_suite": 3, "point_queries": 3}
# Spans above the verify properties, and the largest share of the traced
# verify op their self time may take before the run fails.
UNATTRIBUTED = ("cli.main", "cli.cmd_verify", "verify.run_verify")
UNATTRIBUTED_MAX = 0.1

_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)")


class Tracer:
    """Spans aggregated per (name, parent name): calls, total and self time.

    A span's self time is its duration minus the time its child spans cover.
    """

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, ns covered by children]
        self.spans: dict[tuple[str, str | None], list[int]] = {}

    def wrap(self, name: str, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                entry = spans.get((name, parent))
                if entry is None:
                    entry = spans[(name, parent)] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]

        return traced

    def self_ns(self, prefix: str) -> int:
        return sum(e[2] for (name, _), e in self.spans.items() if name.startswith(prefix))

    def total_ns(self, name: str) -> int:
        return sum(e[1] for (span, _), e in self.spans.items() if span == name)

    def rows(self) -> list[list]:
        return [[name, parent, e[0], e[1] / 1e9, e[2] / 1e9]
                for (name, parent), e in sorted(self.spans.items(), key=lambda kv: -kv[1][2])]


def _traced_view(tracer: Tracer, module: types.ModuleType, names=None) -> types.SimpleNamespace:
    """A stand-in for `module` whose public functions (or only `names`) are
    wrapped; classes and constants are the module's own objects."""
    layer = module.__name__.rsplit(".", 1)[-1]
    view = types.SimpleNamespace(**vars(module))
    for name, obj in vars(module).items():
        wanted = name in names if names else (
            inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_"))
        if wanted:
            setattr(view, name, tracer.wrap(f"{layer}.{name}", obj))
    return view


@contextlib.contextmanager
def traced(tracer: Tracer, pkg: types.SimpleNamespace):
    """Install the wrappers for the duration of the block."""
    patches = []

    def patch(obj, attr, value):
        patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    verify, cli = pkg.verify, pkg.cli
    # The primitives as verify calls them, and the checks as run_verify
    # iterates them.
    for module in (pkg.algebra, pkg.group, pkg.orbit, pkg.dynamics):
        patch(verify, module.__name__.rsplit(".", 1)[-1], _traced_view(tracer, module))
    patch(verify, "PROPERTIES", tuple(
        dataclasses.replace(p, check=tracer.wrap(f"verify.{p.name}", p.check))
        for p in verify.PROPERTIES))
    # multiply_extended as conjugate_extended looks it up in its own module.
    patch(pkg.group, "multiply_extended",
          tracer.wrap("group.multiply_extended", pkg.group.multiply_extended))
    # What cli calls: the subcommand handlers (looked up when the parser is
    # built) and the entry points of the layers below.
    patch(cli, "dynamics", _traced_view(tracer, pkg.dynamics, ("simulate",)))
    patch(cli, "verify", _traced_view(tracer, verify, ("run_verify",)))
    patch(cli, "orbit", _traced_view(tracer, pkg.orbit, ("to_chart", "canonical_act")))
    for name in ("cmd_verify", "cmd_simulate", "cmd_orbit", "cmd_act"):
        patch(cli, name, tracer.wrap(f"cli.{name}", getattr(cli, name)))
    try:
        yield
    finally:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)


def _call_main(main, args: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = main(args)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported as a failed call, like a CLI traceback
            traceback.print_exc()
            rc = 1
    return rc, stdout.getvalue(), stderr.getvalue()


def run_pass(pkg, calls, work: str, tracer: Tracer | None) -> tuple[float, list[str]]:
    """Wall seconds of `calls` through cli.main, and the problems found."""
    main = tracer.wrap("cli.main", pkg.cli.main) if tracer else pkg.cli.main
    seconds = 0.0
    problems = []
    for call in calls:
        args = list(call.args)
        out_path = None
        if call.kind in ("csv", "json"):
            out_path = os.path.join(work, f"trajectory.{call.kind}")
            args.append(f"--out={out_path}")
        with (traced(tracer, pkg) if tracer else contextlib.nullcontext()):
            start = time.perf_counter()
            rc, stdout, stderr = _call_main(main, args)
            seconds += time.perf_counter() - start
        problem = check_call(call.kind, call.params, rc, stdout, stderr, out_path)
        if problem:
            problems.append(problem)
        if out_path and os.path.exists(out_path):
            os.remove(out_path)
    return seconds, problems


def _median_ns_per_call(fn, inputs: list[tuple]) -> float:
    times = []
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter_ns()
        for args in inputs:
            fn(*args)
        times.append((time.perf_counter_ns() - start) / len(inputs))
    return statistics.median(times)


def primitive_timings(pkg, seed: int) -> dict[str, float]:
    """ns per call of the primitives over seeded inputs, no wrappers."""
    algebra, group, orbit = pkg.algebra, pkg.group, pkg.orbit
    rng = random.Random(f"layers:{seed}")

    def coord():
        return rng.uniform(-10.0, 10.0)

    def nonzero():
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 10.0)

    n = 2000
    gs = [nonzero() for _ in range(n)]
    tables = [algebra.aristotle_bracket_table(g) for g in gs[:100]]
    elems = [algebra.AlgebraElement(coord(), coord(), coord()) for _ in range(n + 1)]
    ext = [group.ExtendedElement(coord(), coord(), coord()) for _ in range(n + 1)]
    base = [group.BaseElement(coord(), coord()) for _ in range(n)]
    ctxs = [orbit.OrbitContext(nonzero(), g) for g in gs]
    duals = [orbit.CoadjointPoint(ctx.m, coord(), coord()) for ctx in ctxs]
    points = [orbit.OrbitPoint(coord(), coord()) for _ in range(n)]
    obs = [orbit.AffineObservable(coord(), coord(), coord()) for _ in range(n + 1)]
    return {
        "algebra.jacobi_violation.ns_per_call": _median_ns_per_call(
            algebra.jacobi_violation, [(t,) for t in tables]),
        "algebra.bracket.ns_per_call": _median_ns_per_call(
            algebra.bracket, [(tables[i % 100], elems[i], elems[i + 1]) for i in range(n)]),
        "algebra.aristotle_bracket_table.ns_per_call": _median_ns_per_call(
            algebra.aristotle_bracket_table, [(g,) for g in gs]),
        "group.multiply_extended.ns_per_call": _median_ns_per_call(
            group.multiply_extended, [(gs[i], ext[i], ext[i + 1]) for i in range(n)]),
        "group.conjugate_extended.ns_per_call": _median_ns_per_call(
            group.conjugate_extended, [(gs[i], ext[i], ext[i + 1]) for i in range(n)]),
        "orbit.coadjoint_act.ns_per_call": _median_ns_per_call(
            orbit.coadjoint_act, [(gs[i], base[i], duals[i]) for i in range(n)]),
        "orbit.to_chart.ns_per_call": _median_ns_per_call(
            orbit.to_chart, list(zip(ctxs, duals))),
        "orbit.canonical_act.ns_per_call": _median_ns_per_call(
            orbit.canonical_act, list(zip(ctxs, base, points))),
        "orbit.poisson_bracket.ns_per_call": _median_ns_per_call(
            orbit.poisson_bracket, [(obs[i], obs[i + 1]) for i in range(n)]),
        "orbit.OrbitContext.new_ns": _median_ns_per_call(
            orbit.OrbitContext, [(ctx.m, ctx.g) for ctx in ctxs]),
    }


def dynamics_timings(pkg, seed: int) -> dict[str, float]:
    """ns per sample of dynamics.simulate, and its peak allocation per sample."""
    dynamics = pkg.dynamics
    rng = random.Random(f"layers-dynamics:{seed}")
    metrics = {}
    for integrator, kind in (("exact", "csv"), ("symplectic_euler", "json")):
        call = trajectory_call(rng, kind, LOOP_SAMPLES)
        cfg = dynamics.SimulationConfig(integrator=integrator, **call.params)
        times = []
        for _ in range(3):
            start = time.perf_counter_ns()
            samples = dynamics.simulate(cfg)
            times.append((time.perf_counter_ns() - start) / len(samples))
            del samples
        metrics[f"dynamics.simulate.ns_per_sample.{integrator}"] = statistics.median(times)
    call = trajectory_call(rng, "csv", ALLOC_SAMPLES)
    cfg = dynamics.SimulationConfig(integrator="exact", **call.params)
    tracemalloc.start()
    try:
        count = len(dynamics.simulate(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    metrics["dynamics.simulate.peak_alloc_bytes_per_sample"] = peak / count
    return metrics


def verify_timings(pkg, vseed: int) -> dict[str, float]:
    """µs per case of each verify property, run as run_verify runs it."""
    metrics = {}
    for prop in pkg.verify.PROPERTIES:
        rng = random.Random(f"{vseed}:{prop.name}")
        start = time.perf_counter_ns()
        for _ in range(VERIFY_CASES):
            prop.check(rng)
        metrics[f"verify.{prop.name}.us_per_case"] = (
            (time.perf_counter_ns() - start) / VERIFY_CASES / 1e3)
    return metrics


def import_timings(root: str) -> dict[str, float]:
    """Median cumulative import time of aristotle.cli and of numpy within it
    (0 when aristotle.cli does not import numpy)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORT_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import aristotle.cli"],
            capture_output=True, text=True, cwd=root, env=env, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match:
                name = match.group(3)
                top_level = len(match.group(2)) == 1
                if name == "numpy" or (name == "aristotle.cli" and top_level):
                    cumulative.setdefault(name, int(match.group(1)) / 1e3)
        cli_ms.append(cumulative["aristotle.cli"])
        numpy_ms.append(cumulative.get("numpy", 0.0))
    # The first run writes bytecode caches and is not counted.
    return {"cli.import_ms": statistics.median(cli_ms[1:]),
            "cli.import_numpy_ms": statistics.median(numpy_ms[1:])}


_UNITS = ((r"\.(ns_per_call|new_ns)$|\.(ns_per_sample|self_ns_per_row)\.", "ns"),
          (r"\.us_per_case$", "us"), (r"_ms$", "ms"), (r"_share$", "ratio"),
          (r"_bytes_per_sample$", "B"), (r"_s$", "s"))


def _unit(name: str) -> str:
    return next(unit for pattern, unit in _UNITS if re.search(pattern, name))


def run(root: str, workload: str, seed: int) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    from aristotle import algebra, cli, dynamics, group, orbit, verify

    pkg = types.SimpleNamespace(algebra=algebra, group=group, orbit=orbit,
                                dynamics=dynamics, verify=verify, cli=cli)
    verify_call = next(verify_calls(seed))
    csv_call, json_call = islice(trajectory_calls(seed), 2)
    passes = {
        "verify_suite": [verify_call],
        "trajectory.csv": [csv_call],
        "trajectory.json": [json_call],
        "point_queries": list(islice(point_calls(seed), TRACED_QUERIES)),
    }
    # The named workload's pass first; the others fill in the layers it skips.
    order = sorted(passes, key=lambda name: not name.startswith(workload))

    metrics = import_timings(root)
    metrics.update(primitive_timings(pkg, seed))
    metrics.update(dynamics_timings(pkg, seed))
    metrics.update(verify_timings(pkg, verify_call.params["seed"]))

    problems: list[str] = []
    tracers, untraced_s, traced_s = {}, {}, {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
        for name in order:
            tracers[name] = Tracer()
            untraced, traced_ = [], []
            for _ in range(REPEATS.get(name, 1)):
                seconds, found = run_pass(pkg, passes[name], work, None)
                untraced.append(seconds)
                problems += found
                seconds, found = run_pass(pkg, passes[name], work, tracers[name])
                traced_.append(seconds)
                problems += found
            untraced_s[name] = statistics.median(untraced)
            traced_s[name] = statistics.median(traced_)
    attempted = sum(2 * REPEATS.get(name, 1) * len(calls) for name, calls in passes.items())
    failed = len(problems)
    reported = [p for p in problems if isinstance(p, ReportedFailure)]
    problems = [p for p in problems if not isinstance(p, ReportedFailure)]

    vt = tracers["verify_suite"]
    verify_ns = vt.total_ns("verify.run_verify")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = vt.self_ns(f"{layer}.") / verify_ns
    # Formatting and writing: cmd_simulate minus its dynamics.simulate child.
    for fmt, call in (("csv", csv_call), ("json", json_call)):
        metrics[f"cli.cmd_simulate.self_ns_per_row.{fmt}"] = (
            tracers[f"trajectory.{fmt}"].self_ns("cli.cmd_simulate") / call.units)

    overhead = {name: traced_s[name] - untraced_s[name] for name in order}
    metrics["trace.overhead_s"] = sum(overhead[name] for name in REPEATS)
    metrics["trace.overhead_share"] = (
        metrics["trace.overhead_s"] / sum(untraced_s[name] for name in REPEATS))

    # Time the wrappers attribute to no property or primitive: the self time
    # of the entry point, the handler and the runner's loop.  A missing or
    # misplaced wrapper moves a property's time here.
    glue = sum(vt.self_ns(name) for name in UNATTRIBUTED) / vt.total_ns("cli.main")
    if glue > UNATTRIBUTED_MAX:
        problems.append(
            f"verify_suite: {glue:.1%} of the op is self time of {', '.join(UNATTRIBUTED)}, "
            f"above {UNATTRIBUTED_MAX:.0%}")
    if any(e[2] < 0 for t in tracers.values() for e in t.spans.values()):
        problems.append("a span has negative self time")

    return {
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "reported_failures": sorted(set(reported)),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "verify_unattributed_share": glue,
        "spans": {name: t.rows() for name, t in tracers.items()},
    }
