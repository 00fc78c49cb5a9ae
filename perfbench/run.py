"""End-to-end benchmark of the `aristotle` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_suite --seed 1 --seconds 25 --trace 0

With `--trace 0` it runs the workload's calls against the real CLI, one
subprocess at a time (interpreter start and imports included), checks every
output, and prints the end-to-end metrics.  With `--trace 1` it runs the
traced in-process pass of `layers.py` and prints the per-layer metrics.
The last line of stdout is the result object; the line before it is a
detailed report (per-format figures, sample counts, output digests, machine).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import ReportedFailure, check_call  # noqa: E402
from workloads import MIN_QUERIES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 30


class CliRunner:
    """Runs `python -m aristotle` in a subprocess against the checkout's src/
    and returns exit code, output, wall time and the child's peak RSS."""

    def __init__(self, root: str, work: str) -> None:
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def run(self, argv: list[str]) -> tuple[int, str, str, float, float]:
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdin=subprocess.DEVNULL, stdout=out,
                stderr=err, cwd=self.root, env=self.env,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr, seconds, usage.ru_maxrss / 1024.0

    def cli(self, args: tuple[str, ...]) -> tuple[int, str, str, float, float]:
        return self.run(["-m", "aristotle", *args])


def time_import(runner: CliRunner) -> float:
    """Wall time of a fresh `python -c "import aristotle.cli"`."""
    rc, _, stderr, seconds, _ = runner.run(["-c", "import aristotle.cli"])
    if rc != 0:
        raise SystemExit(f"import aristotle.cli failed: {stderr.strip()[-300:]}")
    return seconds


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def run_calls(runner: CliRunner, workload: str, seed: int,
              seconds: float) -> tuple[list[dict], list[float]]:
    """Closed loop with one client: the next call starts when the last ends.

    Trajectory calls go in (csv, json) pairs.  A round (a call or a pair,
    with its checks) is not started when the mean round so far would end it
    past `seconds`, but point queries run at least MIN_QUERIES calls, so
    that p95 has ten samples beyond it.

    Returns the calls' samples and SETUP_SAMPLES import-only times.  Those
    are spread evenly over the run, taken between rounds, after one untimed
    import that writes the bytecode caches.
    """
    calls = WORKLOADS[workload](seed)
    per_round = 2 if workload == "trajectory" else 1
    minimum = MIN_QUERIES if workload == "point_queries" else per_round
    samples: list[dict] = []
    setup_times: list[float] = []
    time_import(runner)
    start = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        while (len(setup_times) < SETUP_SAMPLES
               and len(setup_times) * seconds <= SETUP_SAMPLES * elapsed):
            setup_times.append(time_import(runner))
        elapsed = time.perf_counter() - start
        if len(samples) >= minimum and elapsed + elapsed / rounds > seconds:
            break
        rounds += 1
        for _ in range(per_round):
            call = next(calls)
            args = call.args
            out_path = None
            if call.kind in ("csv", "json"):
                out_path = os.path.join(runner.work, f"trajectory.{call.kind}")
                args = args + (f"--out={out_path}",)
            rc, stdout, stderr, wall, rss_mb = runner.cli(args)
            problem = check_call(call.kind, call.params, rc, stdout, stderr, out_path)
            payload = b""
            if out_path and os.path.exists(out_path):
                with open(out_path, "rb") as fh:
                    payload = fh.read()
                os.remove(out_path)
            samples.append({
                "kind": call.kind, "units": call.units, "seconds": wall,
                "rss_mb": rss_mb, "problem": problem,
                "sha256": _digest(stdout.encode(), stderr.encode(), payload),
                "rc": rc,
            })
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(time_import(runner))
    return samples, setup_times


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile; needs at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


def _metric(value: float, unit: str, samples: int | None = None) -> dict:
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    return entry


def summarize(workload: str, samples: list[dict]) -> tuple[dict, dict]:
    """(end-to-end metrics, detailed report) of one run.

    One op is a verify call, a (csv, json) trajectory pair, or a point query.
    throughput_per_s is the units the ops did (property-cases, rows written,
    queries) over the ops' summed wall time; latency_p50_ms and peak_rss_mb
    are medians over ops.  On trajectory an op's RSS is the mean of its two
    calls' peaks, so a change to either format moves it.
    """
    if workload == "trajectory":
        ops = [samples[i:i + 2] for i in range(0, len(samples) - 1, 2)]
    else:
        ops = [[s] for s in samples]
    op_seconds = [sum(s["seconds"] for s in op) for op in ops]
    op_units = [sum(s["units"] for s in op) for op in ops]
    op_rss = [statistics.fmean(s["rss_mb"] for s in op) for op in ops]
    n = len(ops)
    metrics = {
        "throughput_per_s": _metric(sum(op_units) / sum(op_seconds), "1/s"),
        "latency_p50_ms": _metric(1e3 * statistics.median(op_seconds), "ms"),
        "peak_rss_mb": _metric(statistics.median(op_rss), "MB"),
    }
    failed = sum(1 for s in samples if s["problem"])
    report = {"fail_ratio": _metric(failed / len(samples), "ratio", len(samples))}
    if workload == "verify_suite":
        report["verify_case_rate"] = _metric(sum(op_units) / sum(op_seconds), "1/s", n)
        report["peak_rss_mb"] = _metric(statistics.median(op_rss), "MB", n)
    elif workload == "trajectory":
        for kind in ("csv", "json"):
            runs = [s for s in samples if s["kind"] == kind]
            rates = [s["units"] / s["seconds"] for s in runs]
            report[f"traj_{kind}_rows_per_s"] = _metric(statistics.median(rates), "1/s", len(runs))
            report[f"traj_{kind}_peak_rss_mb"] = _metric(
                statistics.median(s["rss_mb"] for s in runs), "MB", len(runs))
    else:
        report["query_latency_p50_ms"] = _metric(1e3 * statistics.median(op_seconds), "ms", n)
        report["query_latency_p95_ms"] = _metric(1e3 * _quantile(op_seconds, 95), "ms", n)
        report["peak_rss_mb"] = _metric(statistics.median(op_rss), "MB", n)
        refused = [s for s in samples if s["rc"] == 2]
        report["refused_calls"] = _metric(len(refused), "count", len(samples))
    return metrics, report


def _commit(root: str) -> str:
    """HEAD of the checkout's own git metadata, or "unknown" outside a repository."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(root: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": _commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "aristotle", "cli.py")):
        print("error: run from the root of a checkout holding src/aristotle",
              file=sys.stderr)
        return 2

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(root)}
    if args.trace:
        import layers

        result = layers.run(root, args.workload, args.seed)
        metrics = result.pop("metrics")
        attempted, failed = result.pop("attempted"), result.pop("failed")
        report.update(result)
        correct = not result["problems"]
    else:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
            runner = CliRunner(root, work)
            samples, setup_times = run_calls(runner, args.workload, args.seed, args.seconds)
        setup = statistics.median(setup_times)
        metrics, details = summarize(args.workload, samples)
        metrics = {"setup_s": _metric(setup, "s"), **metrics}
        found = [s["problem"] for s in samples if s["problem"]]
        attempted, failed = len(samples), len(found)
        report.update(
            metrics=details,
            setup_s=_metric(setup, "s", len(setup_times)),
            problems=[p for p in found if not isinstance(p, ReportedFailure)][:10],
            reported_failures=[p for p in found if isinstance(p, ReportedFailure)],
            setup_times_s=setup_times,
            call_seconds=[s["seconds"] for s in samples],
            outputs_sha256=[s["sha256"] for s in samples],
        )
        correct = not report["problems"]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
