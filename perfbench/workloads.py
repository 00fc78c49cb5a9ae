"""Seeded inputs of the three workloads.

Each workload is an endless, deterministic sequence of CLI calls drawn from
`random.Random(f"{workload}:{seed}")`; the same seed gives the same calls in
the same order.  A call carries its CLI arguments, what its checker needs,
and how many units of work it stands for.

Orbit parameters and coordinates are drawn from the ranges the package's
own verify suite samples (|m|, |g| in [0.5, 10], coordinates in [-10, 10]).
Only the degenerate point queries are special values (m = 0 or g = 0).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from typing import Iterator

from check import sample_count

VERIFY_CASES = 3000
CSV_SAMPLES = 1_000_000
JSON_SAMPLES = 500_000
DEGENERATE_SHARE = 0.1
MIN_QUERIES = 200


@dataclass(frozen=True)
class Call:
    kind: str  # verify, csv, json, orbit or act
    args: tuple[str, ...]  # CLI arguments; csv/json calls get --out appended
    units: int  # property-cases (37 per case), trajectory rows, or 1 query
    params: dict  # what the checker needs: the flags' values


def _signed(rng: random.Random, low: float, high: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(low, high)


def _flags(pairs: dict) -> tuple[str, ...]:
    # `--x=-1e-05`: argparse would read a separate `-1e-05` as an option.
    return tuple(f"{name}={value!r}" for name, value in pairs.items())


def verify_calls(seed: int) -> Iterator[Call]:
    rng = random.Random(f"verify_suite:{seed}")
    while True:
        vseed = rng.randrange(2**31)
        yield Call(
            "verify",
            ("verify", "--seed", str(vseed), "--cases", str(VERIFY_CASES)),
            37 * VERIFY_CASES,
            {"seed": vseed, "cases": VERIFY_CASES},
        )


def trajectory_call(rng: random.Random, kind: str, samples: int | None = None) -> Call:
    """An exact-integrator CSV call of about 1e6 rows, or a symplectic Euler
    JSON call of about 5e5 rows, unless `samples` is given.  t_max sits a
    fraction of a step past the last grid point, so the final partial sample
    is always written."""
    samples = samples or (CSV_SAMPLES if kind == "csv" else JSON_SAMPLES)
    steps = samples - 2 - rng.randrange(max(1, samples // 1000))
    dt = rng.uniform(1e-4, 1e-2)
    cfg = {
        "m": _signed(rng, 0.5, 10.0),
        "g": _signed(rng, 0.5, 10.0),
        "p0": rng.uniform(-10.0, 10.0),
        "q0": rng.uniform(-10.0, 10.0),
        "t_max": (steps + rng.uniform(0.1, 0.9)) * dt,
        "dt": dt,
    }
    integrator = "exact" if kind == "csv" else "symplectic_euler"
    args = ("simulate",) + _flags({
        "--mass": cfg["m"], "--g": cfg["g"], "--p0": cfg["p0"], "--q0": cfg["q0"],
        "--t-max": cfg["t_max"], "--dt": cfg["dt"],
    }) + ("--integrator", integrator, "--format", kind)
    return Call(kind, args, sample_count(cfg["t_max"], dt), cfg)


def trajectory_calls(seed: int) -> Iterator[Call]:
    """Alternating CSV and JSON calls; they are run and reported in pairs."""
    rng = random.Random(f"trajectory:{seed}")
    for i in count():
        yield trajectory_call(rng, "csv" if i % 2 == 0 else "json")


def point_calls(seed: int) -> Iterator[Call]:
    """`orbit` and `act` queries, one in ten on a degenerate orbit."""
    rng = random.Random(f"point_queries:{seed}")
    while True:
        kind = rng.choice(("orbit", "act"))
        inp = {"m": _signed(rng, 0.5, 10.0), "g": _signed(rng, 0.5, 10.0)}
        if rng.random() < DEGENERATE_SHARE:
            inp[rng.choice(("m", "g"))] = 0.0
        if kind == "orbit":
            inp.update(e=rng.uniform(-10.0, 10.0), p=rng.uniform(-10.0, 10.0))
            names = {"--m": "m", "--g": "g", "--e": "e", "--p": "p"}
        else:
            inp.update(t=rng.uniform(-10.0, 10.0), h=rng.uniform(-10.0, 10.0),
                       p=rng.uniform(-10.0, 10.0), q=rng.uniform(-10.0, 10.0))
            names = {"--mass": "m", "--g": "g", "--t": "t", "--h": "h",
                     "--p": "p", "--q": "q"}
        flags = {flag: inp[key] for flag, key in names.items()}
        yield Call(kind, (kind,) + _flags(flags), 1, inp)


WORKLOADS = {
    "verify_suite": verify_calls,
    "trajectory": trajectory_calls,
    "point_queries": point_calls,
}
