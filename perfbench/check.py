"""Output checkers for the benchmark's CLI calls.

Every expected value is computed here from the call's own flags and the
closed forms the package documents, never by importing the package, so a
wrong answer cannot check itself.  A checker returns None for a correct
output, or a one-line description of the first problem it found.
"""

from __future__ import annotations

import math
import re

EXACT, FP_TOL, NUMERICAL_TOL, FINITE_DIFF_TOL = 0.0, 1e-12, 1e-9, 1e-5

# The 37 properties `aristotle verify` prints, in registry order, with their
# documented tolerance classes.  New properties may be appended after them.
VERIFY_TOLERANCES = dict(
    bracket_antisymmetry=EXACT, bracket_bilinearity=FP_TOL, jacobi_identity=EXACT,
    algebra_vector_space_laws=EXACT, pairing_dimension_consistency=EXACT,
    base_group_abelian=EXACT, spacetime_action_law=FP_TOL,
    extended_associativity=NUMERICAL_TOL, extended_identity=EXACT,
    extended_inverse=FP_TOL, central_coordinate_commutes=EXACT,
    cocycle_identity=NUMERICAL_TOL, cocycle_coboundary=NUMERICAL_TOL,
    canonical_product_law=NUMERICAL_TOL, canonical_round_trip=FP_TOL,
    coadjoint_m_invariance=EXACT, coadjoint_action_law=FP_TOL,
    coadjoint_zero_mass_fixed_point=EXACT, pairing_linearity=FP_TOL,
    coadjoint_equivariance=NUMERICAL_TOL,
    adjoint_closed_form_matches_conjugation=NUMERICAL_TOL, chart_round_trip=FP_TOL,
    chart_equivariance=NUMERICAL_TOL, canonical_action_jacobian=FP_TOL,
    poisson_antisymmetry=EXACT, poisson_jacobi=EXACT,
    momentum_map_antihomomorphism=NUMERICAL_TOL, hamiltonian_field_convention=EXACT,
    static_position=EXACT, energy_conservation_exact=EXACT,
    energy_conservation_euler=NUMERICAL_TOL, momentum_linear_exact=FP_TOL,
    momentum_linear_euler=NUMERICAL_TOL, flow_composition=FP_TOL,
    generator_finite_difference=FINITE_DIFF_TOL, hamiltons_equations=EXACT,
    hamiltonian_p_independence=EXACT,
)
VERIFY_PROPERTIES = tuple(VERIFY_TOLERANCES)


class ReportedFailure(str):
    """A failed call whose output is nonetheless right: `verify` correctly
    reported a property whose worst case exceeds its tolerance.  It counts
    in fail_ratio but does not make the run's output incorrect."""


_VERIFY_LINE = re.compile(r"(PASS|FAIL) (\S+) max_violation=(\S+)")
# One array element without its braces; the head is the part before q.
_JSON_ROW = re.compile(r'"t": ([^,{}]+), "p": ([^,{}]+), "q": ([^,{}]+), "H": ([^,{}]+)')
_JSON_HEAD = re.compile(r'"t": ([^,{}]+), "p": ([^,{}]+)')
_POINT_LINE = re.compile(r"p=(\S+) q=(\S+)")


def same(x: float, y: float) -> bool:
    """Bitwise equality of two finite doubles, sign of zero included."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def time_grid(t_max: float, dt: float) -> tuple[int, bool]:
    """(n, final): the samples are k*dt for k = 0..n, then t_max if final.

    n is the largest k with k*dt <= t_max, found by stepping from the
    quotient rather than trusting it.
    """
    n = int(t_max // dt)
    while n > 0 and n * dt > t_max:
        n -= 1
    while (n + 1) * dt <= t_max:
        n += 1
    return n, n * dt < t_max


def sample_count(t_max: float, dt: float) -> int:
    n, final = time_grid(t_max, dt)
    return n + 1 + int(final)


def _clean_exit(rc: int, stderr: str, expected_rc: int = 0) -> str | None:
    if "Traceback" in stderr:
        return f"traceback on stderr: {stderr.strip().splitlines()[-1]!r}"
    if rc != expected_rc:
        return f"exit code {rc}, expected {expected_rc}"
    return None


def check_verify(rc: int, stdout: str, stderr: str, seed: int, cases: int) -> str | None:
    """The 37 properties in registry order (appended ones allowed), one line
    each, then the summary line; nothing on stderr.

    A line says PASS exactly when its max_violation is within the property's
    tolerance.  Every line PASS means exit 0.  A FAIL line consistent with its
    tolerance, the summary and exit 1 is a ReportedFailure.
    """
    problem = _clean_exit(rc, stderr, 1 if rc == 1 else 0)
    if problem or stderr:
        return problem or f"unexpected stderr: {stderr.strip()[:200]!r}"
    if not stdout.endswith("\n"):
        return "output does not end with a newline"
    lines = stdout[:-1].split("\n")
    body, summary = lines[:-1], lines[-1]
    names, failed = [], []
    for number, line in enumerate(body, 1):
        match = _VERIFY_LINE.fullmatch(line)
        if not match:
            return f"line {number} is not a PASS or FAIL line: {line[:200]!r}"
        verdict, name, text = match.groups()
        try:
            violation = _number(text)
        except ValueError:
            return f"line {number}: bad max_violation {text!r}"
        tolerance = VERIFY_TOLERANCES.get(name)
        if violation < 0.0 or (tolerance is not None
                               and (verdict == "PASS") != (violation <= tolerance)):
            return f"line {number} contradicts the {tolerance!r} tolerance: {line!r}"
        names.append(name)
        if verdict == "FAIL":
            failed.append(line)
    if tuple(names[: len(VERIFY_PROPERTIES)]) != VERIFY_PROPERTIES:
        return "the lines do not list the 37 properties in registry order"
    if len(set(names)) != len(names):
        return "a property is listed twice"
    expected = f"{len(names)} properties, {len(failed)} failed (seed={seed}, cases={cases})"
    if summary != expected:
        return f"summary line {summary[:200]!r}, expected {expected!r}"
    if rc != int(bool(failed)):
        return f"exit code {rc} with {len(failed)} FAIL lines"
    if failed:
        return ReportedFailure(f"verify --seed {seed} --cases {cases}: " + "; ".join(failed))
    return None


def _trajectory_grid(cfg: dict) -> tuple[float, float, float, int, int]:
    """(m*g, H, t_max, n, total): the closed-form constants of a trajectory,
    the last grid index n and the number of samples."""
    mg = cfg["m"] * cfg["g"]
    n, final = time_grid(cfg["t_max"], cfg["dt"])
    return mg, mg * cfg["q0"], cfg["t_max"], n, n + 1 + int(final)


def check_csv_exact(rc: int, stderr: str, path: str, cfg: dict) -> str | None:
    """Rows t = k*dt (then t_max), p = p0 + (m*g)*t, q = q0, H = (m*g)*q0,
    every value bitwise.  Reads the file a line at a time.

    q and H are checked by value on the first row and wherever their text
    changes; elsewhere the unchanged text stands for the checked value.
    """
    problem = _clean_exit(rc, stderr)
    if problem:
        return problem
    mg, energy, t_max, n, total = _trajectory_grid(cfg)
    p0, q0, dt = cfg["p0"], cfg["q0"], cfg["dt"]
    k = 0
    tail = None
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            if fh.readline() != "t,p,q,H\n":
                return "missing or wrong CSV header"
            for line in fh:
                if k >= total:
                    return f"extra row {k + 1}"
                if tail is None or not line.endswith(tail):
                    fields = line[:-1].split(",") if line.endswith("\n") else []
                    if len(fields) != 4:
                        return f"row {k + 1} is not four fields and a newline: {line!r}"
                    if not (same(_number(fields[2]), q0) and same(_number(fields[3]), energy)):
                        return f"row {k + 1} is {line[:-1]!r}, expected q={q0!r} H={energy!r}"
                    tail = f",{fields[2]},{fields[3]}\n"
                t_text, _, p_text = line[:-len(tail)].partition(",")
                t, p = _number(t_text), _number(p_text)
                t_expected = k * dt if k <= n else t_max
                p_expected = p0 + mg * t_expected
                if not (same(t, t_expected) and same(p, p_expected)):
                    return (f"row {k + 1} is {line[:-1]!r}, expected "
                            f"t={t_expected!r} p={p_expected!r}")
                k += 1
    except ValueError as err:
        return f"row {k + 1}: {err}"
    except OSError as err:
        return f"cannot read output: {err}"
    if k != total:
        return f"{k} rows, expected {total}"
    return None


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= NUMERICAL_TOL * max(1.0, abs(x), abs(y))


def check_json_euler(rc: int, stderr: str, path: str, cfg: dict) -> str | None:
    """An array of objects with exactly the keys t, p, q, H, in that order,
    within the 1e-9 class of the closed form on the grid (t_max included).

    As in the CSV check, q and H are checked by value wherever their text
    changes.
    """
    problem = _clean_exit(rc, stderr)
    if problem:
        return problem
    mg, energy, t_max, n, total = _trajectory_grid(cfg)
    p0, q0, dt = cfg["p0"], cfg["q0"], cfg["dt"]
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as err:
        return f"cannot read output: {err}"
    if not (text.startswith("[{") and text.endswith("}]\n")):
        return "output is not one line holding a JSON array of objects"
    rows = text[2:-3].split("}, {")
    if len(rows) != total:
        return f"{len(rows)} rows, expected {total}"
    tail = None
    for k, row in enumerate(rows):
        try:
            if tail is None or not row.endswith(tail):
                match = _JSON_ROW.fullmatch(row)
                if not match:
                    return f"row {k + 1} is malformed: {row[:200]!r}"
                if not (_close(_number(match.group(3)), q0)
                        and _close(_number(match.group(4)), energy)):
                    return f"row {k + 1} is {row!r}, expected q={q0!r} H={energy!r}"
                tail = row[match.end(2):]
            head = _JSON_HEAD.fullmatch(row, 0, len(row) - len(tail))
            if not head:
                return f"row {k + 1} is malformed: {row[:200]!r}"
            t, p = _number(head.group(1)), _number(head.group(2))
        except ValueError as err:
            return f"row {k + 1}: {err}"
        t_expected = k * dt if k <= n else t_max
        if not (_close(t, t_expected) and _close(p, p0 + mg * t_expected)):
            return f"row {k + 1} is {row!r}, off the closed form by more than 1e-9"
    return None


def expected_point(kind: str, q: dict) -> tuple[float, float] | None:
    """Closed-form answer of an `orbit` or `act` query; None when the orbit is
    degenerate (m*g == 0) and the CLI must refuse it."""
    m = q["m"]
    mg = m * q["g"]
    if mg == 0.0:
        return None
    if kind == "orbit":
        return q["p"], -q["e"] / mg
    return q["p"] + mg * q["t"], q["q"] + q["h"]


def check_point(rc: int, stdout: str, stderr: str, kind: str, query: dict) -> str | None:
    """`p=<p> q=<q>` bitwise equal to the closed form, or for a degenerate
    orbit a single `error:` line on stderr with exit code 2."""
    expected = expected_point(kind, query)
    if expected is None:
        problem = _clean_exit(rc, stderr, 2)
        if problem:
            return problem
        if stdout:
            return f"output on a refused call: {stdout[:200]!r}"
        lines = stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return f"expected one 'error:' line, got {stderr[:200]!r}"
        return None
    problem = _clean_exit(rc, stderr)
    if problem:
        return problem
    if stderr:
        return f"unexpected stderr: {stderr.strip()[:200]!r}"
    match = _POINT_LINE.fullmatch(stdout[:-1]) if stdout.endswith("\n") else None
    if not match:
        return f"output is not 'p=... q=...': {stdout[:200]!r}"
    try:
        got = (_number(match.group(1)), _number(match.group(2)))
    except ValueError:
        return f"unparsable output {stdout.strip()!r}"
    if not (same(got[0], expected[0]) and same(got[1], expected[1])):
        return f"output {stdout.strip()!r}, expected p={expected[0]!r} q={expected[1]!r}"
    return None


def check_call(kind: str, params: dict, rc: int, stdout: str, stderr: str,
               out_path: str | None = None) -> str | None:
    """Dispatch on the kind of call made by the workloads."""
    if kind == "verify":
        return check_verify(rc, stdout, stderr, params["seed"], params["cases"])
    if kind in ("csv", "json"):
        if stdout or (stderr and "Traceback" not in stderr):
            return f"unexpected console output: {(stdout + stderr)[:200]!r}"
        checker = check_csv_exact if kind == "csv" else check_json_euler
        return checker(rc, stderr, out_path, params)
    return check_point(rc, stdout, stderr, kind, params)
