"""Self-tests of the benchmark's output checker.

Real outputs of the CLI (run in-process on small inputs) must pass, and each
corrupted copy must be caught.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_check.py
    python3 perfbench/test_check.py
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import tempfile
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from aristotle import cli  # noqa: E402
from check import VERIFY_PROPERTIES, ReportedFailure, check_call  # noqa: E402
from workloads import point_calls, trajectory_call  # noqa: E402


def _main(args: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(args)
    return rc, stdout.getvalue(), stderr.getvalue()


def _trajectory(kind: str, transform=None):
    """Check a small real trajectory, after `transform` edits its text."""
    call = trajectory_call(random.Random(kind), kind, 1000)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, f"out.{kind}")
        rc, stdout, stderr = _main([*call.args, f"--out={path}"])
        if transform:
            with open(path, encoding="utf-8") as fh:
                text = transform(fh.read())
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return check_call(kind, call.params, rc, stdout, stderr, path)


def _verify(transform=None):
    rc, stdout, stderr = _main(["verify", "--seed", "7", "--cases", "3"])
    if transform:
        rc, stdout = transform(rc, stdout)
    return check_call("verify", {"seed": 7, "cases": 3}, rc, stdout, stderr)


def _flip_digit(text: str, row: int) -> str:
    lines = text.split("\n")
    line = lines[row]
    i = next(i for i, ch in enumerate(line) if ch in "123456789")
    lines[row] = line[:i] + str(int(line[i]) % 9 + 1) + line[i + 1:]
    return "\n".join(lines)


def test_real_outputs_pass():
    assert _trajectory("csv") is None
    assert _trajectory("json") is None
    assert _verify() is None
    for call in islice(point_calls(3), 60):
        assert check_call(call.kind, call.params, *_main(list(call.args))) is None, call


def test_flipped_digit_in_one_csv_row():
    assert "row 501" in _trajectory("csv", lambda text: _flip_digit(text, 501))


def test_missing_final_partial_step_row():
    def drop_last(text: str) -> str:
        return "\n".join(text.split("\n")[:-2]) + "\n"

    assert "rows, expected" in _trajectory("csv", drop_last)


def test_json_row_with_an_extra_key():
    def extra_key(text: str) -> str:
        first = text.index("}")
        return text[:first] + ', "E": 0.0' + text[first:]

    assert "row 1" in _trajectory("json", extra_key)


def test_json_row_off_the_closed_form():
    def nudge(text: str) -> str:
        return text.replace('"p": ', '"p": 1', 1)

    assert "row 1" in _trajectory("json", nudge)


def test_verify_fail_line():
    name = VERIFY_PROPERTIES[2]  # jacobi_identity, tolerance 0, violation 0.0

    def fail(stdout: str) -> str:
        return stdout.replace(f"PASS {name} ", f"FAIL {name} ").replace(" 0 failed", " 1 failed")

    assert "contradicts" in _verify(lambda rc, stdout: (1, fail(stdout)))
    assert "contradicts" in _verify(lambda rc, stdout: (0, fail(stdout)))


def test_reported_verification_failure_counts_but_is_not_wrong_output():
    def exceed(stdout: str) -> str:
        lines = stdout.split("\n")
        lines[1] = "FAIL bracket_bilinearity max_violation=1.0231815394945443e-12"
        return "\n".join(lines).replace(" 0 failed", " 1 failed")

    reported = _verify(lambda rc, stdout: (1, exceed(stdout)))
    assert isinstance(reported, ReportedFailure) and "bracket_bilinearity" in reported
    assert "exit code 0 with 1 FAIL lines" in _verify(lambda rc, stdout: (0, exceed(stdout)))


def test_exit_code_1_where_2_is_expected():
    params = {"m": 0.0, "g": 2.0, "e": 1.0, "p": 1.0}
    message = "error: degenerate orbit: m and g must both be nonzero\n"
    assert check_call("orbit", params, 2, "", message) is None
    assert "exit code 1, expected 2" in check_call("orbit", params, 1, "", message)


def test_traceback_and_sign_of_zero_are_caught():
    params = {"m": 2.0, "g": 3.0, "e": 0.0, "p": 1.0}  # q = -0.0/6 = -0.0
    assert check_call("orbit", params, 0, "p=1 q=-0.0\n", "") is None
    assert "expected" in check_call("orbit", params, 0, "p=1 q=0\n", "")
    tb = "Traceback (most recent call last):\nOverflowError: x\n"
    assert "traceback" in check_call("orbit", params, 2, "", tb)


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
