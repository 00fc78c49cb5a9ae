"""Command-line behavior: point queries, exit codes, streams, imports and the writer's failures."""

import contextlib
import errno
import io
import json
import math
import os
import random
import re
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aristotle import cli, dynamics, write
from conftest import GRID_VALUES, PERFBENCH, assert_reaped, deadline, run_bare

SIM_FLAGS = ["--mass", "2", "--g", "3", "--p0", "1", "--q0", "5", "--dt", "0.5", "--t-max", "4"]
# 1e5 rows: 25 chunks, and more than a pipe buffer holds.
LONG_SIM_FLAGS = ["--mass", "2", "--g", "3", "--p0", "1", "--q0", "5", "--dt", "1e-4", "--t-max", "10"]
# 1e8 rows, about 2 GB of CSV: a run that is still going when it is interrupted.
ENDLESS_SIM_FLAGS = ["--mass", "2", "--g", "3", "--p0", "1", "--q0", "5", "--dt", "1e-6",
                     "--t-max", "100"]
ENOSPC = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_signed_zero(self, capsys):
        argv = ["simulate", "--mass", "2", "--g", "-3", "--p0=-0.0", "--q0=-0.0",
                "--dt", "0.5", "--t-max", "0"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert out == "t,p,q,H\n0,-0,-0,0\n"
        code, out, _ = run_main([*argv, "--format", "json"], capsys)
        assert code == 0
        assert out == '[{"t": 0.0, "p": -0.0, "q": -0.0, "H": 0.0}]\n'

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_rows(self, tmp_path, use_cpus, fmt):
        # 1e5 rows are 5-8 MB of output; building them in memory peaks near
        # 40-50 MB, streaming near 1 MB whatever the row count.  Forked
        # workers are out of tracemalloc's sight, so one CPU bounds the loop
        # that formats the rows, and two bound the parent that waits for them.
        target = tmp_path / f"trajectory.{fmt}"
        argv = ["simulate", "--mass", "2", "--g", "3", "--p0", "1.1", "--q0", "5.3",
                "--dt", "1e-4", "--t-max", "10", "--format", fmt, "--out", str(target)]
        for cpus in (1, 2):
            use_cpus(cpus)
            tracemalloc.start()
            try:
                code = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert target.stat().st_size > 4_000_000
            assert peak < 4_000_000

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chunks_deal_out_the_whole_run(self, monkeypatch, fmt):
        # Whole and fractional horizons of 0-11 steps, cut into chunks of 1-4
        # rows dealt to 1-4 workers: a chunk may hold only the final sample,
        # and a worker may get none.  Interleaved in chunk order, the chunks
        # are every CSV record, or one json.dumps over all records less its
        # "[" and "]".
        for steps in range(12):
            for extra in (0.0, 0.4):
                t_max = (steps + extra) * 0.3 if steps else 0.0
                for integrator in dynamics.INTEGRATORS:
                    cfg = dynamics.SimulationConfig(m=1.7, g=-9.81, p0=-3.25, q0=0.5, t_max=t_max,
                                                    dt=0.3, integrator=integrator)
                    samples = [(t, p, cfg.q0, cfg.energy) for t, p in dynamics.sample_rows(cfg)]
                    whole = ("".join(",".join(map(cli._fmt, s)) + "\n" for s in samples)
                             if fmt == "csv" else
                             json.dumps([dict(zip("tpqH", s)) for s in samples])[1:-1])
                    for rows in range(1, 5):
                        monkeypatch.setattr(write, "_CHUNK_ROWS", rows)
                        for workers in range(1, 5):
                            dealt = [list(write._chunks(cfg, fmt, worker, workers))
                                     for worker in range(workers)]
                            count = sum(map(len, dealt))
                            assert count == -(-dynamics.sample_count(cfg) // rows)
                            assert "".join(dealt[i % workers][i // workers]
                                           for i in range(count)) == whole

    def test_worker_write_error_is_reported_once(self, tmp_path, capsys, monkeypatch, use_cpus):
        # Forked workers inherit this os.write, which fails each worker's
        # second chunk; the turn tokens are single bytes and pass.
        real_write = os.write
        chunks = []

        def write(fd, data):
            if len(data) > 1:
                if chunks:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                chunks.append(fd)
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", write)
        use_cpus(2)
        target = tmp_path / "trajectory.csv"
        code, out, err = run_main(["simulate", *LONG_SIM_FLAGS, "--out", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {str(target)!r}: {ENOSPC}\n"
        assert not target.exists()  # cut at a chunk boundary, it would read as a whole run
        assert_reaped()

    @staticmethod
    def fail_second_chunk(monkeypatch, failure):
        """Make each forked worker, which inherits this os.write, end on its
        second chunk: killed as the OOM killer would, or by an exception other
        than OSError, whose traceback goes to the worker's copy of sys.stderr."""
        real_write = os.write
        chunks = []

        def write(fd, data):
            if len(data) > 1:
                if chunks and failure == "signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                if chunks:
                    raise RuntimeError("not a write error")
                chunks.append(fd)
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", write)

    @pytest.mark.parametrize("failure", ["signal", "exception"])
    def test_failed_worker_is_named(self, tmp_path, capsys, monkeypatch, use_cpus, failure):
        self.fail_second_chunk(monkeypatch, failure)
        use_cpus(2)
        target = tmp_path / "trajectory.csv"
        code, out, err = run_main(["simulate", *LONG_SIM_FLAGS, "--out", str(target)], capsys)
        assert (code, out) == (2, "")
        killed = f"signal {signal.SIGKILL:d} ({signal.strsignal(signal.SIGKILL)})"
        assert err == (f"error: a worker process was killed by {killed}\n"
                       if failure == "signal" else
                       "error: a worker process exited unexpectedly with status 255\n")
        assert not target.exists()
        assert_reaped()

    def test_failed_run_keeps_a_fifo(self, tmp_path, capsys, monkeypatch, use_cpus):
        # Only a regular file is deleted: a FIFO, like a device, is not the run's.
        # The reader is a process: forking with a second thread running warns
        # on Python 3.12 and later, and warnings fail this suite.
        fifo, drained = tmp_path / "trajectory.fifo", tmp_path / "drained"
        os.mkfifo(fifo)
        with open(drained, "wb") as sink:
            reader = subprocess.Popen(["cat", str(fifo)], stdout=sink)
        self.fail_second_chunk(monkeypatch, "signal")
        use_cpus(2)
        try:
            code, out, err = run_main(["simulate", *LONG_SIM_FLAGS, "--out", str(fifo)], capsys)
            assert reader.wait(timeout=60) == 0
        finally:  # a run that never opened the FIFO leaves the reader blocked
            reader.kill()
            reader.wait()
        assert (code, out) == (2, "")
        assert err.startswith("error: a worker process was killed by signal")
        assert drained.read_bytes().startswith(b"t,p,q,H\n")
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert_reaped()

    @pytest.mark.parametrize("failing_call", [1, 2])
    def test_failed_fork_formats_in_process(self, tmp_path, capsys, monkeypatch, use_cpus,
                                            failing_call):
        target = tmp_path / "trajectory.csv"
        argv = ["simulate", *LONG_SIM_FLAGS, "--out", str(target)]
        use_cpus(1)
        assert run_main(argv, capsys) == (0, "", "")
        expected = target.read_bytes()
        real_fork = os.fork
        calls = []

        def fork():  # fails as when the process-id limit is reached
            calls.append(None)
            if len(calls) == failing_call:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        use_cpus(2)
        assert run_main(argv, capsys) == (0, "", "")
        assert len(calls) == failing_call
        assert target.read_bytes() == expected
        assert_reaped()

    def test_failed_run_through_a_link_removes_the_file(self, tmp_path, capsys, monkeypatch,
                                                        use_cpus):
        # The file cut at a chunk boundary is removed, not the link that names it.
        target, link = tmp_path / "trajectory.csv", tmp_path / "link.csv"
        target.write_text("t,p,q,H\n")
        link.symlink_to(target)
        self.fail_second_chunk(monkeypatch, "signal")
        use_cpus(2)
        code, out, err = run_main(["simulate", *LONG_SIM_FLAGS, "--out", str(link)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: a worker process was killed by signal")
        assert link.is_symlink() and not target.exists()
        assert_reaped()

    @needs_dev_full
    def test_full_device_error_is_the_same_on_every_path(self, capsys, use_cpus):
        argv = ["simulate", *LONG_SIM_FLAGS, "--out", "/dev/full"]
        for cpus in (1, 2):
            use_cpus(cpus)
            code, out, err = run_main(argv, capsys)
            assert (code, out, err) == (2, "", f"error: cannot write '/dev/full': {ENOSPC}\n")

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--mass", "2"])
        assert excinfo.value.code == 2


class TestOrbit:
    def test_zero_energy(self, capsys):
        code, out, _ = run_main(["orbit", "--m", "5", "--g", "2", "--e", "0", "--p", "31"], capsys)
        assert code == 0
        assert out == "p=31 q=-0\n"


DEGENERATE = "degenerate orbit: m and g must both be nonzero for the chart q = -e/(m*g)"
MISSING = "/nonexistent/trajectory.csv"
# Each refused `orbit`, `act` and `verify` command line, and the one `simulate`
# refusal that cli makes itself, with the message of its error line.  Non-finite
# flags are in NUMBER_FLAGS, and the refusals of a simulate config in the corpus.
REFUSED = {
    "orbit-zero-mass": (["orbit", "--m", "0", "--g", "2", "--e", "-30", "--p", "31"], DEGENERATE),
    "orbit-zero-g": (["orbit", "--m", "5", "--g", "0", "--e", "-30", "--p", "31"], DEGENERATE),
    "orbit-overflowing-product": (["orbit", "--m", "1e200", "--g", "1e200", "--e", "5", "--p", "1"],
                                  "non-finite orbit parameter product m*g"),
    # m*g is about 7.0e-324 and rounds to 4.9e-324: q would print 42% too large.
    "orbit-subnormal-product": (["orbit", "--m", "1e-300", "--g", "7e-24", "--e=-1e-300",
                                 "--p", "0"], "subnormal orbit parameter product m*g"),
    # q = -e/(m*g) = -1e320 is not a double.
    "orbit-overflowing-chart": (["orbit", "--m", "1e-10", "--g", "1e-10", "--e", "1e300",
                                 "--p", "1"], "non-finite chart coordinate"),
    "act-zero-mass": (["act", "--mass", "0", "--g", "2", "--t", "3", "--h", "4", "--p", "1",
                       "--q", "2"], DEGENERATE),
    "act-overflowing-product": (["act", "--mass", "1e200", "--g", "1e200", "--t", "0", "--h", "1",
                                 "--p", "1", "--q", "2"], "non-finite orbit parameter product m*g"),
    "act-subnormal-product": (["act", "--mass", "1e-300", "--g", "7e-24", "--t", "1", "--h", "1",
                               "--p", "0", "--q", "0"], "subnormal orbit parameter product m*g"),
    # p + m*g*t = 1 + 1e310 is not a double.
    "act-overflowing-chart": (["act", "--mass", "1e200", "--g", "1e100", "--t", "1e10", "--h", "0",
                               "--p", "1", "--q", "0"], "non-finite chart coordinate"),
    "verify-zero-cases": (["verify", "--cases", "0"], "cases must be >= 1"),
    "simulate-missing-directory": (["simulate", *SIM_FLAGS, "--out", MISSING],
                                   f"cannot write {MISSING!r}: [Errno {errno.ENOENT}] "
                                   f"{os.strerror(errno.ENOENT)}: {MISSING!r}"),
}


@pytest.mark.parametrize("argv, message", REFUSED.values(), ids=list(REFUSED))
def test_refused_command_line_is_one_error_line(argv, message, capsys):
    assert run_main(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["orbit", "act", "simulate", "verify"])
def test_handlers_raise_refused_input(command, capsys):
    # Only cli.main turns a refusal into its error line and exit 2.
    rows = [row for row in REFUSED.values() if row[0][0] == command]
    assert rows
    for argv, message in rows:
        with pytest.raises(ValueError) as excinfo:
            getattr(cli, f"cmd_{command}")(cli.build_parser().parse_args(argv))
        assert (str(excinfo.value), *capsys.readouterr()) == (message, "", "")


@pytest.mark.parametrize("refused", ["orbit-zero-mass", "act-overflowing-chart",
                                     "verify-zero-cases", "simulate-missing-directory"])
def test_refused_command_line_through_the_module_entry(refused):
    # Orbit and verify run through `python -m aristotle`, act and simulate through `aristotle.cli`.
    argv, message = REFUSED[refused]
    module = "aristotle" if argv[0] in ("orbit", "verify") else "aristotle.cli"
    proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("dt", ["0.5", "inf", "nan", "-1"])
@pytest.mark.parametrize("mass, g", [("inf", "2"), ("1e400", "2"), ("nan", "2"), ("5", "-inf"),
                                     ("0", "2"), ("5", "0"), ("1e200", "1e200"),
                                     ("1e-200", "1e-200")])
def test_simulate_refuses_its_orbit_as_orbit_does_before_its_step(mass, g, dt, capsys):
    simulate = ["simulate", f"--mass={mass}", f"--g={g}", "--p0", "0", "--q0", "0",
                "--t-max", "1", f"--dt={dt}"]
    point = ["orbit", f"--m={mass}", f"--g={g}", "--e", "1", "--p", "1"]
    expected = run_main(point, capsys)
    assert expected[:2] == (2, "") and expected[2].startswith("error: ")
    assert run_main(simulate, capsys) == expected


def test_every_point_query_is_finite_or_refused(capsys):
    # Each flag a grid value or +-10**U(-320, 308.2): subnormal, huge and
    # zero orbit parameters, and chart points near overflow.
    rng = random.Random(19)
    answers = refusals = 0
    for _ in range(10000):
        command = rng.choice(sorted(cli._POINT_FLAGS))
        argv = [command]
        for name in cli._POINT_FLAGS[command]:
            value = (rng.choice(GRID_VALUES) if rng.random() < 0.5
                     else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320, 308.2))
            argv.append(f"{name}={value!r}")
        code, out, err = run_main(argv, capsys)
        if code == 0:
            point = re.fullmatch(r"p=(\S+) q=(\S+)\n", out)
            assert point and err == "" and all(math.isfinite(float(x)) for x in point.groups()), argv
            answers += 1
        else:
            assert (code, out) == (2, "") and re.fullmatch(r"error: [^\n]+\n", err), argv
            refusals += 1
    assert answers > 1000 and refusals > 1000


# Each number flag with a valid value, and what a non-finite one is refused as
# by the value class that the handler builds from it first.
NUMBER_FLAGS = {
    "orbit": [("--m", "5", "orbit parameter"), ("--g", "2", "orbit parameter"),
              ("--e", "-30", "dual coordinate"), ("--p", "31", "dual coordinate")],
    "act": [("--mass", "5", "orbit parameter"), ("--g", "2", "orbit parameter"),
            ("--t", "3", "group coordinate"), ("--h", "4", "group coordinate"),
            ("--p", "1", "chart coordinate"), ("--q", "2", "chart coordinate")],
    "simulate": [("--mass", "2", "orbit parameter"), ("--g", "3", "orbit parameter"),
                 ("--p0", "1", "configuration value p0"), ("--q0", "5", "configuration value q0"),
                 ("--t-max", "4", "configuration value t_max"),
                 ("--dt", "0.5", "configuration value dt")],
}


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "-nan", "1e400", "-1e400", "Infinity"])
@pytest.mark.parametrize("command", sorted(NUMBER_FLAGS))
def test_non_finite_flag_is_one_error_line(command, text, tmp_path, capsys):
    # Refused by the value class, as every other bad value is, not by argparse.
    target = tmp_path / "trajectory.csv"
    for flag, _, refusal in NUMBER_FLAGS[command]:
        argv = [command, *(f"{name}={text if name == flag else value}"
                           for name, value, _ in NUMBER_FLAGS[command])]
        argv += ["--out", str(target)] if command == "simulate" else []
        assert run_main(argv, capsys) == (2, "", f"error: non-finite {refusal}\n"), argv
    assert not target.exists()


def test_integrator_choices_are_the_dynamics_integrators(capsys):
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--help"])
    assert "--integrator {" + ",".join(dynamics.INTEGRATORS) + "}" in capsys.readouterr().out


class TestAct:
    def test_identity_echoes_input(self, capsys):
        argv = ["act", "--mass", "5", "--g", "2", "--t", "0", "--h", "0", "--p", "1", "--q", "2"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert out == "p=1 q=2\n"

    def test_composition_equals_summed_translation(self, capsys):
        first = ["act", "--mass", "5", "--g", "2", "--t", "1", "--h", "2", "--p", "1", "--q", "2"]
        code, out, _ = run_main(first, capsys)
        assert code == 0
        p_mid, q_mid = (chunk.split("=")[1] for chunk in out.split())
        second = ["act", "--mass", "5", "--g", "2", "--t", "2", "--h", "2", "--p", p_mid, "--q", q_mid]
        code, two_steps, _ = run_main(second, capsys)
        assert code == 0
        summed = ["act", "--mass", "5", "--g", "2", "--t", "3", "--h", "4", "--p", "1", "--q", "2"]
        code, one_step, _ = run_main(summed, capsys)
        assert code == 0
        assert two_steps == one_step


POINT_FLAG_NAMES = sorted({name for flags in cli._POINT_FLAGS.values() for name in flags})
ODD_TOKENS = ["-h", "--help", "--", "-", "=", "", "nan", "-nan", "inf", "1e400", "-1e400",
              "1=2", "-30", "-0", " 7", "1_0", "x", "orbit", "act"]
# Every prefix of a flag name: "-", "--", abbreviations, and "--m" inside "--mass".
FLAG_PREFIXES = st.sampled_from(POINT_FLAG_NAMES).flatmap(
    lambda name: st.sampled_from([name[:k] for k in range(1, len(name) + 1)]))
STRAY_TOKENS = (FLAG_PREFIXES | st.sampled_from(ODD_TOKENS)
                | st.tuples(FLAG_PREFIXES, st.sampled_from(ODD_TOKENS)).map("=".join))


@st.composite
def point_argvs(draw):
    """A well-formed `orbit`/`act` command line, in both flag forms, with up to
    three tokens then inserted (stray, or a duplicate of one there) or dropped."""
    command = draw(st.sampled_from(sorted(cli._POINT_FLAGS)))
    argv = [command]
    for name in draw(st.permutations(cli._POINT_FLAGS[command])):
        value = repr(draw(st.floats()))
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    for _ in range(draw(st.integers(0, 3))):
        if argv and draw(st.booleans()):
            del argv[draw(st.integers(0, len(argv) - 1))]
        else:
            argv.insert(draw(st.integers(0, len(argv))), draw(STRAY_TOKENS | st.sampled_from(argv)))
    return argv


def _fields(args):
    """A namespace's fields by repr, which tells -0.0 from 0.0."""
    return {name: repr(value) for name, value in vars(args).items()}


class TestPointQuery:
    """`main` reads a well-formed `orbit`/`act` call without argparse; what it
    accepts, argparse must read the same way."""

    @settings(max_examples=1000, deadline=None, database=None)
    @given(point_argvs())
    def test_accepted_calls_are_read_as_argparse_reads_them(self, argv):
        args = cli._point_query(argv)
        if args is not None:
            assert _fields(args) == _fields(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["orbit", "--m", "5", "--g", "2", "--e", "-30", "--p", "31"],  # separate negative value
        ["orbit", "--m=5", "--g=2", "--e=-30", "--p=31", "--p=31"],  # duplicate
        ["orbit", "--m=5", "--g=2", "--e=-30"],  # missing flag
        ["orbit", "--m=5", "--g=2", "--e=-30", "--p=31", "x"],  # stray token
        ["orbit", "--m=5", "--g=2", "--e=-30", "--p=31", "--"],
        ["orbit", "--m=5", "--g=2", "--e=-30", "--p=abc"],  # not a number
        ["orbit", "--m=5", "--g=2", "--e=-30", "--p"],  # no value
        ["orbit", "--m=5", "--g=2", "--e=-30", "--p=1=2"],
        ["orbit", "-h"],
        ["act", "--ma=5", "--g=2", "--t=3", "--h=4", "--p=1", "--q=2"],  # abbreviation
        ["act", "--m=5", "--g=2", "--t=3", "--h=4", "--p=1", "--q=2"],
        ["simulate", "--mass=5"],
        [],
    ])
    def test_other_command_lines_are_left_to_argparse(self, argv):
        assert cli._point_query(argv) is None

    @pytest.mark.parametrize("argv", [
        ["orbit", "--m=5", "--g=2", "--e=-30", "--p=inf"],
        ["orbit", "--m=5", "--g=2", "--e=-30", "--p", "1e400"],
    ])
    def test_non_finite_values_are_read_and_refused(self, argv, capsys):
        assert _fields(cli._point_query(argv)) == _fields(cli.build_parser().parse_args(argv))
        assert run_main(argv, capsys) == (2, "", "error: non-finite dual coordinate\n")

    def test_benchmark_point_queries_are_accepted(self, monkeypatch):
        monkeypatch.syspath_prepend(PERFBENCH)
        from workloads import point_calls
        for seed in (1, 2):
            for call in islice(point_calls(seed), 100):
                args = cli._point_query(list(call.args))
                assert args is not None, call.args
                assert _fields(args) == _fields(cli.build_parser().parse_args(list(call.args)))


@pytest.mark.parametrize("argv", [["orbit", "--m=5", "--g=2", "--e=-30", "--p=31"],
                                  ["verify", "--cases", "2"], ["simulate", *SIM_FLAGS]],
                         ids=["point-query", "verify", "simulate"])
def test_handlers_are_looked_up_when_called(monkeypatch, argv):
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: 7)
    assert cli.main(argv) == 7


class TestVerifyCommand:
    def test_tol_is_usage_error(self, capsys):
        # Each property keeps the tolerance class it registers: no run replaces it.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--tol", "1e-3"])
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out) == (2, "")
        assert captured.err.startswith("usage: aristotle ")
        assert captured.err.endswith("\naristotle: error: unrecognized arguments: --tol 1e-3\n")


# Each subcommand's options as its --help lists them, -h/--help included.
OPTIONS = {
    "verify": {"--help", "--seed", "--cases"},
    "simulate": {"--help", "--mass", "--g", "--p0", "--q0", "--t-max", "--dt",
                 "--integrator", "--format", "--out"},
    "orbit": {"--help", "--m", "--g", "--e", "--p"},
    "act": {"--help", "--mass", "--g", "--t", "--h", "--p", "--q"},
}


@pytest.mark.parametrize("subcommand", OPTIONS)
def test_options_are_pinned(subcommand, capsys):
    # A new option fails here until this set is changed with it.
    with pytest.raises(SystemExit) as excinfo:
        cli.main([subcommand, "--help"])
    assert excinfo.value.code == 0
    assert set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) == OPTIONS[subcommand]


class TestSubprocess:
    """End-to-end through a real interpreter, exercising the module entry."""

    def test_simulate_reader_closes_pipe_early(self, cli_command):
        # 1e5 rows overflow the pipe buffer, so writing fails once the reader
        # is gone: in process with one CPU, in a forked worker with two.
        for cpus in (1, 2):
            proc = subprocess.Popen(
                cli_command(["simulate", *LONG_SIM_FLAGS], cpus),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            assert proc.stdout.readline() == b"t,p,q,H\n"
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == 0
            assert err == b""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_output_in_a_non_ascii_encoding(self, cli_command, fmt):
        # UTF-16 writes ASCII as two bytes a character, so the rows are
        # formatted in process whatever the CPU count.
        args = ["simulate", *LONG_SIM_FLAGS, "--format", fmt]
        env = {**os.environ, "PYTHONIOENCODING": "utf-16"}
        one, two = (subprocess.run(cli_command(args, cpus), capture_output=True, env=env,
                                   timeout=60) for cpus in (1, 2))
        assert (one.returncode, one.stderr, two.returncode, two.stderr) == (0, b"", 0, b"")
        assert two.stdout == one.stdout
        plain = subprocess.run(cli_command(args, 2), capture_output=True, timeout=60)
        assert one.stdout.decode("utf-16") == plain.stdout.decode()

    def test_verify_exit_status(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aristotle", "verify", "--seed", "42", "--cases", "25"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize("argv", [
        ["orbit", "--m", "5", "--g", "2", "--e", "-30", "--p", "31"],
        ["orbit", "--help"],
        ["act", "--ma=5", "--g=2", "--t=3", "--h=4", "--p=1", "--q=2"],
    ], ids=["separate-negative", "help", "abbreviation"])
    def test_other_command_lines_print_what_argparse_prints(self, argv):
        head = "from aristotle import cli\n"
        main = head + "code = cli.main(sys.argv[1:]); assert 'argparse' in sys.modules; sys.exit(code)"
        reference = head + ("args = cli.build_parser().parse_args(sys.argv[1:]); "
                             "sys.exit(getattr(cli, f'cmd_{args.subcommand}')(args))")
        got, expected = (run_bare(code, *argv, text=False) for code in (main, reference))
        assert (got.returncode, got.stdout, got.stderr) == (
            expected.returncode, expected.stdout, expected.stderr)

    @pytest.fixture(scope="class")
    def cli_attributes(self, measured_python):
        """One bare interpreter reads cli.dynamics, then cli.verify, then a
        missing name: name -> (loaded before the read, the read is the loaded
        module), and whether it loaded anything outside the standard library
        or tried numpy."""
        out, outside, seen = measured_python(
            "import aristotle.cli as cli\n"
            "for name in ('dynamics', 'verify'):\n"
            "    before = f'aristotle.{name}' in sys.modules\n"
            "    print(name, before, getattr(cli, name) is sys.modules[f'aristotle.{name}'])\n"
            "print('no_such_name', hasattr(cli, 'no_such_name'))")
        seams = dict(line.split(" ", 1) for line in out.splitlines())
        return seams, (outside, seen & {"numpy"}) == (set(), set())

    def test_dynamics_is_loaded_as_the_attribute_cli_dynamics(self, cli_attributes):
        seams, stdlib_only = cli_attributes
        assert (seams["dynamics"], seams["no_such_name"], stdlib_only) == (
            "False True", "False", True)

    def test_verify_is_loaded_as_the_attribute_cli_verify(self, cli_attributes):
        # Read after cli.dynamics, so loading dynamics did not load verify.
        assert cli_attributes[0]["verify"] == "False True"


def _calls(*argvs):
    """Code that runs each argv through cli.main, which must return 0."""
    return "from aristotle import cli\n" + "".join(f"assert cli.main({argv!r}) == 0\n" for argv in argvs)


# The import budget of each entry point, which guards point_queries' import
# floor: id -> (code, the stdout it writes as a regular expression, the modules
# it must not import).  A module outside the standard library fails every row.
IMPORT_BUDGETS = {
    "import-cli": ("import aristotle.cli", "",
                   "aristotle.verify aristotle.dynamics aristotle.algebra aristotle.write argparse"
                   " dataclasses inspect typing __future__ multiprocessing concurrent.futures"),
    "import-write": ("import aristotle.write", "", "aristotle.cli"),
    "point-queries": (_calls(["orbit", "--m=5", "--g=2", "--e=-30", "--p=31"],
                             ["act", "--mass", "5", "--g", "2", "--t", "3", "--h", "4", "--p", "1",
                              "--q", "2"]),
                      "p=31 q=3\np=31 q=6\n",
                      "argparse gettext locale aristotle.algebra aristotle.dynamics"),
    "orbit-through-argparse": (_calls(["orbit", "--m", "5", "--g", "2", "--e", "-30", "--p", "31"]),
                               "p=31 q=3\n", "aristotle.algebra aristotle.dynamics"),
    "simulate-out": (_calls(["simulate", *SIM_FLAGS, "--out", "t.csv"])
                     + "print(open('t.csv').read(), end='')", r"t,p,q,H\n(.*\n)*4,25,5,30\n",
                     "aristotle.verify aristotle.algebra dataclasses"),
    "verify": (_calls(["verify", "--cases", "2"]),
               r"(PASS .*\n)+\d+ properties, 0 failed \(seed=42, cases=2\)\n", ""),
}


@pytest.mark.parametrize("code, stdout, forbidden", IMPORT_BUDGETS.values(),
                         ids=list(IMPORT_BUDGETS))
def test_import_budget(code, stdout, forbidden, measured_python):
    """Each entry point, run where `import numpy` raises ImportError, writes
    its answer, loads only the standard library, and tries to import neither
    numpy (as a guarded import would) nor a module its row forbids."""
    out, outside, seen = measured_python(code)
    assert re.fullmatch(stdout, out), out
    assert (outside, seen & {"numpy", *forbidden.split()}) == (set(), set())


@needs_dev_full
@pytest.mark.parametrize("argv, cpus", [
    (["orbit", "--m", "5", "--g", "2", "--e", "-30", "--p", "31"], 1),
    (["act", "--mass", "5", "--g", "2", "--t", "3", "--h", "4", "--p", "1", "--q", "2"], 1),
    (["verify", "--cases", "2"], 1),
    (["simulate", *SIM_FLAGS], 2),
    (["simulate", *LONG_SIM_FLAGS], 1),
    (["simulate", *LONG_SIM_FLAGS], 2),
], ids=["orbit", "act", "verify", "simulate-one-chunk", "simulate-in-process",
        "simulate-forked"])
def test_stdout_write_error_is_input_error(cli_command, argv, cpus):
    # Buffered, the error surfaces when stdout is flushed; unbuffered, at once.
    for unbuffered in ("", "1"):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(cli_command(argv, cpus), stdout=full, stderr=subprocess.PIPE,
                                  env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
                                  text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (2, f"error: cannot write stdout: {ENOSPC}\n")


def closed_stdout(command):
    """The command run by a shell that starts it with descriptor 1 closed, so
    its interpreter has no sys.stdout."""
    return ["sh", "-c", '"$@" >&-', "sh", *command]


def recognized(argv):
    """argv with each flag joined to its value by "=", which the orbit/act
    recognizer reads; REFUSED's separate `--e -30` goes through argparse."""
    return [argv[0], *map("=".join, zip(argv[1::2], argv[2::2]))]


@pytest.mark.parametrize("argv", [
    ["orbit", "--m", "5", "--g", "2", "--e=-30", "--p", "31"],
    recognized(REFUSED["orbit-zero-mass"][0]),
    ["act", "--mass", "5", "--g", "2", "--t", "3", "--h", "4", "--p", "1", "--q", "2"],
    ["verify", "--cases", "2"],
    ["simulate", *SIM_FLAGS],
], ids=["orbit", "orbit-degenerate", "act", "verify", "simulate"])
def test_closed_stdout_is_input_error(cli_command, argv):
    proc = subprocess.run(closed_stdout(cli_command(argv, 2)), stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write stdout: it is closed\n")


@pytest.mark.parametrize("flags", [SIM_FLAGS, LONG_SIM_FLAGS], ids=["one-chunk", "chunks"])
def test_closed_stdout_does_not_stop_out(cli_command, tmp_path, flags):
    # The file may be opened as descriptor 1; the forked workers write it all the same.
    for cpus in (1, 2):
        written = []
        for command in (cli_command, lambda *a: closed_stdout(cli_command(*a))):
            out = tmp_path / f"{len(written)}.csv"
            proc = subprocess.run(command(["simulate", *flags, "--out", str(out)], cpus),
                                  capture_output=True, timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
            written.append(out.read_bytes())
        assert written[0] == written[1]


@pytest.mark.parametrize("argv", [
    recognized(REFUSED["orbit-zero-mass"][0]),
    REFUSED["verify-zero-cases"][0],
    REFUSED["simulate-missing-directory"][0],
], ids=["orbit", "verify", "simulate"])
@pytest.mark.parametrize("stderr", [pytest.param("full", marks=needs_dev_full), "closed"])
def test_unwritable_stderr_keeps_exit_status(cli_command, argv, stderr):
    # The error line is lost, and never written to stdout in its place.  Buffered,
    # the line that could not be written stays for the flush at exit.
    for unbuffered in ("", "1"):
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        if stderr == "full":
            with open("/dev/full", "w") as full:
                proc = subprocess.run(cli_command(argv, 2), stdout=subprocess.PIPE, stderr=full,
                                      env=env, timeout=60)
        else:  # descriptor 2 closed before exec: the interpreter has no sys.stderr
            proc = subprocess.run(cli_command(argv, 2), stdout=subprocess.PIPE, env=env,
                                  preexec_fn=lambda: os.close(2), timeout=60)
        assert (proc.returncode, proc.stdout) == (2, b""), unbuffered


@contextlib.contextmanager
def running_group(command, **kwargs):
    """The command started in a process group of its own, every process of
    which is killed on exit, so no forked worker outlives the test."""
    proc = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        yield proc
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate(timeout=60)


def test_ctrl_c_is_reported_once(cli_command):
    # SIGINT reaches the parent and both forked workers, as Ctrl-C does; only
    # the parent reports it.  SIGINT is restored to its default in case this
    # suite runs with it ignored, which the interpreter would then keep.
    with running_group(cli_command(["simulate", *ENDLESS_SIM_FLAGS], 2),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL)) as proc:
        assert len(proc.stdout.read(1 << 20)) == 1 << 20  # many chunks: both workers run
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGINT  # the interpreter's exit on an uncaught Ctrl-C
    assert err.count(b"Traceback") == 1 and err.count(b"KeyboardInterrupt") == 1, err.decode()


def test_killed_parent_stops_its_workers(cli_command, tmp_path):
    target = tmp_path / "trajectory.csv"

    def size():
        return target.stat().st_size if target.exists() else 0

    with running_group(cli_command(["simulate", *ENDLESS_SIM_FLAGS, "--out", str(target)], 2),
                       stderr=subprocess.PIPE) as proc:
        deadline = time.monotonic() + 60
        while size() < 1 << 20:  # many chunks: both workers run
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.kill()
        proc.wait(timeout=60)
        sizes, deadline = [size()], time.monotonic() + 10
        while len(sizes) < 2 or sizes[-1] != sizes[-2]:
            assert time.monotonic() < deadline, f"still growing: {sizes}"
            time.sleep(0.5)
            sizes.append(size())


def test_interrupted_write_stops_its_workers(use_cpus, tmp_path):
    # A library caller survives the interrupt, here a SIGALRM that raises
    # KeyboardInterrupt as a Ctrl-C does, so its workers never see a new parent.
    target = tmp_path / "trajectory.csv"
    cfg = dynamics.SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=100.0, dt=1e-6)
    use_cpus(2)
    with (open(target, "w", encoding="utf-8") as fh, pytest.raises(KeyboardInterrupt),
          deadline(0.5, KeyboardInterrupt)):
        write.write_trajectory(fh, cfg, "csv")
    assert_reaped()
    size = target.stat().st_size
    time.sleep(0.5)
    assert target.stat().st_size == size > 0


@pytest.mark.parametrize("fmt", ["xml", "CSV", "", None])
def test_unknown_format_is_refused_before_writing(fmt):
    # Once written as JSON; the CLI's --format choices never pass one.
    cfg = dynamics.SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=4.0, dt=0.5)
    fh = io.StringIO()
    with pytest.raises(ValueError, match=r"^unknown format .*; expected one of \('csv', 'json'\)$"):
        write.write_trajectory(fh, cfg, fmt)
    assert fh.getvalue() == ""


@needs_dev_full
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_failed_writes_leave_no_descriptor_open(capsys):
    point = ["orbit", "--m", "5", "--g", "2", "--e", "-30", "--p", "31"]
    degenerate = REFUSED["orbit-zero-mass"][0]  # through argparse
    calls = [(point, contextlib.redirect_stdout)] * 3 + [(degenerate, contextlib.redirect_stderr)] * 3
    before = len(os.listdir("/proc/self/fd"))
    for argv, redirect in calls:
        # Line-buffered, so that the write fails in the call, not when the file is closed.
        with open("/dev/full", "w", buffering=1) as full, redirect(full):
            assert cli.main(argv) == 2
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr() == ("", f"error: cannot write stdout: {ENOSPC}\n" * 3)
