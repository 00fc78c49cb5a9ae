"""Command-line behavior: output formats, exit codes, determinism."""

import errno
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aristotle import cli, dynamics, write

SIM_FLAGS = ["--mass", "2", "--g", "3", "--p0", "1", "--q0", "5", "--dt", "0.5", "--t-max", "4"]
# 1e5 rows: 25 chunks, and more than a pipe buffer holds.
LONG_SIM_FLAGS = ["--mass", "2", "--g", "3", "--p0", "1", "--q0", "5", "--dt", "1e-4", "--t-max", "10"]
ENOSPC = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_csv_worked_trajectory(self, capsys):
        code, out, _ = run_main(["simulate", *SIM_FLAGS], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,p,q,H"
        assert len(lines) == 10  # header + 9 samples
        assert lines[-1] == "4,25,5,30"
        assert out.endswith("\n")

    def test_csv_zero_horizon(self, capsys):
        argv = ["simulate", "--mass", "2", "--g", "3", "--p0", "1", "--q0", "5",
                "--dt", "0.5", "--t-max", "0"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert out == "t,p,q,H\n0,1,5,30\n"

    def test_csv_row_count_with_fractional_horizon(self, capsys):
        argv = ["simulate", "--mass", "2", "--g", "3", "--p0", "1", "--q0", "5",
                "--dt", "0.3", "--t-max", "1"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        rows = out.splitlines()[1:]
        # floor(1/0.3) + 1 grid samples plus the exact final sample.
        assert len(rows) == 5
        assert rows[-1].startswith("1,")

    def test_json_records(self, capsys):
        code, out, _ = run_main(["simulate", *SIM_FLAGS, "--format", "json"], capsys)
        assert code == 0
        records = json.loads(out)
        assert len(records) == 9
        assert all(sorted(r.keys()) == ["H", "p", "q", "t"] for r in records)
        assert records[-1] == {"t": 4.0, "p": 25.0, "q": 5.0, "H": 30.0}

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "trajectory.csv"
        code, out, _ = run_main(["simulate", *SIM_FLAGS, "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[-1] == "4,25,5,30"

    def test_unwritable_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "trajectory.csv"
        code, _, err = run_main(["simulate", *SIM_FLAGS, "--out", str(target)], capsys)
        assert code == 2
        assert "error" in err

    def test_negative_dt(self, capsys):
        argv = ["simulate", "--mass", "2", "--g", "3", "--p0", "1", "--q0", "5",
                "--dt", "-1", "--t-max", "4"]
        code, _, err = run_main(argv, capsys)
        assert code == 2
        assert "dt" in err

    def test_overflowing_trajectory_is_input_error(self, capsys):
        argv = ["simulate", "--mass", "10", "--g", "9.81", "--p0", "1", "--q0", "5",
                "--dt", "1e307", "--t-max", "1e308"]
        code, _, err = run_main(argv, capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_energy_is_input_error(self, tmp_path, capsys, fmt):
        # m*g = 1e300 is finite, but H = m*g*q0 overflows.
        argv = ["simulate", "--mass", "1e200", "--g", "1e100", "--p0", "1", "--q0", "1e10",
                "--dt", "1", "--t-max", "0", "--format", fmt]
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        target = tmp_path / f"trajectory.{fmt}"
        code, _, _ = run_main([*argv, "--out", str(target)], capsys)
        assert code == 2
        assert not target.exists()

    def test_overflowing_sample_count_is_input_error(self, capsys):
        argv = ["simulate", "--mass", "1", "--g", "1", "--p0", "1", "--q0", "1",
                "--dt", "1e-300", "--t-max", "1e10"]
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

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
        assert 0 < target.stat().st_size < 1_000_000
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @needs_dev_full
    def test_full_device_error_is_the_same_on_every_path(self, capsys, use_cpus):
        argv = ["simulate", *LONG_SIM_FLAGS, "--out", "/dev/full"]
        for cpus in (1, 2):
            use_cpus(cpus)
            code, out, err = run_main(argv, capsys)
            assert (code, out, err) == (2, "", f"error: cannot write '/dev/full': {ENOSPC}\n")

    def test_non_finite_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--mass", "nan", "--g", "3", "--p0", "1",
                      "--q0", "5", "--dt", "0.5", "--t-max", "4"])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--mass", "2"])
        assert excinfo.value.code == 2

    def test_integrators_agree(self, capsys):
        code, exact_out, _ = run_main(["simulate", *SIM_FLAGS], capsys)
        assert code == 0
        code, euler_out, _ = run_main(
            ["simulate", *SIM_FLAGS, "--integrator", "symplectic_euler"], capsys
        )
        assert code == 0
        assert exact_out == euler_out


class TestOrbit:
    def test_worked_point(self, capsys):
        code, out, _ = run_main(["orbit", "--m", "5", "--g", "2", "--e", "-30", "--p", "31"], capsys)
        assert code == 0
        assert out == "p=31 q=3\n"

    def test_zero_energy(self, capsys):
        code, out, _ = run_main(["orbit", "--m", "5", "--g", "2", "--e", "0", "--p", "31"], capsys)
        assert code == 0
        assert out == "p=31 q=-0\n"

    def test_degenerate_orbit(self, capsys):
        code, _, err = run_main(["orbit", "--m", "0", "--g", "2", "--e", "-30", "--p", "31"], capsys)
        assert code == 2
        assert "degenerate orbit" in err

    def test_degenerate_gravity(self, capsys):
        code, _, err = run_main(["orbit", "--m", "5", "--g", "0", "--e", "-30", "--p", "31"], capsys)
        assert code == 2
        assert "degenerate orbit" in err


@pytest.mark.parametrize("argv", [
    ["orbit", "--m", "1e200", "--g", "1e200", "--e", "5", "--p", "1"],
    ["act", "--mass", "1e200", "--g", "1e200", "--t", "0", "--h", "1", "--p", "1", "--q", "2"],
    ["simulate", "--mass", "1e200", "--g", "1e200", "--p0", "1", "--q0", "0",
     "--dt", "1", "--t-max", "0"],
])
def test_overflowing_orbit_product_is_input_error(argv, capsys):
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "m*g" in err


@pytest.mark.parametrize("argv", [
    ["orbit", "--m", "1e-300", "--g", "7e-24", "--e=-1e-300", "--p", "0"],
    ["act", "--mass", "1e-300", "--g", "7e-24", "--t", "1", "--h", "1", "--p", "0", "--q", "0"],
    ["simulate", "--mass", "1e-300", "--g", "7e-24", "--p0", "0", "--q0", "1e23",
     "--t-max", "1e23", "--dt", "1e23"],
])
def test_subnormal_orbit_product_is_input_error(argv, capsys):
    # m*g is about 7.0e-324 and rounds to 4.9e-324: orbit would print q 42% too
    # large, and simulate H 29% too small.
    code, out, err = run_main(argv, capsys)
    assert (code, out, err) == (2, "", "error: subnormal orbit parameter product m*g\n")


def test_integrator_choices_are_the_dynamics_integrators(capsys):
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--help"])
    assert "--integrator {" + ",".join(dynamics.INTEGRATORS) + "}" in capsys.readouterr().out


class TestAct:
    def test_worked_point(self, capsys):
        argv = ["act", "--mass", "5", "--g", "2", "--t", "3", "--h", "4", "--p", "1", "--q", "2"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert out == "p=31 q=6\n"

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

    def test_zero_mass_rejected(self, capsys):
        argv = ["act", "--mass", "0", "--g", "2", "--t", "3", "--h", "4", "--p", "1", "--q", "2"]
        code, _, err = run_main(argv, capsys)
        assert code == 2
        assert "degenerate orbit" in err


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
        value = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    for _ in range(draw(st.integers(0, 3))):
        if argv and draw(st.booleans()):
            del argv[draw(st.integers(0, len(argv) - 1))]
        else:
            argv.insert(draw(st.integers(0, len(argv))), draw(STRAY_TOKENS | st.sampled_from(argv)))
    return argv


def _fields(args):
    """A namespace's fields by repr, which tells -0.0 from 0.0 and names the handler."""
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
        ["orbit", "--m=5", "--g=2", "--e=-30", "--p=inf"],
        ["orbit", "--m=5", "--g=2", "--e=-30", "--p", "1e400"],
        ["orbit", "--m=5", "--g=2", "--e=-30", "--p=1=2"],
        ["orbit", "-h"],
        ["act", "--ma=5", "--g=2", "--t=3", "--h=4", "--p=1", "--q=2"],  # abbreviation
        ["act", "--m=5", "--g=2", "--t=3", "--h=4", "--p=1", "--q=2"],
        ["simulate", "--mass=5"],
        [],
    ])
    def test_other_command_lines_are_left_to_argparse(self, argv):
        assert cli._point_query(argv) is None

    def test_benchmark_point_queries_are_accepted(self, monkeypatch):
        monkeypatch.syspath_prepend(PERFBENCH)
        from workloads import point_calls
        for seed in (1, 2):
            for call in islice(point_calls(seed), 100):
                args = cli._point_query(list(call.args))
                assert args is not None, call.args
                assert _fields(args) == _fields(cli.build_parser().parse_args(list(call.args)))

    def test_handlers_are_looked_up_when_called(self, monkeypatch):
        monkeypatch.setattr(cli, "cmd_orbit", lambda args: 7)
        assert cli.main(["orbit", "--m=5", "--g=2", "--e=-30", "--p=31"]) == 7


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_main(["verify", "--seed", "42", "--cases", "25"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert "0 failed" in lines[-1]

    def test_byte_identical_given_same_flags(self, capsys):
        code, first, _ = run_main(["verify", "--seed", "11", "--cases", "25"], capsys)
        assert code == 0
        code, second, _ = run_main(["verify", "--seed", "11", "--cases", "25"], capsys)
        assert code == 0
        assert first == second

    def test_zero_cases_is_usage_error(self, capsys):
        code, _, err = run_main(["verify", "--cases", "0"], capsys)
        assert code == 2
        assert "cases" in err

    def test_nonpositive_tol_is_usage_error(self, capsys):
        code, _, err = run_main(["verify", "--cases", "5", "--tol", "-1"], capsys)
        assert code == 2
        assert "tol" in err


class TestSubprocess:
    """End-to-end through a real interpreter, exercising the module entry."""

    def test_simulate_pipeline(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aristotle.cli", "simulate", *SIM_FLAGS],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "4,25,5,30"

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

    def test_verify_exit_status(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aristotle", "verify", "--seed", "42", "--cases", "25"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0

    def test_import_does_not_load_numpy(self):
        code = "import sys, aristotle.cli; sys.exit('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_import_does_not_load_the_suite_or_dataclasses(self):
        # -S: a .pth file run by `site` could import these itself.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import aristotle.cli\n"
                "print(sorted({'aristotle.verify', 'aristotle.dynamics', 'aristotle.algebra',"
                " 'aristotle.write', 'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_writer_does_not_load_cli(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import aristotle.write\n"
                "print('aristotle.cli' in sys.modules)")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_verify_is_loaded_as_the_attribute_cli_verify(self):
        code = ("import sys, aristotle.cli as cli\n"
                "assert 'aristotle.verify' not in sys.modules\n"
                "assert cli.verify is sys.modules['aristotle.verify']\n"
                "assert not hasattr(cli, 'no_such_name')\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_orbit_and_act_load_neither_dynamics_nor_algebra(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import aristotle.orbit\n"
                "print('aristotle.algebra' in sys.modules)\n"
                "from aristotle import cli\n"
                "cli.main(['orbit', '--m', '5', '--g', '2', '--e', '-30', '--p', '31'])\n"
                "cli.main(['act', '--mass', '5', '--g', '2', '--t', '3', '--h', '4',"
                " '--p', '1', '--q', '2'])\n"
                "print(sorted({'aristotle.algebra', 'aristotle.dynamics'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "False\np=31 q=3\np=31 q=6\n[]\n", "")

    def test_point_queries_load_no_argparse(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); from aristotle import cli\n"
                "cli.main(['orbit', '--m=5', '--g=2', '--e=-30', '--p=31'])\n"
                "cli.main(['act', '--mass=5', '--g=2', '--t=3', '--h=4', '--p=1', '--q=2'])\n"
                "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "p=31 q=3\np=31 q=6\n[]\n", "")

    @pytest.mark.parametrize("argv", [
        ["orbit", "--m", "5", "--g", "2", "--e", "-30", "--p", "31"],
        ["orbit", "--help"],
        ["act", "--ma=5", "--g=2", "--t=3", "--h=4", "--p=1", "--q=2"],
    ], ids=["separate-negative", "help", "abbreviation"])
    def test_other_command_lines_print_what_argparse_prints(self, argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        head = f"import sys; sys.path.insert(0, {src!r}); from aristotle import cli\n"
        main = head + "code = cli.main(sys.argv[1:]); assert 'argparse' in sys.modules; sys.exit(code)"
        reference = head + "args = cli.build_parser().parse_args(sys.argv[1:]); sys.exit(args.func(args))"
        got, expected = (subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True)
                         for code in (main, reference))
        assert (got.returncode, got.stdout, got.stderr) == (
            expected.returncode, expected.stdout, expected.stderr)

    def test_dynamics_is_loaded_as_the_attribute_cli_dynamics(self):
        code = ("import sys, aristotle.cli as cli\n"
                "assert 'aristotle.dynamics' not in sys.modules\n"
                "assert cli.dynamics is sys.modules['aristotle.dynamics']\n"
                "assert not hasattr(cli, 'no_such_name')\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_import_does_not_load_process_pools(self):
        code = ("import sys, aristotle.cli\n"
                "sys.exit(bool({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_runs_without_numpy(self):
        # A None entry in sys.modules makes `import numpy` raise ImportError.
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from aristotle.cli import main\n"
            "assert main(['orbit', '--m', '5', '--g', '2', '--e', '-30', '--p', '31']) == 0\n"
            "assert main(['verify', '--cases', '5']) == 0\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("p=31 q=3\n")
        assert proc.stdout.endswith("0 failed (seed=42, cases=5)\n")

    def test_usage_error_exit_status(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aristotle.cli", "orbit", "--m", "0", "--g", "2",
             "--e", "1", "--p", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


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


@pytest.mark.parametrize("argv", [
    ["orbit", "--m", "5", "--g", "2", "--e=-30", "--p", "31"],
    ["orbit", "--m", "0", "--g", "2", "--e=-30", "--p", "31"],
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
