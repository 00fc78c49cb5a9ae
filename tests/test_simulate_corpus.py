"""Byte-identity corpus for `aristotle simulate`: the one pin of its stdout.

The digests were taken from the implementation that built every record in
memory and wrote the whole payload at once, before output was streamed.
The streaming writer must reproduce those bytes exactly: both integrators,
both formats, a horizon that is a whole number of steps ("worked"), a
fractional horizon, t_max = 0, magnitudes where repr switches to exponent
form, outputs spanning several write chunks, and the error line of each
refused config, which creates no --out file either.

The "worked" row is the README example, whose last CSV row is 4,25,5,30.
The drift is constant, so the exact and the Euler bytes agree on "worked",
"fractional" and "zero_horizon": the two integrators share those digests.
"""

import hashlib
import os
import subprocess

import pytest

from aristotle import cli

FLAGS = {
    "worked": ["--mass", "2", "--g", "3", "--p0", "1", "--q0", "5", "--dt", "0.5", "--t-max", "4"],
    "fractional": ["--mass", "2", "--g", "3", "--p0", "1", "--q0", "5", "--dt", "0.3", "--t-max", "1"],
    "zero_horizon": ["--mass", "2", "--g", "3", "--p0", "1", "--q0", "5", "--dt", "0.5", "--t-max", "0"],
    "irregular": ["--mass", "1.7", "--g", "-9.81", "--p0", "-3.25", "--q0", "0.125",
                  "--dt", "0.0137", "--t-max", "2.5"],
    "magnitudes": ["--mass", "1e150", "--g", "3e100", "--p0", "9.99e15", "--q0=-7e-200",
                   "--dt", "2.5e-250", "--t-max", "1e-248"],
    "near_1e16": ["--mass", "1", "--g", "1e14", "--p0", "9.99e15", "--q0", "1e16",
                  "--dt", "0.25", "--t-max", "3"],
    "multi_chunk": ["--mass", "-0.731", "--g", "2.5", "--p0", "4.125", "--q0", "-6.5",
                    "--dt", "0.001", "--t-max", "20.0007"],
    "far_end_overflow": ["--mass", "10", "--g", "9.81", "--p0", "1", "--q0", "5",
                         "--dt", "1e307", "--t-max", "1e308"],
}

# (FLAGS key, integrator, format, exit code, stderr, sha256 of stdout)
CORPUS = [
    ("worked", "exact", "csv", 0, "",
     "7f523a53add09130375f795bcd790dfd619287f51b6d5c95c21823f337f133a7"),
    ("worked", "exact", "json", 0, "",
     "2fa17aa84fc080a4b368b70354d51c1ae4453f29f38c3951367e486dc50c8b94"),
    ("worked", "symplectic_euler", "csv", 0, "",
     "7f523a53add09130375f795bcd790dfd619287f51b6d5c95c21823f337f133a7"),
    ("worked", "symplectic_euler", "json", 0, "",
     "2fa17aa84fc080a4b368b70354d51c1ae4453f29f38c3951367e486dc50c8b94"),
    ("fractional", "exact", "csv", 0, "",
     "60f2781686d2e1ce1fd36fdd0a70048df8357fed6f6506a31808eabc32150e5c"),
    ("fractional", "exact", "json", 0, "",
     "521758fe21334b78a1973a5f3e0c193d1fde2ed9fbfc2ea6ebbe7476968d6fe8"),
    ("fractional", "symplectic_euler", "csv", 0, "",
     "60f2781686d2e1ce1fd36fdd0a70048df8357fed6f6506a31808eabc32150e5c"),
    ("fractional", "symplectic_euler", "json", 0, "",
     "521758fe21334b78a1973a5f3e0c193d1fde2ed9fbfc2ea6ebbe7476968d6fe8"),
    ("zero_horizon", "exact", "csv", 0, "",
     "cb0d1a3453d9b88eba0211ca008fbf16457c60744b49c1d6ed1184a8df4d8604"),
    ("zero_horizon", "exact", "json", 0, "",
     "3385ecd52cd7db5a8c58eb1886f74150994d06e69ecd0729abc39ab62f182344"),
    ("zero_horizon", "symplectic_euler", "csv", 0, "",
     "cb0d1a3453d9b88eba0211ca008fbf16457c60744b49c1d6ed1184a8df4d8604"),
    ("zero_horizon", "symplectic_euler", "json", 0, "",
     "3385ecd52cd7db5a8c58eb1886f74150994d06e69ecd0729abc39ab62f182344"),
    ("irregular", "exact", "csv", 0, "",
     "5c7b1c2a427545532faaf3901e094e881fba12e682df98f493ae594cecda1fdb"),
    ("irregular", "exact", "json", 0, "",
     "3b335c58db8f71473afcc2bfbe41df0314207bffc5b19537fb628350d3694613"),
    ("irregular", "symplectic_euler", "csv", 0, "",
     "5a8eeec3b1e35c529a9451030c643aaf27a3eeedd40e72f0c0550e3c6ab13a70"),
    ("irregular", "symplectic_euler", "json", 0, "",
     "d3258820514d157dc53d48db18987cb56b672fa8dfe5bea42fbf78d9a5d1d6b2"),
    ("magnitudes", "exact", "csv", 0, "",
     "1290840bcf6e84529a06956ad710a5d286aca725c02cb9c1d7d78a27cae18690"),
    ("magnitudes", "exact", "json", 0, "",
     "beecf870fb6a3a7cda28dfebce6e09e6c3e617d47608fcab79cd6776768d2df6"),
    ("magnitudes", "symplectic_euler", "csv", 0, "",
     "522f71ac1dd2243b1b0148f397a6997379245cb57f120597057df03a1ad06e6f"),
    ("magnitudes", "symplectic_euler", "json", 0, "",
     "09bf94fcfd4ee9404c6ec104b7366f7dd2ab53c5a07ff0709d30c4e5b09272d9"),
    ("near_1e16", "exact", "csv", 0, "",
     "87db6b1ab24d6a97f1e463cfe4b02fd3379c728e809e676e321fb1aecf4b2d86"),
    ("near_1e16", "exact", "json", 0, "",
     "7256559e60c69b380c207825f238b1045b8943a1f389a33b228ac4d78c6ee745"),
    ("near_1e16", "symplectic_euler", "csv", 0, "",
     "87db6b1ab24d6a97f1e463cfe4b02fd3379c728e809e676e321fb1aecf4b2d86"),
    ("near_1e16", "symplectic_euler", "json", 0, "",
     "7256559e60c69b380c207825f238b1045b8943a1f389a33b228ac4d78c6ee745"),
    ("multi_chunk", "exact", "csv", 0, "",
     "629cf3187a8600f6701bcfc54b1d76e47cd89a8bac7495de9c68c2e2d11219dc"),
    ("multi_chunk", "exact", "json", 0, "",
     "eae064a749d92ade012c7dc8c5078faf7aad889c58beb8dbff5817610e3d7588"),
    ("multi_chunk", "symplectic_euler", "csv", 0, "",
     "e02b65a65eeac261dbb168c585454d1d4a259929b79aad21412f9c7074fbea16"),
    ("multi_chunk", "symplectic_euler", "json", 0, "",
     "46bc1053e0e4d024ab98ef8f7cba4983416f8ac270d9362522eebc08596b7996"),
    ("far_end_overflow", "exact", "csv", 2, "error: non-finite chart coordinate\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("far_end_overflow", "exact", "json", 2, "error: non-finite chart coordinate\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("far_end_overflow", "symplectic_euler", "csv", 2, "error: non-finite chart coordinate\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("far_end_overflow", "symplectic_euler", "json", 2, "error: non-finite chart coordinate\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]

# Refusals.  The first five each break two rules at once, so the rule checked
# first names the error: m*g before the sample count, a degenerate orbit before
# the sample count, the sample count before H, the last p before H, and a zero m
# (refused as `orbit --m 0` refuses it) before dt > t_max.  The rest break one.
REFUSALS = {
    "product_and_count": (["--mass", "1e200", "--g", "1e200", "--p0", "1", "--q0", "1",
                           "--t-max", "1e10", "--dt", "1e-300"],
                          "non-finite orbit parameter product m*g"),
    "degenerate_and_count": (["--mass", "1e-200", "--g", "1e-200", "--p0", "1", "--q0", "1",
                              "--t-max", "1e10", "--dt", "1e-300"],
                             "subnormal orbit parameter product m*g"),
    "count_and_energy": (["--mass", "2", "--g", "3", "--p0", "1", "--q0", "1e308",
                          "--t-max", "1e10", "--dt", "1e-300"],
                         "too many samples: t_max/dt overflows"),
    "last_p_and_energy": (["--mass", "1e200", "--g", "1e100", "--p0", "1", "--q0", "1e10",
                           "--t-max", "1e308", "--dt", "1e307"],
                          "non-finite chart coordinate"),
    "zero_mass_and_step": (["--mass", "0", "--g", "3", "--p0", "1", "--q0", "1",
                            "--t-max", "1", "--dt", "2"],
                           "degenerate orbit: m and g must both be nonzero "
                           "for the chart q = -e/(m*g)"),
    # m*g = 1e300 is finite, but H = m*g*q0 overflows.
    "energy": (["--mass", "1e200", "--g", "1e100", "--p0", "1", "--q0", "1e10",
                "--t-max", "0", "--dt", "1"], "non-finite energy H = m*g*q"),
    "negative_dt": (["--mass", "2", "--g", "3", "--p0", "1", "--q0", "5", "--t-max", "4",
                     "--dt", "-1"], "dt must be positive"),
    "negative_t_max": (["--mass", "2", "--g", "3", "--p0", "1", "--q0", "5", "--t-max=-4",
                        "--dt", "0.5"], "t_max must be nonnegative"),
    "step_above_horizon": (["--mass", "2", "--g", "3", "--p0", "1", "--q0", "5", "--t-max", "4",
                            "--dt", "5"], "dt must not exceed t_max"),
}
FLAGS.update({name: flags for name, (flags, _) in REFUSALS.items()})
CORPUS += [(name, integrator, fmt, 2, f"error: {message}\n",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
           for name, (_, message) in REFUSALS.items()
           for integrator in ("exact", "symplectic_euler") for fmt in ("csv", "json")]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, integrator, fmt, code, err, digest", CORPUS,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in CORPUS])
def test_stdout_matches_corpus(tmp_path, capsys, name, integrator, fmt, code, err, digest):
    argv = ["simulate", *FLAGS[name], "--integrator", integrator, "--format", fmt]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert _digest(captured.out) == digest
    if code == 2:  # refused before --out is opened
        target = tmp_path / f"trajectory.{fmt}"
        assert cli.main([*argv, "--out", str(target)]) == code
        assert capsys.readouterr() == ("", err)
        assert not target.exists()


MULTI_CHUNK = [c for c in CORPUS if c[0] == "multi_chunk"]


@pytest.mark.parametrize("name, integrator, fmt, code, err, digest", MULTI_CHUNK)
def test_out_file_matches_corpus(tmp_path, capsys, use_cpus, name, integrator, fmt, code, err,
                                 digest):
    # 20002 rows are 5 chunks.  One CPU formats in process and two fork; three
    # wrap the turn ring over a chunk count they do not divide, and eight
    # exceed it.
    target = tmp_path / f"trajectory.{fmt}"
    argv = ["simulate", *FLAGS[name], "--integrator", integrator, "--format", fmt,
            "--out", str(target)]
    for cpus in (1, 2, 3, 8):
        use_cpus(cpus)
        assert cli.main(argv) == code
        assert capsys.readouterr().out == ""
        assert _digest(target.read_text(encoding="utf-8")) == digest
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every forked worker has been waited for


@pytest.mark.parametrize("name, integrator, fmt, code, err, digest", MULTI_CHUNK)
def test_process_stdout_matches_corpus(cli_command, name, integrator, fmt, code, err, digest):
    argv = ["simulate", *FLAGS[name], "--integrator", integrator, "--format", fmt]
    proc = subprocess.run(cli_command(argv, 3), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr.decode()) == (code, err)
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
