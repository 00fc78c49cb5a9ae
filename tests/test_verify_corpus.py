"""Byte-identity corpus for `aristotle verify`.

The digests pin every PASS/FAIL line, every reported violation and the
summary line, each tolerance being the class its property registers.  Seeds
1 and 2 pass at 200 cases; seed 807443437 at 3000 cases fails
`bracket_bilinearity` (1.0231815394945443e-12 > 1e-12), and that known
defect stays visible here.
"""

import hashlib

import pytest

from aristotle import cli

# (argv after "verify", exit code, number of FAIL lines, sha256 of stdout)
CORPUS = [
    (["--seed", "1", "--cases", "200"], 0, 0,
     "8d8c5a072b0ef166f763091acd0fb0b159c207eb66729ef8b9b6b4b901628f1e"),
    (["--seed", "2", "--cases", "200"], 0, 0,
     "99dacc48b3d22d98188306eb07f19cd4d830f847138544cba26c37fbe8e06966"),
    (["--seed", "807443437", "--cases", "3000"], 1, 1,
     "7dec1abf0e709086a94752ea34250a84bb7221cfb75bed4b04f5e0ce66eb3c14"),
]


@pytest.mark.parametrize("argv, code, failures, digest", CORPUS,
                         ids=["seed1", "seed2", "seed807443437"])
def test_stdout_matches_corpus(capsys, argv, code, failures, digest):
    assert cli.main(["verify", *argv]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("FAIL ") == failures
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
