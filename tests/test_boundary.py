"""The chain at the double boundary: every public function and computing
method of algebra, group, orbit and dynamics (tests/chain.py), driven with
extreme finite inputs, refuses them with ValueError or OverflowError or
returns only finite numbers.

Inputs are log-uniform in magnitude from 1e-300 to 1e300, or one of the
special doubles: 0, the smallest subnormal, the smallest normal and the
largest double, each with either sign.  Arguments that a value class refuses
while they are built are drawn again, so each function sees CALLS accepted
inputs, and at least a quarter of its calls must return a result.
"""

import math
import random
from functools import partial

import pytest

import chain

CALLS = 2000
SPECIAL = (0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)
# jacobi_violation documents NaN as the grade of a table whose sums overflow.
NAN_RESULT = {"jacobi_violation"}


def _x(rng):
    """A signed extreme double: a special value one time in four, else log-uniform."""
    v = rng.choice(SPECIAL) if rng.random() < 0.25 else 10.0 ** rng.uniform(-300, 300)
    return v if rng.random() < 0.5 else -v


@pytest.mark.parametrize("name", sorted(chain.PUBLIC))
def test_finite_or_refused(name):
    rng = random.Random(f"boundary:{name}")
    for args, leaves in chain.results(name, partial(_x, rng), rng, CALLS):
        bad = [v for _, v in leaves if not (math.isfinite(v) or name in NAN_RESULT and v != v)]
        assert not bad, f"{name}{args!r} gave {bad}"
