"""Structure constants and dimensional bookkeeping for the extended algebra.

The Lie algebra of the one-dimensional static group extends the abelian span
of a space generator P and a time generator E by a central generator M, with
a single independent bracket [P, E] = g*M.  The structure constants are kept
as a dense 3-index table so the Jacobi grader stays generic and can score
deliberately corrupted tables, not just the canonical one.

Basis order is (P, E, M) = (0, 1, 2) throughout.
"""

import math
from collections.abc import Mapping
from numbers import Rational

from .record import Record, worst

P_INDEX, E_INDEX, M_INDEX = 0, 1, 2


class AntisymmetryError(ValueError):
    """A bracket table violates c[i][j][k] == -c[j][i][k]."""


class AlgebraElement(Record):
    """Coefficient triple over the basis (P, E, M).

    As a group logarithm the coefficients are the coordinates (x, t, xi):
    c_P is a length, c_E a time, and c_M carries L^2 T^-1.
    """

    def __init__(self, c_P: float, c_E: float, c_M: float) -> None:
        for name, value in (("c_P", c_P), ("c_E", c_E), ("c_M", c_M)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite coefficient {name}")
        self.__dict__.update(c_P=c_P, c_E=c_E, c_M=c_M)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            self.c_P + other.c_P, self.c_E + other.c_E, self.c_M + other.c_M
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            self.c_P - other.c_P, self.c_E - other.c_E, self.c_M - other.c_M
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(-self.c_P, -self.c_E, -self.c_M)

    def __mul__(self, scalar: float) -> "AlgebraElement":
        return AlgebraElement(
            self.c_P * scalar, self.c_E * scalar, self.c_M * scalar
        )

    __rmul__ = __mul__


class BracketTable(Record):
    """Dense structure-constant table: [e_i, e_j] = sum_k c[i][j][k] e_k.

    The table is an immutable nested tuple, read as ``constants[i][j][k]``:
    float and rational (int, Fraction) entries as given, so an exact table
    stays exact, and other reals as floats.  Text is not a number: a string or
    bytes entry is refused, and so is a string or bytes-like row.  Antisymmetry
    is an invariant of a well-formed table but is deliberately not enforced
    here, so that the Jacobi grader can report a breach as its own error.
    """

    def __init__(self, constants) -> None:
        shape_error = "structure constants must form an (n, n, n) array of numbers"
        try:
            n = len(constants)
            table = tuple([tuple(map(_row, plane)) for plane in constants])
        except (TypeError, ValueError):
            raise ValueError(shape_error) from None
        for plane in table:
            if len(plane) != n:
                raise ValueError(shape_error)
            for row in plane:
                if len(row) != n:
                    raise ValueError(shape_error)
                if not all(map(math.isfinite, row)):
                    raise ValueError("non-finite structure constant")
        self.__dict__.update(constants=table)

    def is_antisymmetric(self) -> bool:
        c = self.constants
        return all(
            x == -y for i, plane in enumerate(c) for j, row in enumerate(plane)
            for x, y in zip(row, c[j][i])
        )


def _real(c) -> float:
    """float(c) for a number; float would also parse text such as '0' or b'1'."""
    if isinstance(c, (str, bytes, bytearray, memoryview)):
        raise TypeError
    return float(c)


def _row(row) -> tuple:
    """A table row as a tuple of its entries.  A bytes-like row is refused: it
    would iterate into its byte values."""
    if isinstance(row, (bytes, bytearray, memoryview)):
        raise TypeError
    return tuple([c if type(c) is float or isinstance(c, Rational) else _real(c) for c in row])


def aristotle_bracket_table(g: float) -> BracketTable:
    """The canonical 3-dimensional table: [P, E] = g*M, everything else zero."""
    o = g - g  # 0.0, or an exact zero for an exact g
    z = (o, o, o)
    # c[P][E][M] = g and c[E][P][M] = -g, in the basis order (P, E, M).
    return BracketTable(((z, (o, o, g), z), ((o, o, -g), z, z), (z, z, z)))


def bracket(table: BracketTable, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the table to coefficient triples."""
    if len(table.constants) != 3:
        raise ValueError("coefficient-triple bracket needs a 3-dimensional table")
    constants = table.constants
    va = (a.c_P, a.c_E, a.c_M)
    vb = (b.c_P, b.c_E, b.c_M)
    zero = a.c_P - a.c_P  # 0.0, or an exact zero for exact coefficients
    out = [zero, zero, zero]
    for i in range(3):
        if va[i] == 0.0:
            continue
        for j in range(3):
            if vb[j] == 0.0:
                continue
            for k in range(3):
                c_ijk = constants[i][j][k]
                if c_ijk != 0.0:
                    out[k] += va[i] * vb[j] * c_ijk
    return AlgebraElement(out[0], out[1], out[2])


def jacobi_violation(table: BracketTable) -> float:
    """Worst cyclic-sum defect [[x,y],z] + [[y,z],x] + [[z,x],y] over basis triples.

    Returns 0 exactly when the table defines a Lie algebra, and NaN when an
    overflowed sum leaves the defect undefined.  Raises
    AntisymmetryError before computing anything if the table is not
    antisymmetric, so a malformed table is never silently graded.
    """
    if not table.is_antisymmetric():
        raise AntisymmetryError("bracket table is not antisymmetric")
    c = table.constants
    r = range(len(c))
    # nested[i][j][k] = [[e_i, e_j], e_k]; component m is the dot product
    # sum_l c[i][j][l] * c[l][k][m], summed in order of l.
    nested = [
        [[[sum(c[i][j][l] * c[l][k][m] for l in r) for m in r] for k in r] for j in r]
        for i in r
    ]
    return worst([abs(x + y + z) for i in r for j in r for k in r
                  for x, y, z in zip(nested[i][j][k], nested[j][k][i], nested[k][i][j])])


class Dimension(Record):
    """Physical dimension as the exponent triple of M^a L^b T^c."""

    def __init__(self, mass_exp: int, length_exp: int, time_exp: int) -> None:
        self.__dict__.update(mass_exp=mass_exp, length_exp=length_exp, time_exp=time_exp)

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(
            self.mass_exp + other.mass_exp,
            self.length_exp + other.length_exp,
            self.time_exp + other.time_exp,
        )

    def inverse(self) -> "Dimension":
        return Dimension(-self.mass_exp, -self.length_exp, -self.time_exp)


#: Dimension of an action, M L^2 T^-1; every duality pairing term carries it.
ACTION_DIMENSION = Dimension(1, 2, -1)

_SYMBOL_DIMENSIONS: dict[str, Dimension] = {
    "xi": Dimension(0, 2, -1),  # central group coordinate
    "t": Dimension(0, 0, 1),  # time translation
    "x": Dimension(0, 1, 0),  # space translation
    "m": Dimension(1, 0, 0),  # orbit invariant: a mass
    "e": Dimension(1, 2, -2),  # dual coordinate paired with t: an energy
    "p": Dimension(1, 1, -1),  # dual coordinate paired with x: a momentum
    "g": Dimension(0, 1, -2),  # gravitational acceleration
    "action": ACTION_DIMENSION,
}


def dimension_of(symbol: str) -> Dimension:
    """Exponent triple for one of the named coordinates and constants."""
    try:
        return _SYMBOL_DIMENSIONS[symbol]
    except KeyError:
        known = ", ".join(sorted(_SYMBOL_DIMENSIONS))
        raise ValueError(f"unknown symbol {symbol!r}; expected one of: {known}") from None


def pairing_dimension_check(overrides: Mapping[str, Dimension] | None = None) -> bool:
    """True iff the duality pairing and the bracket are dimensionally consistent.

    Every pairing term m*xi, e*t, p*x must carry the dimension of an action,
    and [P, E] = g*M must balance once each generator is assigned the inverse
    dimension of its group coordinate (so that x*P + t*E + xi*M is
    dimensionless).  ``overrides`` substitutes dimensions by symbol name,
    which is how the deliberate-mismatch checks are expressed.
    """
    def dim(symbol: str) -> Dimension:
        return overrides[symbol] if overrides and symbol in overrides else dimension_of(symbol)

    action = dim("action")
    pairings_ok = (
        dim("m") * dim("xi") == action
        and dim("e") * dim("t") == action
        and dim("p") * dim("x") == action
    )
    p_dim = dim("x").inverse()
    e_dim = dim("t").inverse()
    m_dim = dim("xi").inverse()
    bracket_ok = p_dim * e_dim == dim("g") * m_dim
    return pairings_ok and bracket_ok
