"""Bracket table, Jacobi grading, and dimensional bookkeeping."""

import copy
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from numbers import Rational

import pytest

from aristotle.algebra import (
    ACTION_DIMENSION,
    AlgebraElement,
    AntisymmetryError,
    BracketTable,
    Dimension,
    E_INDEX,
    M_INDEX,
    P_INDEX,
    aristotle_bracket_table,
    bracket,
    dimension_of,
    jacobi_violation,
    pairing_dimension_check,
)

P = AlgebraElement(1.0, 0.0, 0.0)
E = AlgebraElement(0.0, 1.0, 0.0)


class Real(float):
    """Another real: BracketTable stores its entries as plain floats."""


class Text(str):
    """Text of a str subclass: refused as an entry, as a str is."""


def zeros(planes, rows, cols):
    """A planes x rows x cols table of 0.0, as nested lists."""
    return [[[0.0] * cols for _ in range(rows)] for _ in range(planes)]


class TestBracket:
    def test_rejects_wrong_dimension(self):
        table = BracketTable(zeros(2, 2, 2))
        with pytest.raises(ValueError):
            bracket(table, P, E)


class TestTable:
    def test_canonical_table_entries(self):
        table = aristotle_bracket_table(3.0)
        assert len(table.constants) == 3
        assert table.constants[P_INDEX][E_INDEX][M_INDEX] == 3.0
        assert table.constants[E_INDEX][P_INDEX][M_INDEX] == -3.0
        flat = [x for plane in table.constants for row in plane for x in row]
        assert len(flat) == 27
        assert sum(1 for x in flat if x != 0.0) == 2

    def test_constants_are_read_only(self):
        table = aristotle_bracket_table(1.0)
        with pytest.raises(TypeError):
            table.constants[0][0][0] = 5.0
        assert table.constants[0][0][0] == 0.0

    def test_is_a_frozen_record(self):
        table = aristotle_bracket_table(2.0)
        with pytest.raises(AttributeError, match="^cannot assign to field 'constants'$"):
            table.constants = ()
        with pytest.raises(AttributeError, match="^cannot delete field 'constants'$"):
            del table.constants
        same = BracketTable([[list(map(Real, row)) for row in plane] for plane in table.constants])
        assert table == same and hash(table) == hash(same)
        assert table != table.constants and table != aristotle_bracket_table(3.0)
        assert repr(table).startswith("BracketTable(constants=((")
        for y in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert type(y) is BracketTable and y == table

    def test_rejects_non_cubic(self):
        with pytest.raises(ValueError, match=r"^structure constants must form an \(n, n, n\) array"):
            BracketTable(zeros(3, 3, 2))

    def test_rejects_a_plane_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=r"^structure constants must form an \(n, n, n\) array"):
            BracketTable(zeros(3, 2, 3))

    def test_rejects_non_finite(self):
        constants = zeros(3, 3, 3)
        constants[0][1][2] = math.inf
        with pytest.raises(ValueError, match="^non-finite structure constant$"):
            BracketTable(constants)

    def test_nested_list_and_array_agree(self):
        # The "array" holds Real entries, as an array holds its own float type.
        constants = zeros(3, 3, 3)
        constants[P_INDEX][E_INDEX][M_INDEX] = 2.5
        constants[E_INDEX][P_INDEX][M_INDEX] = -2.5
        from_list = BracketTable(constants)
        from_array = BracketTable([[list(map(Real, row)) for row in plane] for plane in constants])
        assert from_list.constants == from_array.constants
        assert from_list.constants == aristotle_bracket_table(2.5).constants
        assert all(type(x) is float for plane in from_array.constants for row in plane for x in row)

    def test_rejects_ragged(self):
        constants = zeros(3, 3, 3)
        constants[1][2] = [0.0, 0.0]
        with pytest.raises(ValueError):
            BracketTable(constants)

    @pytest.mark.parametrize("entry", ["P", None, "0", "1.5", b"0", bytearray(b"0"), memoryview(b"0")])
    def test_rejects_non_numeric_entry(self, entry):
        constants = zeros(3, 3, 3)
        constants[0][1][2] = entry
        with pytest.raises(ValueError, match=r"^structure constants must form an \(n, n, n\) array"):
            BracketTable(constants)

    @pytest.mark.parametrize("constants", [
        [["000", "000", "000"]] * 3,  # string rows, each iterated into three '0'
        ["000"] * 3,  # string planes
        "000",  # a string table
        [[[Text("0")] * 3] * 3] * 3,  # entries of a str subclass
        [[b"000"] * 3] * 3,  # bytes rows, each iterated into three 48s
        [[bytearray(3)] * 3] * 3,
        [[memoryview(b"000")] * 3] * 3,
    ], ids=["string_rows", "string_planes", "string_table", "str_subclass_entries",
            "bytes_rows", "bytearray_rows", "memoryview_rows"])
    def test_rejects_text_that_parses_as_numbers(self, constants):
        with pytest.raises(ValueError, match=r"^structure constants must form an \(n, n, n\) array"):
            BracketTable(constants)

    # Decimals are converted to float; Fractions and ints are kept as given.
    @pytest.mark.parametrize("entry", [Decimal("0.25"), Fraction(2), Decimal("-1.5"), Fraction(1, 3), 2])
    def test_numbers_other_than_floats_are_kept_or_converted(self, entry):
        constants = zeros(3, 3, 3)
        constants[0][1][2] = entry
        stored = BracketTable(constants).constants[0][1][2]
        assert stored == entry
        assert type(stored) is (type(entry) if isinstance(entry, Rational) else float)


class TestJacobi:
    # The canonical entries are zeros and +-g, so each defect component is a
    # sum of products of two entries: a polynomial in g of degree at most 2.
    # At these Fraction g the zeros are exact too, so every term is exact, and
    # three exact zeros prove the table is Lie for every g.
    @pytest.mark.parametrize("g", [Fraction(1, 2), Fraction(-3), Fraction(5, 4), Fraction(1, 3)])
    def test_canonical_table_is_lie(self, g):
        assert jacobi_violation(aristotle_bracket_table(g)) == 0

    def test_zero_table(self):
        assert jacobi_violation(BracketTable(zeros(3, 3, 3))) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_matrix_reference(self, n):
        # The defect on (e_i, e_j, e_k) is minus column k of
        # ad_i ad_j - ad_j ad_i - ad_[e_i, e_j], where ad_i[m][k] = c[i][k][m]
        # and ad_[e_i, e_j] = sum_l c[i][j][l] ad_l.  Fraction entries (and int
        # zeros) keep both sides exact, so they agree to the last digit.
        rng = random.Random(n)
        r = range(n)
        for _ in range(50):
            c = [[[0] * n for _ in r] for _ in r]
            for i in r:
                for j in range(i + 1, n):
                    c[i][j] = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in r]
                    c[j][i] = [-x for x in c[i][j]]
            ad = [[[c[i][k][m] for k in r] for m in r] for i in r]
            expected = max(
                abs(sum(ad[i][m][l] * ad[j][l][k] - ad[j][m][l] * ad[i][l][k]
                        - c[i][j][l] * ad[l][m][k] for l in r))
                for i in r for j in r for m in r for k in r
            )
            assert jacobi_violation(BracketTable(c)) == expected

    def test_overflowed_defect_is_nan(self):
        # The exact defect on (P, E, M) is 1e400 + 2e200 - 1e400 = 2e200, but
        # the outer terms overflow to inf and -inf, and their sum is NaN: a
        # max() fold drops it and scores the table 0.
        c = zeros(3, 3, 3)
        c[0][1][0] = c[0][2][0] = -1e200
        c[1][2][2] = 2.0
        for i, j in (0, 1), (0, 2), (1, 2):
            c[j][i] = [-x for x in c[i][j]]
        assert math.isnan(jacobi_violation(BracketTable(c)))

    def test_antisymmetry_breach_is_distinct_error(self):
        constants = zeros(3, 3, 3)
        constants[0][1][2] = 1.0  # missing the mirrored entry
        with pytest.raises(AntisymmetryError):
            jacobi_violation(BracketTable(constants))


class TestElements:
    def test_componentwise_arithmetic(self):
        a = AlgebraElement(1.0, 2.0, 3.0)
        b = AlgebraElement(10.0, 20.0, 30.0)
        assert a + b == AlgebraElement(11.0, 22.0, 33.0)
        assert b - a == AlgebraElement(9.0, 18.0, 27.0)
        assert 2.0 * a == AlgebraElement(2.0, 4.0, 6.0)
        assert -a == AlgebraElement(-1.0, -2.0, -3.0)


class TestDimensions:
    def test_known_symbols(self):
        assert dimension_of("xi") == Dimension(0, 2, -1)
        assert dimension_of("t") == Dimension(0, 0, 1)
        assert dimension_of("x") == Dimension(0, 1, 0)
        assert dimension_of("m") == Dimension(1, 0, 0)
        assert dimension_of("e") == Dimension(1, 2, -2)
        assert dimension_of("p") == Dimension(1, 1, -1)
        assert dimension_of("g") == Dimension(0, 1, -2)
        assert dimension_of("action") == ACTION_DIMENSION == Dimension(1, 2, -1)

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            dimension_of("q")

    def test_multiplication_adds_exponents(self):
        assert dimension_of("m") * dimension_of("xi") == ACTION_DIMENSION
        assert dimension_of("g") * dimension_of("t") * dimension_of("t") == Dimension(0, 1, 0)

    def test_pairing_check_catches_bad_energy(self):
        assert pairing_dimension_check({"e": Dimension(1, 0, 0)}) is False

    def test_pairing_check_catches_dimensionless_g(self):
        # With g dimensionless the bracket [P, E] = g*M cannot balance.
        assert pairing_dimension_check({"g": Dimension(0, 0, 0)}) is False
