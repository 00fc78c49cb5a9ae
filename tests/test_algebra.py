"""Bracket table, Jacobi grading, and dimensional bookkeeping."""

import copy
import math
import pickle
import random
from fractions import Fraction
from numbers import Rational

import numpy as np
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


def corrupted_table(g):
    """[P, E] = g*M plus an extra [P, M] = P; antisymmetric but not Jacobi."""
    constants = np.zeros((3, 3, 3))
    constants[P_INDEX, E_INDEX, M_INDEX] = g
    constants[E_INDEX, P_INDEX, M_INDEX] = -g
    constants[P_INDEX, M_INDEX, P_INDEX] = 1.0
    constants[M_INDEX, P_INDEX, P_INDEX] = -1.0
    return BracketTable(constants)


class TestBracket:
    def test_rejects_wrong_dimension(self):
        table = BracketTable(np.zeros((2, 2, 2)))
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
        same = BracketTable(np.array(table.constants))
        assert table == same and hash(table) == hash(same)
        assert table != table.constants and table != aristotle_bracket_table(3.0)
        assert repr(table).startswith("BracketTable(constants=((")
        for y in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert type(y) is BracketTable and y == table

    def test_rejects_non_cubic(self):
        with pytest.raises(ValueError, match=r"^structure constants must form an \(n, n, n\) array"):
            BracketTable(np.zeros((3, 3, 2)))

    def test_rejects_a_plane_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=r"^structure constants must form an \(n, n, n\) array"):
            BracketTable(np.zeros((3, 2, 3)))

    def test_rejects_non_finite(self):
        constants = np.zeros((3, 3, 3))
        constants[0, 1, 2] = np.inf
        with pytest.raises(ValueError):
            BracketTable(constants)

    def test_nested_list_and_array_agree(self):
        constants = np.zeros((3, 3, 3))
        constants[P_INDEX, E_INDEX, M_INDEX] = 2.5
        constants[E_INDEX, P_INDEX, M_INDEX] = -2.5
        from_list = BracketTable(constants.tolist())
        from_array = BracketTable(constants)
        assert from_list.constants == from_array.constants
        assert from_list.constants == aristotle_bracket_table(2.5).constants
        assert all(type(x) is float for plane in from_array.constants for row in plane for x in row)

    def test_rejects_ragged(self):
        constants = np.zeros((3, 3, 3)).tolist()
        constants[1][2] = [0.0, 0.0]
        with pytest.raises(ValueError):
            BracketTable(constants)

    @pytest.mark.parametrize("entry", ["P", None, "0", "1.5", b"0", bytearray(b"0"), memoryview(b"0")])
    def test_rejects_non_numeric_entry(self, entry):
        constants = np.zeros((3, 3, 3)).tolist()
        constants[0][1][2] = entry
        with pytest.raises(ValueError, match=r"^structure constants must form an \(n, n, n\) array"):
            BracketTable(constants)

    @pytest.mark.parametrize("constants", [
        [["000", "000", "000"]] * 3,  # string rows, each iterated into three '0'
        ["000"] * 3,  # string planes
        "000",  # a string table
        np.zeros((3, 3, 3)).astype(str),  # numpy strings
        [[b"000"] * 3] * 3,  # bytes rows, each iterated into three 48s
        [[bytearray(3)] * 3] * 3,
        [[memoryview(b"000")] * 3] * 3,
    ], ids=["string_rows", "string_planes", "string_table", "numpy_strings",
            "bytes_rows", "bytearray_rows", "memoryview_rows"])
    def test_rejects_text_that_parses_as_numbers(self, constants):
        with pytest.raises(ValueError, match=r"^structure constants must form an \(n, n, n\) array"):
            BracketTable(constants)

    @pytest.mark.parametrize("entry", [np.float32(0.25), np.int64(2), np.bool_(True), Fraction(1, 3), 2])
    def test_numbers_other_than_floats_are_kept_or_converted(self, entry):
        constants = np.zeros((3, 3, 3)).tolist()
        constants[0][1][2] = entry
        stored = BracketTable(constants).constants[0][1][2]
        assert stored == entry
        assert type(stored) is (type(entry) if isinstance(entry, Rational) else float)


class TestJacobi:
    @pytest.mark.parametrize("g", [1.0, -1.0, 2.0, -2.0, 9.81])
    def test_canonical_table_is_lie(self, g):
        assert jacobi_violation(aristotle_bracket_table(g)) == 0.0

    def test_zero_table(self):
        assert jacobi_violation(BracketTable(np.zeros((3, 3, 3)))) == 0.0

    def test_corrupted_table_scores_g(self):
        # Cyclic sum on (P, E, M) is -g*M, so the worst defect is |g| = 2.
        assert abs(jacobi_violation(corrupted_table(2.0)) - 2.0) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_matrix_reference(self, n):
        # Reference: [[e_i, e_j], e_k] as the matrix product c[i, j, :] @ c[:, k, :].
        rng = random.Random(n)
        for _ in range(50):
            c = np.zeros((n, n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    c[i, j] = [rng.uniform(-10, 10) for _ in range(n)]
                    c[j, i] = -c[i, j]
            expected = max(
                float(np.max(np.abs(c[i, j] @ c[:, k] + c[j, k] @ c[:, i] + c[k, i] @ c[:, j])))
                for i in range(n) for j in range(n) for k in range(n)
            )
            # Summation may round differently (numpy can fuse multiply-adds);
            # with entries below 10 in magnitude the terms sum below 1e4.
            assert abs(jacobi_violation(BracketTable(c)) - expected) <= 1e-11

    def test_overflowed_defect_is_nan(self):
        # The exact defect on (P, E, M) is 1e400 + 2e200 - 1e400 = 2e200, but
        # the outer terms overflow to inf and -inf, and their sum is NaN: a
        # max() fold drops it and scores the table 0.
        c = np.zeros((3, 3, 3))
        c[0, 1, 0] = c[0, 2, 0] = -1e200
        c[1, 2, 2] = 2.0
        c[1, 0], c[2, 0], c[2, 1] = -c[0, 1], -c[0, 2], -c[1, 2]
        assert math.isnan(jacobi_violation(BracketTable(c)))

    def test_antisymmetry_breach_is_distinct_error(self):
        constants = np.zeros((3, 3, 3))
        constants[0, 1, 2] = 1.0  # missing the mirrored entry
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

    def test_pairing_check_default(self):
        assert pairing_dimension_check() is True

    def test_pairing_check_catches_bad_energy(self):
        assert pairing_dimension_check({"e": Dimension(1, 0, 0)}) is False

    def test_pairing_check_catches_dimensionless_g(self):
        # With g dimensionless the bracket [P, E] = g*M cannot balance.
        assert pairing_dimension_check({"g": Dimension(0, 0, 0)}) is False
