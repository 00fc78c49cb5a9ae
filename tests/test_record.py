"""The value classes of the chain are frozen records: each keeps what
`@dataclass(frozen=True)` gave it (no assignment or deletion, equality only
within its class, the field-tuple hash, the dataclass repr, fields in
declaration order, keyword construction) and its validation messages.  A
number the chain computes, rather than stores in a field, is refused by the
one `record.finite` rule, and a worst case is scored by the one NaN-sticky
`record.worst` fold."""

import ast
import copy
import dataclasses
import inspect
import math
import pickle
from fractions import Fraction

import pytest

import chain
from aristotle import cli, verify, write
from aristotle.algebra import AlgebraElement, Dimension
from aristotle.dynamics import SimulationConfig
from aristotle.group import BaseElement, ExtendedElement
from aristotle.orbit import (
    AffineObservable,
    CoadjointPoint,
    DegenerateOrbitError,
    OrbitContext,
    OrbitPoint,
    OrbitTangent,
)
from aristotle.record import Record, finite, worst

# Each class with valid arguments, its field names in declaration order, and
# the message of a non-finite float field (None: its fields are unchecked).
RECORDS = [
    (AlgebraElement, (1.5, -2.0, 0.25), ("c_P", "c_E", "c_M"), "non-finite coefficient {}"),
    (Dimension, (1, 2, -1), ("mass_exp", "length_exp", "time_exp"), None),
    (BaseElement, (3.0, -4.0), ("t", "h"), "non-finite group coordinate"),
    (ExtendedElement, (0.5, 3.0, -4.0), ("xi", "t", "h"), "non-finite group coordinate"),
    (CoadjointPoint, (5.0, -30.0, 31.0), ("m", "e", "p"), "non-finite dual coordinate"),
    (OrbitContext, (5.0, 2.0), ("m", "g"), "non-finite orbit parameter"),
    (OrbitPoint, (31.0, -0.0), ("p", "q"), "non-finite chart coordinate"),
    (AffineObservable, (1.0, -10.0, 5.0), ("a_p", "a_q", "c"), "non-finite observable coefficient"),
    (OrbitTangent, (-10.0, 0.0), ("dp", "dq"), "non-finite tangent component"),
    (SimulationConfig, (2.0, 3.0, 1.0, 5.0, 4.0, 0.5, "symplectic_euler"),
     ("m", "g", "p0", "q0", "t_max", "dt", "integrator"), "non-finite configuration value {}"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def reference(cls, fields):
    """The frozen dataclass these records replaced, without its checks."""
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)


@pytest.mark.parametrize("cls, args, fields, message", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_are_stored_in_declaration_order(self, cls, args, fields, message):
        x = cls(*args)
        assert list(vars(x)) == list(fields)
        assert [getattr(x, name) for name in fields] == list(args)

    def test_keyword_construction(self, cls, args, fields, message):
        assert cls(**dict(zip(fields, args))) == cls(*args)

    def test_assignment_and_deletion_raise(self, cls, args, fields, message):
        x = cls(*args)
        for name in (*fields, "other"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(x, name, 1.0)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(x, name)
        assert list(vars(x).values()) == list(args)

    def test_matches_the_frozen_dataclass(self, cls, args, fields, message):
        x, ref = cls(*args), reference(cls, fields)(*args)
        assert repr(x) == repr(ref)
        assert hash(x) == hash(ref) == hash(tuple(args))

    def test_equality_holds_within_one_class(self, cls, args, fields, message):
        x = cls(*args)
        assert x == cls(*args) and not x != cls(*args)
        assert x != tuple(args) and x != reference(cls, fields)(*args)
        changed = (args[0] + 1, *args[1:])
        assert x != cls(*changed) and hash(x) != hash(cls(*changed))

    def test_copies_and_pickles_to_an_equal_record(self, cls, args, fields, message):
        x = cls(*args)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is cls and y == x and list(vars(y)) == list(fields)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("cls, args, fields, message", [r for r in RECORDS if r[3]],
                         ids=[i for i, r in zip(IDS, RECORDS) if r[3]])
def test_non_finite_messages_name_the_first_bad_field(cls, args, fields, message, bad):
    floats = [i for i, a in enumerate(args) if isinstance(a, float)]
    for i in floats:
        # Every float field from i on is bad: the check names field i.
        values = [bad if j in floats and j >= i else a for j, a in enumerate(args)]
        # A config is an OrbitContext, which refuses m and g before the config's own fields.
        orbit_field = issubclass(cls, OrbitContext) and fields[i] in ("m", "g")
        expected = "non-finite orbit parameter" if orbit_field else message.format(fields[i])
        with pytest.raises(ValueError) as err:
            cls(*values)
        assert type(err.value) is ValueError and str(err.value) == expected


@pytest.mark.parametrize("module", chain.MODULES, ids=lambda m: m.__name__.rpartition(".")[2])
def test_every_class_of_the_chain_is_a_record_or_an_exception(module):
    classes = [c for c in vars(module).values()
               if isinstance(c, type) and c.__module__ == module.__name__]
    assert classes
    assert [c.__name__ for c in classes if not issubclass(c, (Record, Exception))] == []


def test_chart_point_differs_from_tangent_of_same_components():
    assert OrbitPoint(1.0, 2.0) != OrbitTangent(1.0, 2.0)
    assert OrbitPoint(1.0, 2.0).__eq__(OrbitTangent(1.0, 2.0)) is NotImplemented


def test_reprs_are_the_dataclass_form():
    assert repr(OrbitPoint(1.0, -0.0)) == "OrbitPoint(p=1.0, q=-0.0)"
    assert repr(Dimension(1, 2, -1)) == "Dimension(mass_exp=1, length_exp=2, time_exp=-1)"
    assert repr(SimulationConfig(2.0, 3.0, 1.0, 5.0, 4.0, 0.5)) == (
        "SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=4.0, dt=0.5, integrator='exact')")


def test_signed_zeros_are_equal_with_equal_hashes():
    assert OrbitPoint(0.0, 1.0) == OrbitPoint(-0.0, 1.0)
    assert hash(OrbitPoint(0.0, 1.0)) == hash(OrbitPoint(-0.0, 1.0))


def test_simulation_config_integrator_defaults_to_exact():
    cfg = SimulationConfig(m=2.0, g=3.0, p0=1.0, q0=5.0, t_max=4.0, dt=0.5)
    assert cfg.integrator == "exact"
    assert cfg == SimulationConfig(2.0, 3.0, 1.0, 5.0, 4.0, 0.5, "exact")


@pytest.mark.parametrize("args, error, message", [
    ((0.0, 3.0, 1.0, 5.0, -4.0, -1.0, "rk4"), DegenerateOrbitError,
     "degenerate orbit: m and g must both be nonzero for the chart q = -e/(m*g)"),
    ((2.0, 3.0, 1.0, 5.0, -4.0, -1.0, "rk4"), ValueError, "dt must be positive"),
    ((2.0, 3.0, 1.0, 5.0, -4.0, 0.5, "rk4"), ValueError, "t_max must be nonnegative"),
    ((2.0, 3.0, 1.0, 5.0, 0.25, 0.5, "rk4"), ValueError, "dt must not exceed t_max"),
    ((2.0, 3.0, 1.0, 5.0, 4.0, 0.5, "rk4"), ValueError,
     "unknown integrator 'rk4'; expected one of ('exact', 'symplectic_euler')"),
    ((1e-200, 1e-200, 1.0, 5.0, 4.0, 0.5), ValueError, "subnormal orbit parameter product m*g"),
    ((1e200, 1e200, 1.0, 5.0, 1e300, 1e-300), ValueError,
     "non-finite orbit parameter product m*g"),
    ((2.0, 3.0, 1.0, 5.0, 1e300, 1e-300), ValueError, "too many samples: t_max/dt overflows"),
    ((1e154, 1e154, 1e308, 0.0, 4.0, 0.5), ValueError, "non-finite chart coordinate"),
    ((2.0, 3.0, 1.0, 1e308, 4.0, 0.5), ValueError, "non-finite energy H = m*g*q"),
])
def test_simulation_config_checks_run_in_order(args, error, message):
    with pytest.raises(error) as err:
        SimulationConfig(*args)
    assert type(err.value) is error and str(err.value) == message


def test_simulation_config_is_the_orbit_context_of_its_run():
    # Field order, copies and pickles are pinned for it in TestRecordContract.
    cfg = SimulationConfig(2.0, 3.0, 1.0, 5.0, 4.0, 0.5)
    assert isinstance(cfg, OrbitContext)
    assert cfg != OrbitContext(cfg.m, cfg.g) and OrbitContext(cfg.m, cfg.g) != cfg


@pytest.mark.parametrize("dt", [0.5, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("m, g", [(0.0, 3.0), (2.0, 0.0), (1e-200, 1e-200), (1e200, 1e200),
                                  (1e-300, 7e-24), (math.inf, 3.0), (2.0, math.nan)])
def test_simulation_config_refuses_m_g_as_orbit_context_does(m, g, dt):
    # Before the finiteness and grid rules: a dt of -1, inf or nan is not what is named.
    with pytest.raises(ValueError) as expected:
        OrbitContext(m, g)
    with pytest.raises(ValueError) as err:
        SimulationConfig(m, g, 1.0, 5.0, 4.0, dt)
    assert (type(err.value), str(err.value)) == (type(expected.value), str(expected.value))


@pytest.mark.parametrize("m, g, error, message", [
    (math.nan, 0.0, ValueError, "non-finite orbit parameter"),
    (0.0, 2.0, DegenerateOrbitError,
     "degenerate orbit: m and g must both be nonzero for the chart q = -e/(m*g)"),
    (5.0, 0.0, DegenerateOrbitError,
     "degenerate orbit: m and g must both be nonzero for the chart q = -e/(m*g)"),
    # m*g underflows to zero, or is subnormal: under 53 significant bits, so
    # q = -e/(m*g) could be off by up to a factor of 2.
    (1e-200, 1e-200, ValueError, "subnormal orbit parameter product m*g"),
    (1e-300, 7e-24, ValueError, "subnormal orbit parameter product m*g"),
    (1e-154, -1e-154, ValueError, "subnormal orbit parameter product m*g"),
    (-5e-324, 1.0, ValueError, "subnormal orbit parameter product m*g"),
    (1e200, -1e200, ValueError, "non-finite orbit parameter product m*g"),
])
def test_orbit_context_checks_run_in_order(m, g, error, message):
    with pytest.raises(error) as err:
        OrbitContext(m, g)
    assert type(err.value) is error and str(err.value) == message


def test_orbit_context_accepts_the_least_normal_product():
    assert OrbitContext(2.2250738585072014e-308, -1.0).g == -1.0


@pytest.mark.parametrize("value", [2.5, -3, Fraction(-7, 3), 5e-324, 1.7976931348623157e308],
                         ids=repr)
def test_finite_returns_its_argument(value):
    assert finite(value, "pairing") is value


def test_finite_keeps_the_sign_of_zero():
    assert math.copysign(1.0, finite(-0.0, "pairing")) == -1.0
    assert math.copysign(1.0, finite(0.0, "pairing")) == 1.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
def test_finite_refuses_with_its_message(bad):
    with pytest.raises(ValueError) as err:
        finite(bad, "energy H = m*g*q")
    assert type(err.value) is ValueError and str(err.value) == "non-finite energy H = m*g*q"


def test_finite_overflows_on_an_exact_value_as_a_value_class_does():
    huge = Fraction(10**400)
    with pytest.raises(OverflowError) as expected:
        OrbitPoint(huge, 1)
    with pytest.raises(OverflowError) as err:
        finite(huge, "pairing")
    assert (type(err.value), str(err.value)) == (type(expected.value), str(expected.value))


def _scoped_nodes(tree):
    """(names of the enclosing classes and functions, node) for every node of tree."""
    stack = [((), tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def _raises_non_finite(node):
    """Whether node raises a ValueError whose message, a string or an f-string,
    starts with "non-finite"."""
    if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"
            and node.exc.args):
        return False
    message = node.exc.args[0]
    if isinstance(message, ast.JoinedStr) and message.values:
        message = message.values[0]
    return (isinstance(message, ast.Constant) and isinstance(message.value, str)
            and message.value.startswith("non-finite"))


def _tests_finiteness(node):
    return (isinstance(node, ast.Attribute) and node.attr == "isfinite"
            and isinstance(node.value, ast.Name) and node.value.id == "math")


@pytest.mark.parametrize("module", chain.MODULES, ids=lambda m: m.__name__.rpartition(".")[2])
def test_only_record_fields_refuse_non_finite_inline(module):
    """A "non-finite" ValueError is raised, and math.isfinite read, only in the
    __init__ of a Record subclass, which checks its own fields; every other
    non-finite refusal calls record.finite."""
    inline, elsewhere = [], set()
    for scope, node in _scoped_nodes(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "finite":
            assert module.finite is finite
        if not (_raises_non_finite(node) or _tests_finiteness(node)):
            continue
        cls = getattr(module, scope[0], None) if scope[1:] == ("__init__",) else None
        if isinstance(cls, type) and issubclass(cls, Record):
            inline.append(scope)
        else:
            elsewhere.add(".".join(scope))
    assert inline  # the scan sees every module's field checks
    assert not elsewhere, f"refuses non-finite outside record.finite: {sorted(elsewhere)}"


def test_worst_of_nothing_is_zero():
    assert worst([]) == 0.0 and type(worst([])) is float


def test_worst_is_the_largest_value():
    assert worst([0.5, 3.0, 2.0, 3.0, 1e-300]) == 3.0


@pytest.mark.parametrize("values", [[-1.0], [-0.0], [-2.5, -0.0, -1e300]], ids=repr)
def test_worst_of_values_below_zero_is_zero(values):
    largest = worst(values)
    assert largest == 0.0 and math.copysign(1.0, largest) == 1.0


@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [1.0, math.nan, 2.0],
                                    [1.0, 2.0, math.nan], [5.0, math.nan, 1.0],
                                    [math.inf, math.nan, math.inf]], ids=repr)
def test_worst_returns_a_nan_wherever_it_comes(values):
    assert math.isnan(worst(values))


def test_worst_returns_the_exact_maximum_itself():
    third = Fraction(1, 3)
    assert worst([Fraction(1, 4), third, 0.25]) is third


def test_worst_reads_a_one_shot_generator():
    assert worst(x * x for x in (1.0, -3.0, 2.0)) == 9.0
    assert math.isnan(worst(x - x for x in (1.0, math.inf, 2.0)))


def _self_compared(node):
    """Whether node is a comparison of an expression with itself by == or !=,
    a NaN test."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [ast.dump(x) for x in (node.left, *node.comparators)]
    return any(isinstance(op, (ast.Eq, ast.NotEq)) and left == right
               for op, left, right in zip(node.ops, operands, operands[1:]))


def _calls_isnan(node):
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "isnan"
        or isinstance(node.func, ast.Name) and node.func.id == "isnan")


def test_only_record_worst_tests_for_nan():
    """The NaN-sticky fold has one owner: no other module of the chain tests a
    value against itself or calls math.isnan, so a NaN worst case fails by the
    rule of record.worst alone."""
    found = set()
    for module in (*chain.MODULES, verify, write, cli):
        name = module.__name__.rpartition(".")[2]
        for scope, node in _scoped_nodes(ast.parse(inspect.getsource(module))):
            if _self_compared(node) or _calls_isnan(node):
                found.add(".".join((name, *scope)))
    assert not found, f"tests for NaN outside record.worst: {sorted(found)}"
