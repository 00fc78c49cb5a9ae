"""Multiplication laws for the one-dimensional space-time translation group
and its central extension.

A base element (t, h) translates time by t and space by h; the base product
is componentwise addition.  Extended elements carry an additional central
coordinate xi and multiply with the cocycle twist g*h*t' in that coordinate.

Two charts on the extension are supported:

* polarized coordinates, the default everywhere in this package, whose
  product cocycle is g*h*t';
* canonical (single-exponential) coordinates, whose product cocycle is the
  antisymmetric g*(h*t' - t*h')/2.

The charts differ by the shift beta(t, h) = g*t*h/2, and the two cocycles
differ by the coboundary of beta.
"""

import math

from .record import Record, finite


class BaseElement(Record):
    """Space-time translation: t shifts time (units T), h shifts space (units L)."""

    def __init__(self, t: float, h: float) -> None:
        if not (math.isfinite(t) and math.isfinite(h)):
            raise ValueError("non-finite group coordinate")
        self.__dict__.update(t=t, h=h)


class ExtendedElement(Record):
    """Element (xi, t, h) of the central extension in polarized coordinates."""

    def __init__(self, xi: float, t: float, h: float) -> None:
        if not (math.isfinite(xi) and math.isfinite(t) and math.isfinite(h)):
            raise ValueError("non-finite group coordinate")
        self.__dict__.update(xi=xi, t=t, h=h)


BASE_IDENTITY = BaseElement(0.0, 0.0)
EXTENDED_IDENTITY = ExtendedElement(0.0, 0.0, 0.0)


def multiply_base(a: BaseElement, b: BaseElement) -> BaseElement:
    return BaseElement(a.t + b.t, a.h + b.h)


def inverse_base(a: BaseElement) -> BaseElement:
    return BaseElement(-a.t, -a.h)


def spacetime_act(a: BaseElement, t0: float, x0: float) -> tuple[float, float]:
    """Move the event (t0, x0) by the translation a."""
    return (finite(t0 + a.t, "event coordinate"), finite(x0 + a.h, "event coordinate"))


def cocycle(g: float, a: BaseElement | ExtendedElement, b: BaseElement | ExtendedElement) -> float:
    """Central twist g*h*t' picked up by the polarized product of lifts of a, b."""
    return finite(g * a.h * b.t, "group coordinate")


def cocycle_symmetric(g: float, a: BaseElement | ExtendedElement, b: BaseElement | ExtendedElement) -> float:
    """Cocycle of the canonical chart, antisymmetric under swapping a and b."""
    return finite(g / 2 * (a.h * b.t - a.t * b.h), "group coordinate")


def canonical_shift(g: float, a: BaseElement | ExtendedElement) -> float:
    """Chart shift beta(t, h) = g*t*h/2 between the polarized and canonical charts.

    Its coboundary beta(ab) - beta(a) - beta(b) equals
    cocycle(g, a, b) - cocycle_symmetric(g, a, b).
    """
    return finite(g / 2 * a.t * a.h, "group coordinate")


def multiply_extended(g: float, a: ExtendedElement, b: ExtendedElement) -> ExtendedElement:
    return ExtendedElement(a.xi + b.xi + g * a.h * b.t, a.t + b.t, a.h + b.h)


def inverse_extended(g: float, a: ExtendedElement) -> ExtendedElement:
    # Closed form solved once from a * a^-1 = identity; no numeric search.
    return ExtendedElement(-a.xi + g * a.h * a.t, -a.t, -a.h)


def conjugate_extended(g: float, a: ExtendedElement, b: ExtendedElement) -> ExtendedElement:
    """a * b * a^-1 in the extension."""
    return multiply_extended(g, multiply_extended(g, a, b), inverse_extended(g, a))


def multiply_canonical(g: float, a: ExtendedElement, b: ExtendedElement) -> ExtendedElement:
    """Product written directly in canonical coordinates."""
    return ExtendedElement(a.xi + b.xi + cocycle_symmetric(g, a, b), a.t + b.t, a.h + b.h)


def to_canonical_coords(g: float, a: ExtendedElement) -> ExtendedElement:
    """Rewrite a polarized (xi, t, h) in canonical single-exponential coordinates."""
    return ExtendedElement(a.xi - canonical_shift(g, a), a.t, a.h)


def from_canonical_coords(g: float, a: ExtendedElement) -> ExtendedElement:
    """Inverse chart change of to_canonical_coords."""
    return ExtendedElement(a.xi + canonical_shift(g, a), a.t, a.h)
