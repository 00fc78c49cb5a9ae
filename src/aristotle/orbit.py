"""Coadjoint geometry of the extended translation group.

Dual points (m, e, p) pair with coefficient triples through

    <(m, e, p), (dxi, dt, dx)> = m*dxi + e*dt + p*dx.

The base group acts on the dual by (t, h): (m, e, p) -> (m, e - m*g*h,
p + m*g*t).  The first component is invariant, and for m != 0, g != 0 the
orbit through a point is the affine plane charted by (p, q) with
q = -e/(m*g), carrying the symplectic form sigma = dp ^ dq.

Sign conventions, fixed once and tested rather than left implicit:

* a Hamiltonian vector field satisfies i_{X_f} sigma = df, so the affine
  observable f = a_p*p + a_q*q + c generates X_f = (a_q, -a_p);
* the Poisson bracket {f, h} = sigma(X_f, X_h) is then the constant
  observable f.a_p*h.a_q - h.a_p*f.a_q;
* under these choices the momentum map (P -> p, E -> -m*g*q, M -> m) is an
  anti-homomorphism: {map(P), map(E)} = -g*m = -map([P, E]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import group
from .algebra import AlgebraElement
from .group import BaseElement


class DegenerateOrbitError(ValueError):
    """The orbit is a single point (m = 0 or g = 0); no (p, q) chart exists."""


class OrbitMismatchError(ValueError):
    """A dual point was interpreted under an orbit context with a different m."""


@dataclass(frozen=True)
class CoadjointPoint:
    """Dual-space point: m a mass, e an energy, p a linear momentum."""

    m: float
    e: float
    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and math.isfinite(self.e) and math.isfinite(self.p)):
            raise ValueError("non-finite dual coordinate")


@dataclass(frozen=True)
class OrbitContext:
    """Orbit parameters: the invariant m and the gravitational acceleration g.

    Kept separate from chart points so a (p, q) pair is never read under the
    wrong orbit.
    """

    m: float
    g: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and math.isfinite(self.g)):
            raise ValueError("non-finite orbit parameter")
        # The chart divides by m*g, so the product must survive in double
        # precision too (it can underflow to zero for nonzero factors).
        if self.m == 0.0 or self.g == 0.0 or self.m * self.g == 0.0:
            raise DegenerateOrbitError(
                "degenerate orbit: m and g must both be nonzero "
                "for the chart q = -e/(m*g)"
            )
        # An overflowed m*g would make every chart q = -e/(m*g) read as zero.
        if math.isinf(self.m * self.g):
            raise ValueError("non-finite orbit parameter product m*g")


@dataclass(frozen=True)
class OrbitPoint:
    """Chart coordinates (p, q) on a two-dimensional orbit."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError("non-finite chart coordinate")


@dataclass(frozen=True)
class AffineObservable:
    """Affine function a_p*p + a_q*q + c on the orbit chart.

    Every observable this package needs (p, -m*g*q, m*g*q, constants) is
    affine, and the class is closed under the Poisson bracket, so observable
    arithmetic stays exact instead of symbolic.
    """

    a_p: float
    a_q: float
    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a_p) and math.isfinite(self.a_q) and math.isfinite(self.c)):
            raise ValueError("non-finite observable coefficient")

    def value(self, pt: OrbitPoint) -> float:
        return self.a_p * pt.p + self.a_q * pt.q + self.c


@dataclass(frozen=True)
class OrbitTangent:
    """Components (dp, dq) of a constant vector field on the chart."""

    dp: float
    dq: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dp) and math.isfinite(self.dq)):
            raise ValueError("non-finite tangent component")


def pairing(f: CoadjointPoint, x: AlgebraElement) -> float:
    """Duality pairing m*dxi + e*dt + p*dx."""
    return f.m * x.c_M + f.e * x.c_E + f.p * x.c_P


def coadjoint_act(g: float, a: BaseElement, f: CoadjointPoint) -> CoadjointPoint:
    """Dual action of the translation a; the m component is untouched."""
    return CoadjointPoint(f.m, f.e - f.m * g * a.h, f.p + f.m * g * a.t)


def adjoint_act(g: float, a: BaseElement, x: AlgebraElement) -> AlgebraElement:
    """Conjugation of the algebra by the lift of a, in closed form."""
    return AlgebraElement(x.c_P, x.c_E, x.c_M + g * (a.h * x.c_E - a.t * x.c_P))


def adjoint_act_via_conjugation(g: float, a: BaseElement, x: AlgebraElement) -> AlgebraElement:
    """Conjugation of the algebra computed through the group product.

    Valid without any small-parameter limit: conjugation fixes the (t, h)
    coordinates and is linear in the central one, so the one-parameter
    subgroup of x transforms linearly and can be read off at parameter 1.
    Kept alongside the closed form so the verification suite can catch a
    group law whose cocycle disagrees with the dual action.
    """
    lift = group.ExtendedElement(x.c_M, x.c_E, x.c_P)
    conjugated = group.conjugate_extended(g, group.ExtendedElement(0.0, a.t, a.h), lift)
    return AlgebraElement(conjugated.h, conjugated.t, conjugated.xi)


def to_chart(ctx: OrbitContext, f: CoadjointPoint) -> OrbitPoint:
    """Chart coordinates of a dual point on the orbit of ctx."""
    if f.m != ctx.m:
        raise OrbitMismatchError(
            f"dual point has m={f.m!r} but the orbit context has m={ctx.m!r}"
        )
    return OrbitPoint(f.p, -f.e / (ctx.m * ctx.g))


def from_chart(ctx: OrbitContext, pt: OrbitPoint) -> CoadjointPoint:
    """Dual point represented by chart coordinates; inverse of to_chart."""
    return CoadjointPoint(ctx.m, -(ctx.m * ctx.g) * pt.q, pt.p)


def canonical_act(ctx: OrbitContext, a: BaseElement, pt: OrbitPoint) -> OrbitPoint:
    """The dual action read through the chart: a pure translation of (p, q)."""
    return OrbitPoint(pt.p + ctx.m * ctx.g * a.t, pt.q + a.h)


def comomentum(ctx: OrbitContext, x: AlgebraElement) -> AffineObservable:
    """Momentum map: the observable generating the action of x on the orbit.

    Linear extension of P -> p, E -> -m*g*q, M -> m (the central generator
    maps to the constant the pairing forces on every orbit point).
    """
    return AffineObservable(x.c_P, -(ctx.m * ctx.g) * x.c_E, ctx.m * x.c_M)


def hamiltonian_vector_field(f: AffineObservable) -> OrbitTangent:
    """The field X_f with i_{X_f} sigma = df for sigma = dp ^ dq."""
    return OrbitTangent(f.a_q, -f.a_p)


def poisson_bracket(f: AffineObservable, h: AffineObservable) -> AffineObservable:
    """sigma(X_f, X_h); constant because f and h are affine."""
    return AffineObservable(0.0, 0.0, f.a_p * h.a_q - h.a_p * f.a_q)
