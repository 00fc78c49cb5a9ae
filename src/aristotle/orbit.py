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

``algebra`` is not imported: ``AlgebraElement`` appears only in string
annotations, which are not evaluated, and the adjoint actions return ``type(x)``.
"""

import math
import sys

from . import group
from .record import Record, finite


class DegenerateOrbitError(ValueError):
    """The orbit is a single point (m = 0 or g = 0); no (p, q) chart exists."""


class OrbitMismatchError(ValueError):
    """A dual point was interpreted under an orbit context with a different m."""


class CoadjointPoint(Record):
    """Dual-space point: m a mass, e an energy, p a linear momentum."""

    def __init__(self, m: float, e: float, p: float) -> None:
        if not (math.isfinite(m) and math.isfinite(e) and math.isfinite(p)):
            raise ValueError("non-finite dual coordinate")
        self.__dict__.update(m=m, e=e, p=p)


class OrbitContext(Record):
    """Orbit parameters: the invariant m and the gravitational acceleration g.

    Kept separate from chart points so a (p, q) pair is never read under the
    wrong orbit.
    """

    def __init__(self, m: float, g: float) -> None:
        if not (math.isfinite(m) and math.isfinite(g)):
            raise ValueError("non-finite orbit parameter")
        if m == 0.0 or g == 0.0:
            raise DegenerateOrbitError(
                "degenerate orbit: m and g must both be nonzero "
                "for the chart q = -e/(m*g)"
            )
        # The chart divides by m*g, so the product must survive in double
        # precision.  An overflowed m*g would make every q = -e/(m*g) read as zero.
        mg = finite(m * g, "orbit parameter product m*g")
        # A subnormal m*g has under 53 significant bits, off by up to a factor
        # of 2, and one that underflowed to zero has none.
        if abs(mg) < sys.float_info.min:
            raise ValueError("subnormal orbit parameter product m*g")
        self.__dict__.update(m=m, g=g)


class OrbitPoint(Record):
    """Chart coordinates (p, q) on a two-dimensional orbit."""

    def __init__(self, p: float, q: float) -> None:
        if not (math.isfinite(p) and math.isfinite(q)):
            raise ValueError("non-finite chart coordinate")
        self.__dict__.update(p=p, q=q)


class AffineObservable(Record):
    """Affine function a_p*p + a_q*q + c on the orbit chart.

    Every observable this package needs (p, -m*g*q, m*g*q, constants) is
    affine, and the class is closed under the Poisson bracket, so observable
    arithmetic stays exact instead of symbolic.
    """

    def __init__(self, a_p: float, a_q: float, c: float) -> None:
        if not (math.isfinite(a_p) and math.isfinite(a_q) and math.isfinite(c)):
            raise ValueError("non-finite observable coefficient")
        self.__dict__.update(a_p=a_p, a_q=a_q, c=c)

    def value(self, pt: OrbitPoint) -> float:
        return finite(self.a_p * pt.p + self.a_q * pt.q + self.c, "observable value")


class OrbitTangent(Record):
    """Components (dp, dq) of a constant vector field on the chart."""

    def __init__(self, dp: float, dq: float) -> None:
        if not (math.isfinite(dp) and math.isfinite(dq)):
            raise ValueError("non-finite tangent component")
        self.__dict__.update(dp=dp, dq=dq)


def pairing(f: CoadjointPoint, x: "AlgebraElement") -> float:
    """Duality pairing m*dxi + e*dt + p*dx."""
    return finite(f.m * x.c_M + f.e * x.c_E + f.p * x.c_P, "pairing")


def coadjoint_act(g: float, a: group.BaseElement, f: CoadjointPoint) -> CoadjointPoint:
    """Dual action of the translation a; the m component is untouched."""
    return CoadjointPoint(f.m, f.e - f.m * g * a.h, f.p + f.m * g * a.t)


def adjoint_act(g: float, a: group.BaseElement, x: "AlgebraElement") -> "AlgebraElement":
    """Conjugation of the algebra by the lift of a, in closed form."""
    return type(x)(x.c_P, x.c_E, x.c_M + g * (a.h * x.c_E - a.t * x.c_P))


def adjoint_act_via_conjugation(g: float, a: group.BaseElement, x: "AlgebraElement") -> "AlgebraElement":
    """Conjugation of the algebra computed through the group product.

    Valid without any small-parameter limit: conjugation fixes the (t, h)
    coordinates and is linear in the central one, so the one-parameter
    subgroup of x transforms linearly and can be read off at parameter 1.
    Kept alongside the closed form so the verification suite can catch a
    group law whose cocycle disagrees with the dual action.
    """
    lift = group.ExtendedElement(x.c_M, x.c_E, x.c_P)
    conjugated = group.conjugate_extended(g, group.ExtendedElement(0, a.t, a.h), lift)
    return type(x)(conjugated.h, conjugated.t, conjugated.xi)


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


def canonical_act(ctx: OrbitContext, a: group.BaseElement, pt: OrbitPoint) -> OrbitPoint:
    """The dual action read through the chart: a pure translation of (p, q)."""
    return OrbitPoint(pt.p + ctx.m * ctx.g * a.t, pt.q + a.h)


def comomentum(ctx: OrbitContext, x: "AlgebraElement") -> AffineObservable:
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
