"""Elliptic curves over Q: exact group law, torsion, and the blown-up-plane
obstruction machinery.

Curves are kept in long Weierstrass form y^2 + a1 xy + a3 y = x^3 + a2 x^2 +
a4 x + a6 so that small rank-one curves such as y^2 + y = x^3 - x can be used
directly.  Torsion is decided by two theorems.  Mazur's bound on rational
torsion orders (1..10 or 12) limits the search to twelve multiples, and the
generalised Nagell-Lutz theorem (Silverman, AEC VII.3.4 and VIII.7.1) ends
it early: on an integral model every affine torsion point has 4x, 8y in Z,
so the first multiple that breaks this integrality certifies non-torsion
before the coordinates grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import InputError, PreconditionError
from .fibres import FalseFibreClaim, GroupLawObstruction
from .linalg import as_rational
from .nslattice import (
    BlowupResult,
    ClassRecord,
    NSLattice,
    blowup,
    configuration_from_classes,
    projective_plane,
)
from .saturation import (
    AffDimReport,
    CompactifiedSurface,
    SaturationPlan,
    SaturationVerdict,
    SchemeContractibility,
    SchemeSaturationReport,
    _affinisation_after_plan,
    is_saturated,
    saturation_plan,
    scheme_saturation_check,
)

RATIONAL_TORSION_ORDERS = frozenset(range(1, 11)) | {12}


@dataclass(frozen=True)
class WeierstrassCurve:
    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)
    a3: Fraction = Fraction(0)
    a4: Fraction = Fraction(0)
    a6: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.discriminant() == 0:
            raise InputError("curve is singular (discriminant vanishes)")

    def b_invariants(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self) -> Fraction:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def contains(self, point: "ECPoint") -> bool:
        if point.is_infinity:
            return True
        x, y = point.x, point.y
        return (
            y * y + self.a1 * x * y + self.a3 * y
            == x ** 3 + self.a2 * x * x + self.a4 * x + self.a6
        )


@dataclass(frozen=True)
class ECPoint:
    x: Optional[Fraction] = None
    y: Optional[Fraction] = None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise InputError("affine point needs both coordinates")
        if self.x is not None:
            object.__setattr__(self, "x", as_rational(self.x))
            object.__setattr__(self, "y", as_rational(self.y))

    @classmethod
    def infinity(cls) -> "ECPoint":
        return cls()

    @classmethod
    def affine(cls, x, y) -> "ECPoint":
        return cls(as_rational(x), as_rational(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "ECPoint(infinity)"
        return f"ECPoint({self.x}, {self.y})"


def _require_on_curve(curve: WeierstrassCurve, point: ECPoint) -> None:
    if not curve.contains(point):
        raise PreconditionError(f"{point!r} does not satisfy the curve equation")


def negate(curve: WeierstrassCurve, p: ECPoint) -> ECPoint:
    _require_on_curve(curve, p)
    if p.is_infinity:
        return p
    return ECPoint.affine(p.x, -p.y - curve.a1 * p.x - curve.a3)


def add(curve: WeierstrassCurve, p: ECPoint, q: ECPoint) -> ECPoint:
    """Chord-tangent addition with the point at infinity as identity."""
    _require_on_curve(curve, p)
    _require_on_curve(curve, q)
    return _add(curve, p, q)


def _add(curve: WeierstrassCurve, p: ECPoint, q: ECPoint) -> ECPoint:
    """:func:`add` for points already known to lie on the curve: the group
    law keeps them there, so sums and multiples of checked points are never
    re-checked."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x and p.y + q.y + curve.a1 * q.x + curve.a3 == 0:
        return ECPoint.infinity()
    if p.x == q.x:
        # p == q here: a vertical coincidence with distinct y is the
        # inverse case handled above
        num = 3 * p.x * p.x + 2 * curve.a2 * p.x + curve.a4 - curve.a1 * p.y
        den = 2 * p.y + curve.a1 * p.x + curve.a3
        slope = num / den
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    offset = p.y - slope * p.x
    x3 = slope * slope + curve.a1 * slope - curve.a2 - p.x - q.x
    y3 = -(slope + curve.a1) * x3 - offset - curve.a3
    return ECPoint.affine(x3, y3)


def scalar_mul(curve: WeierstrassCurve, n: int, p: ECPoint) -> ECPoint:
    if not isinstance(n, int):
        raise PreconditionError(f"scalar must be an integer, got {n!r}")
    if n < 0:
        return scalar_mul(curve, -n, negate(curve, p))
    _require_on_curve(curve, p)
    return _scalar_mul(curve, n, p)


def _scalar_mul(curve: WeierstrassCurve, n: int, p: ECPoint) -> ECPoint:
    """n p for n >= 0 and p known to lie on the curve."""
    result = ECPoint.infinity()
    doubling = p
    while n:
        if n & 1:
            result = _add(curve, result, doubling)
        n >>= 1
        if n:
            doubling = _add(curve, doubling, doubling)
    return result


@dataclass(frozen=True)
class TorsionStatus:
    torsion: bool
    order: Optional[int] = None

    def __str__(self) -> str:
        return f"Torsion({self.order})" if self.torsion else "NonTorsion"


def is_torsion(curve: WeierstrassCurve, p: ECPoint) -> TorsionStatus:
    """Torsion(n) for the least admissible rational torsion order n with
    n*p = infinity, else NonTorsion.

    Rational torsion orders are 1..10 and 12 (Mazur), so at most twelve
    multiples are formed.  With u the lcm of the coefficient denominators,
    (x, y) -> (u^2 x, u^3 y) maps the curve to an integral model, on which
    every affine torsion point has 4x, 8y in Z (generalised Nagell-Lutz).
    Every multiple of a torsion point is torsion, so the first multiple
    that fails this integrality certifies NonTorsion.
    """
    _require_on_curve(curve, p)
    return _torsion_status(curve, p)


def _torsion_status(curve: WeierstrassCurve, p: ECPoint) -> TorsionStatus:
    """:func:`is_torsion` for a point known to lie on the curve."""
    coefficients = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
    u = lcm(*(c.denominator for c in coefficients))
    x_scale, y_scale = 4 * u * u, 8 * u * u * u
    running = ECPoint.infinity()
    for n in range(1, 13):
        running = _add(curve, running, p)
        if running.is_infinity:
            if n in RATIONAL_TORSION_ORDERS:
                return TorsionStatus(True, n)
        elif x_scale % running.x.denominator or y_scale % running.y.denominator:
            return TorsionStatus(False)
    return TorsionStatus(False)


@dataclass(frozen=True)
class ObstructionReport:
    found: bool
    total: ECPoint
    torsion: TorsionStatus

    @property
    def verdict(self) -> str:
        return "obstruction-found" if self.found else "inconclusive"


def sum_obstruction(
    curve: WeierstrassCurve, points: Sequence[tuple[ECPoint, int]]
) -> ObstructionReport:
    """Test the weighted point sum for non-torsion.

    A configuration of blown-up points on a cubic can only be cut out (at
    any uniform multiple of the given tangency weights) when the weighted
    sum vanishes in the group law.  A non-torsion sum therefore obstructs
    every such divisor; a torsion sum decides nothing.
    """
    if not points:
        raise PreconditionError("need at least one point")
    seen = []
    for point, mult in points:
        if point.is_infinity:
            raise PreconditionError("blown-up points must be affine")
        _require_on_curve(curve, point)
        if not isinstance(mult, int) or mult < 1:
            raise PreconditionError(
                f"multiplicity must be a positive integer, got {mult!r}"
            )
        if point in seen:
            raise PreconditionError(f"repeated point {point!r}; points must be distinct")
        seen.append(point)
    total = ECPoint.infinity()
    for point, mult in points:
        total = _add(curve, total, _scalar_mul(curve, mult, point))
    torsion = _torsion_status(curve, total)
    return ObstructionReport(found=not torsion.torsion, total=total, torsion=torsion)


@dataclass(frozen=True)
class HironakaReport:
    """Everything the blown-up-cubic construction produces for n points."""

    n: int
    lattice: NSLattice
    cubic_class: ClassRecord
    exceptional_classes: tuple[ClassRecord, ...]
    boundary_self_intersection: Fraction
    surface: CompactifiedSurface
    obstruction: ObstructionReport
    saturation: SaturationVerdict
    plan: SaturationPlan
    scheme_saturation: SchemeSaturationReport
    affinisation: AffDimReport
    claim: Optional[FalseFibreClaim]


def hironaka_build(
    curve: WeierstrassCurve,
    points: Sequence[tuple[ECPoint, int]],
    n: Optional[int] = None,
    fibration_asserted: bool = False,
) -> HironakaReport:
    """Blow up the plane along distinct points of a smooth cubic and analyse
    the complement of the cubic's strict transform.

    The strict transform has self-intersection 9 - n.  For n = 9 it is a
    fibre-type boundary: a non-torsion point sum certifies it as a false
    fibre (trivial affinisation), a torsion sum leaves the verdict to a
    fibration assertion.  For n >= 10 it is negative definite, so the
    surface is unsaturated; the same obstruction then feeds the
    scheme-contractibility oracle.
    """
    if n is None:
        n = len(points)
    if n != len(points):
        raise PreconditionError(
            f"n = {n} but {len(points)} points were supplied"
        )
    if n == 0:
        raise PreconditionError("need at least one blown-up point")

    obstruction = sum_obstruction(curve, points)

    lattice = projective_plane()
    cubic = ClassRecord("C", (3,), genus=1)
    exceptionals: list[ClassRecord] = []
    for i in range(n):
        listed = [(cubic, 1)] + [(e, 0) for e in exceptionals]
        result: BlowupResult = blowup(lattice, listed, name=f"E{i + 1}")
        lattice = result.lattice
        cubic = result.classes[0]
        exceptionals = list(result.classes[1:]) + [result.exceptional]

    config = configuration_from_classes(lattice, [cubic] + exceptionals)
    boundary = frozenset({0})
    self_int = lattice.self_intersection(cubic)

    claim: Optional[FalseFibreClaim] = None
    if n == 9 and obstruction.found:
        claim = FalseFibreClaim(
            boundary,
            GroupLawObstruction(
                reference=(
                    "weighted sum of the blown-up points is non-torsion "
                    "in the cubic's group law"
                )
            ),
        )
    surface = CompactifiedSurface(
        ambient=config,
        boundary=boundary,
        false_fibre_claims=(claim,) if claim else (),
        fibration_asserted=fibration_asserted,
    )

    saturation = is_saturated(surface)
    plan = saturation_plan(surface)

    contractibility = (
        SchemeContractibility.NOT_SCHEME_CONTRACTIBLE
        if obstruction.found
        else SchemeContractibility.UNKNOWN
    )
    oracle = {comp: contractibility for comp in plan.d_minus}
    scheme = scheme_saturation_check(surface, oracle)

    affinisation = _affinisation_after_plan(surface, plan)

    return HironakaReport(
        n=n,
        lattice=lattice,
        cubic_class=cubic,
        exceptional_classes=tuple(exceptionals),
        boundary_self_intersection=self_int,
        surface=surface,
        obstruction=obstruction,
        saturation=saturation,
        plan=plan,
        scheme_saturation=scheme,
        affinisation=affinisation,
        claim=claim,
    )
