"""Elliptic curves over Q: exact group law, torsion, and the blown-up-plane
obstruction machinery.

Curves are kept in long Weierstrass form y^2 + a1 xy + a3 y = x^3 + a2 x^2 +
a4 x + a6 so that small rank-one curves such as y^2 + y = x^3 - x can be used
directly.  With u the lcm of the coefficient denominators, (x, y) ->
(u^2 x, u^3 y) maps the curve to an integral model; each curve keeps u, the
integers u*a_i and that model's discriminant, so the on-curve test and the
nonsingularity check are integer cross-multiplications.

Whether a weighted point sum S = sum m_i P_i is torsion is decided in two
stages, and only the second forms points over Q.  Both form S by one joint
double-and-add (Straus, "Addition chains of vectors", 1964): walking the
bits of the largest weight from the top, double the running point, then add
each P_i whose m_i has that bit set.  After bit j the running point is
sum floor(m_i / 2^j) P_i, so when the P_i are multiples k_i G of one point
and S = O, every point formed is c G with |c| <= 2 sum |k_i|, whatever the
weights: cancelling heavy weights never form a large point.

1. Reduction filter.  At a prime p >= 3 of good reduction, E(Q)_tors
   injects into the reduced curve's group (Silverman, AEC VII.3.1 with
   IV.6.4), so a torsion S and its reduction have the same order, one of
   Mazur's rational torsion orders 1..10 or 12.  For each prime of
   ``FILTER_PRIMES`` that divides no coefficient denominator, not the
   discriminant and no point denominator, the sum is formed in F_p.  A
   reduction whose order is not an admissible torsion order, or two
   primes that disagree on the order, certify NonTorsion.
2. Exact candidates.  A sum the filter leaves open is formed over Q and
   tested against Mazur's bound, with the generalised Nagell-Lutz exit
   (Silverman, AEC VII.3.4 and VIII.7.1): on the integral model every
   affine torsion point has 4x, 8y in Z, so the first multiple that breaks
   this integrality certifies NonTorsion before the coordinates grow.
   ``Torsion(n)`` only ever comes from this exact stage.  Every point it
   forms must keep its coordinates within ``EXACT_BITS_BUDGET`` bits; past
   the budget the status is ``Undecided(bits>B)``, which decides nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Optional, Sequence

from .errors import InputError, PreconditionError
from .fibres import FalseFibreClaim, GroupLawObstruction
from .linalg import as_rational
from .nslattice import ClassRecord, NSLattice, cubic_blowup
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
# primes p >= 5 below 2^15, so every product of two residues is one machine
# digit; near p the reduced group has about p points, of which only a few
# have an admissible torsion order, so a non-torsion sum rarely survives one
FILTER_PRIMES = (32749, 32719, 32717)
# largest numerator or denominator bit-length a point formed by the exact
# stage may have; one doubling at the budget costs tens of milliseconds
EXACT_BITS_BUDGET = 1 << 14


@dataclass(frozen=True)
class WeierstrassCurve:
    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)
    a3: Fraction = Fraction(0)
    a4: Fraction = Fraction(0)
    a6: Fraction = Fraction(0)

    def __post_init__(self):
        coefficients = []
        for name in ("a1", "a2", "a3", "a4", "a6"):
            value = as_rational(getattr(self, name))
            object.__setattr__(self, name, value)
            coefficients.append(value)
        u = lcm(*(c.denominator for c in coefficients))
        scaled = tuple(c.numerator * (u // c.denominator) for c in coefficients)
        # the integral model's coefficients a_i u^i, from the integers u a_i
        c1, c2, c3, c4, c6 = (
            s * u ** power for s, power in zip(scaled, (0, 1, 2, 3, 5))
        )
        b2 = c1 * c1 + 4 * c2
        b4 = 2 * c4 + c1 * c3
        b6 = c3 * c3 + 4 * c6
        b8 = c1 * c1 * c6 + 4 * c2 * c6 - c1 * c3 * c4 + c2 * c3 * c3 - c4 * c4
        delta = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if delta == 0:
            raise InputError("curve is singular (discriminant vanishes)")
        object.__setattr__(self, "_u", u)
        object.__setattr__(self, "_scaled", scaled)
        object.__setattr__(self, "_integral_discriminant", delta)

    def discriminant(self) -> Fraction:
        return Fraction(self._integral_discriminant, self._u ** 12)

    def contains(self, point: "ECPoint") -> bool:
        if point.is_infinity:
            return True
        # the curve equation times u xd^3 yd^2, for x = xn/xd and y = yn/yd
        u = self._u
        s1, s2, s3, s4, s6 = self._scaled
        xn, xd = point.x.numerator, point.x.denominator
        yn, yd = point.y.numerator, point.y.denominator
        xd2 = xd * xd
        lhs = yn * (u * yn * xd + s1 * xn * yd + s3 * xd * yd) * xd2
        rhs = yd * yd * (((u * xn + s2 * xd) * xn + s4 * xd2) * xn + s6 * xd2 * xd)
        return lhs == rhs


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
    return _joint_sum(partial(_add, curve), ECPoint.infinity(), ((p, n),))


def _joint_sum(add, identity, terms):
    """sum m P over (P, m) pairs with m >= 0 in the group with law ``add``,
    by one joint double-and-add over the bits of the largest weight."""
    total = identity
    for bit in reversed(range(max(m for _, m in terms).bit_length())):
        total = add(total, total)
        for point, mult in terms:
            if mult >> bit & 1:
                total = add(total, point)
    return total


class _OverBudget(Exception):
    """The exact stage formed a point past ``EXACT_BITS_BUDGET``."""


def _within_budget(point: ECPoint) -> ECPoint:
    if not point.is_infinity and max(
        point.x.numerator.bit_length(),
        point.x.denominator.bit_length(),
        point.y.numerator.bit_length(),
        point.y.denominator.bit_length(),
    ) > EXACT_BITS_BUDGET:
        raise _OverBudget
    return point


@dataclass(frozen=True)
class TorsionStatus:
    torsion: bool
    order: Optional[int] = None
    # the bit budget the exact stage ran past; set only when undecided
    bound: Optional[int] = None

    def __str__(self) -> str:
        if self.bound is not None:
            return f"Undecided(bits>{self.bound})"
        return f"Torsion({self.order})" if self.torsion else "NonTorsion"


def is_torsion(curve: WeierstrassCurve, p: ECPoint) -> TorsionStatus:
    """Torsion(n) for the least admissible rational torsion order n with
    n*p = infinity, NonTorsion, or Undecided(bits>B) when the exact stage
    would have to form a point past its bit budget (see the module
    docstring for the two stages)."""
    _require_on_curve(curve, p)
    if p.is_infinity:
        return TorsionStatus(True, 1)
    return _weighted_torsion(curve, ((p, 1),))


def _weighted_torsion(
    curve: WeierstrassCurve, points: Sequence[tuple[ECPoint, int]]
) -> TorsionStatus:
    """The torsion status of sum m P over (P, m) pairs of affine points
    known to lie on the curve."""
    if _reduction_certifies_non_torsion(curve, points):
        return TorsionStatus(False)
    try:
        total = _joint_sum(
            lambda p, q: _within_budget(_add(curve, p, q)),
            ECPoint.infinity(),
            points,
        )
    except _OverBudget:
        return TorsionStatus(False, bound=EXACT_BITS_BUDGET)
    return _torsion_status(curve, total)


def _reduction_certifies_non_torsion(
    curve: WeierstrassCurve, points: Sequence[tuple[ECPoint, int]]
) -> bool:
    """True when the sum's reductions at the filter primes rule out every
    rational torsion order."""
    orders = set()
    for p in FILTER_PRIMES:
        if not (curve._u % p and curve._integral_discriminant % p):
            continue  # p in a coefficient denominator, or bad reduction
        if any(
            point.x.denominator % p == 0 or point.y.denominator % p == 0
            for point, _ in points
        ):
            continue
        order = _reduced_order(curve, points, p)
        if order not in RATIONAL_TORSION_ORDERS:
            return True
        orders.add(order)
        if len(orders) > 1:
            return True
    return False


def _reduced_order(
    curve: WeierstrassCurve, points: Sequence[tuple[ECPoint, int]], p: int
) -> Optional[int]:
    """The least k <= 12 with k S = O for the reduction S of sum m P at a
    good prime p dividing no point denominator, else None.  Affine points
    are (x, y) residue pairs and the identity is None."""
    inverse_u = pow(curve._u, -1, p)
    a1, a2, a3, a4, _ = (s * inverse_u % p for s in curve._scaled)

    def add(first, second):
        # second is None only in total + total, so only when first is
        if first is None:
            return second
        x1, y1 = first
        x2, y2 = second
        if x1 == x2:
            # equal x: the points are inverse or equal, and when equal the
            # tangent's denominator 2 y1 + a1 x1 + a3 is this same sum
            den = (y1 + y2 + a1 * x1 + a3) % p
            if not den:
                return None
            slope = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * pow(den, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (slope * slope + a1 * slope - a2 - x1 - x2) % p
        return x3, (slope * (x1 - x3) - y1 - a1 * x3 - a3) % p

    def residue(r: Fraction) -> int:
        return r.numerator * pow(r.denominator, -1, p) % p

    total = running = _joint_sum(
        add, None, [((residue(q.x), residue(q.y)), m) for q, m in points]
    )
    for k in range(1, 13):
        if running is None:
            return k
        running = add(running, total)
    return None


def _torsion_status(curve: WeierstrassCurve, p: ECPoint) -> TorsionStatus:
    """The exact stage for a point known to lie on the curve: form at most
    twelve multiples, each held to the budget once it passes the
    Nagell-Lutz integrality test on the integral model."""
    x_scale, y_scale = 4 * curve._u ** 2, 8 * curve._u ** 3
    running = ECPoint.infinity()
    for n in range(1, 13):
        running = _add(curve, running, p)
        if running.is_infinity:
            if n in RATIONAL_TORSION_ORDERS:
                return TorsionStatus(True, n)
        elif x_scale % running.x.denominator or y_scale % running.y.denominator:
            return TorsionStatus(False)
        else:
            _within_budget(running)
    return TorsionStatus(False)


@dataclass(frozen=True)
class ObstructionReport:
    found: bool
    torsion: TorsionStatus
    curve: WeierstrassCurve = field(repr=False, compare=False)
    points: tuple[tuple[ECPoint, int], ...] = field(repr=False, compare=False)

    @property
    def verdict(self) -> str:
        return "obstruction-found" if self.found else "inconclusive"

    @cached_property
    def total(self) -> ECPoint:
        """The weighted sum, formed exactly on first read: no verdict needs
        it, and a sum the filter decided may be far past the budget."""
        add = partial(_add, self.curve)
        return _joint_sum(add, ECPoint.infinity(), self.points)


def sum_obstruction(
    curve: WeierstrassCurve, points: Sequence[tuple[ECPoint, int]]
) -> ObstructionReport:
    """Test the weighted point sum for non-torsion.

    A configuration of blown-up points on a cubic can only be cut out (at
    any uniform multiple of the given tangency weights) when the weighted
    sum vanishes in the group law.  A non-torsion sum therefore obstructs
    every such divisor; a torsion or undecided sum decides nothing.
    """
    if not points:
        raise PreconditionError("need at least one point")
    seen = set()
    for point, mult in points:
        if point.is_infinity:
            raise PreconditionError("blown-up points must be affine")
        _require_on_curve(curve, point)
        if not isinstance(mult, int) or mult < 1:
            raise PreconditionError(
                f"multiplicity must be a positive integer, got {mult!r}"
            )
        # integer keys: hashing a Fraction costs a modular inverse
        x, y = point.x, point.y
        key = (x.numerator, x.denominator, y.numerator, y.denominator)
        if key in seen:
            raise PreconditionError(f"repeated point {point!r}; points must be distinct")
        seen.add(key)
    points = tuple(points)
    torsion = _weighted_torsion(curve, points)
    return ObstructionReport(
        found=not torsion.torsion and torsion.bound is None,
        torsion=torsion,
        curve=curve,
        points=points,
    )


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
    fibration_asserted: bool = False,
) -> HironakaReport:
    """Blow up the plane along distinct points of a smooth cubic and analyse
    the complement of the cubic's strict transform.

    The strict transform has self-intersection 9 - n.  For n = 9 it is a
    fibre-type boundary with normal bundle O_C(9O - sum p_i), as each point
    is blown up once whatever its weight: a non-torsion plain sum certifies
    it as a false fibre (trivial affinisation), a torsion sum leaves the
    verdict to a fibration assertion.  For n >= 10 it is negative definite,
    so the surface is unsaturated; the weighted obstruction then feeds the
    scheme-contractibility oracle.
    """
    n = len(points)
    if n == 0:
        raise PreconditionError("need at least one blown-up point")

    obstruction = sum_obstruction(curve, points)

    lattice, cubic, exceptionals, config = cubic_blowup(n)
    boundary = frozenset({0})

    claim: Optional[FalseFibreClaim] = None
    if n == 9 and (
        obstruction if all(m == 1 for _, m in points)
        else sum_obstruction(curve, [(p, 1) for p, _ in points])
    ).found:
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
        exceptional_classes=exceptionals,
        boundary_self_intersection=Fraction(9 - n),
        surface=surface,
        obstruction=obstruction,
        saturation=saturation,
        plan=plan,
        scheme_saturation=scheme,
        affinisation=affinisation,
        claim=claim,
    )
