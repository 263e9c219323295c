"""Elliptic curves over Q: exact group law, torsion, and the blown-up-plane
obstruction machinery.

Curves are kept in long Weierstrass form y^2 + a1 xy + a3 y = x^3 + a2 x^2 +
a4 x + a6 so that small rank-one curves such as y^2 + y = x^3 - x can be used
directly.  With u the lcm of the coefficient denominators, (x, y) ->
(u^2 x, u^3 y) maps the curve to an integral model with coefficients
a_i u^i.  On an integral model a rational point has coordinates X / Z^2,
Y / Z^3 in lowest terms with one Z >= 1 (Silverman, AEC VII), so each
affine point lifts to an integer triple (X, Y, Z) with gcd(X, Z) =
gcd(Y, Z) = 1.  The lift is the on-curve check, and the curve keeps the
triple of every point it accepts.  The group law runs on triples in
integers; an ``ECPoint`` is formed only where a public function returns
one.

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
   ``FILTER_PRIMES`` that divides neither u, nor the integral model's
   discriminant, nor any point's Z, the sum is formed in F_p on the
   integral model from the residues X / Z^2, Y / Z^3.  A reduction whose
   order is not an admissible torsion order, or two primes that disagree
   on the order, certify NonTorsion.
2. Exact candidates.  A sum the filter leaves open is formed on triples
   and tested against Mazur's bound, with the generalised Nagell-Lutz exit
   (Silverman, AEC VII.3.4 and VIII.7.1): on the integral model every
   affine torsion point has 4x, 8y in Z, which for X / Z^2, Y / Z^3 in
   lowest terms reads Z | 2, so the first multiple with Z > 2 certifies
   NonTorsion before the coordinates grow.  ``Torsion(n)`` only ever comes
   from this exact stage.  Every point it forms must keep the numerators
   and denominators of its coordinates on the given model, X / u^2 Z^2 and
   Y / u^3 Z^3 in lowest terms, within ``EXACT_BITS_BUDGET`` bits; past
   the budget the status is ``Undecided(bits>B)``, which decides nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import gcd, isqrt, lcm
from typing import Optional, Sequence

from .errors import InputError, PreconditionError
from .fibres import FalseFibreClaim, GroupLawObstruction
from .linalg import _ZERO, as_rational
from .nslattice import ClassRecord, NSLattice, cubic_blowup
from .record import Record
from .saturation import (
    AffDimReport,
    CompactifiedSurface,
    SaturationPlan,
    SaturationVerdict,
    SchemeContractibility,
    SchemeSaturationReport,
    affinisation_dimension,
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

# an affine point on the integral model, (X, Y, Z) for (X / Z^2, Y / Z^3) in
# lowest terms with Z >= 1; the identity is None
Triple = tuple[int, int, int]


class WeierstrassCurve(Record):
    __slots__ = (
        "a1", "a2", "a3", "a4", "a6", "_u", "_integral", "_integral_discriminant",
        "_lifts",
    )

    def __init__(self, a1=_ZERO, a2=_ZERO, a3=_ZERO, a4=_ZERO, a6=_ZERO):
        coefficients = [as_rational(a) for a in (a1, a2, a3, a4, a6)]
        self.a1, self.a2, self.a3, self.a4, self.a6 = coefficients
        u = lcm(*(c.denominator for c in coefficients))
        # the integral model's coefficients a_i u^i
        c1, c2, c3, c4, c6 = (
            c.numerator * (u // c.denominator) * u ** (power - 1)
            for c, power in zip(coefficients, (1, 2, 3, 4, 6))
        )
        b2 = c1 * c1 + 4 * c2
        b4 = 2 * c4 + c1 * c3
        b6 = c3 * c3 + 4 * c6
        b8 = c1 * c1 * c6 + 4 * c2 * c6 - c1 * c3 * c4 + c2 * c3 * c3 - c4 * c4
        delta = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if delta == 0:
            raise InputError("curve is singular (discriminant vanishes)")
        self._u, self._integral = u, (c1, c2, c3, c4, c6)
        self._integral_discriminant = delta
        # the triple of every point found on the curve, keyed by its
        # coordinates' numerators and denominators
        self._lifts = {}

    def discriminant(self) -> Fraction:
        return Fraction(self._integral_discriminant, self._u ** 12)

    def contains(self, point: "ECPoint") -> bool:
        return point.is_infinity or self._lift(point) is not None

    def _lift(self, point: "ECPoint") -> Optional[Triple]:
        """The triple of an affine point on the curve, None for a point off
        it.  The curve is immutable, so a point it accepts is checked once
        and its triple read back afterwards."""
        x, y = point.x, point.y
        key = (x.numerator, x.denominator, y.numerator, y.denominator)
        lifted = self._lifts.get(key)
        if lifted is None:
            lifted = self._integral_point(*key)
            if lifted is not None:
                self._lifts[key] = lifted
        return lifted

    def _integral_point(
        self, xn: int, xd: int, yn: int, yd: int
    ) -> Optional[Triple]:
        """:meth:`_lift` of (xn / xd, yn / yd) without the memo."""
        # u^2 x and u^3 y in lowest terms: only u's powers can cancel
        u = self._u
        g = gcd(xd, u * u)
        xn, xd = xn * (u * u // g), xd // g
        g = gcd(yd, u ** 3)
        yn, yd = yn * (u ** 3 // g), yd // g
        z = isqrt(xd)
        if z * z != xd or z * xd != yd:
            return None  # not the denominators of a point on the model
        # the integral model's equation times Z^6
        c1, c2, c3, c4, c6 = self._integral
        lhs = yn * (yn + c1 * xn * z + c3 * yd)
        rhs = ((xn + c2 * xd) * xn + c4 * xd * xd) * xn + c6 * yd * yd
        return (xn, yn, z) if lhs == rhs else None

    def _point(self, lifted: Optional[Triple]) -> "ECPoint":
        """The point on this model with the triple ``lifted``."""
        if lifted is None:
            return ECPoint.infinity()
        x, y, z = lifted
        scale = self._u * z
        return ECPoint(Fraction(x, scale * scale), Fraction(y, scale ** 3))


class ECPoint(Record):
    __slots__ = ("x", "y")

    def __init__(self, x: Optional[Fraction] = None, y: Optional[Fraction] = None):
        if (x is None) != (y is None):
            raise InputError("affine point needs both coordinates")
        self.x, self.y = (x, y) if x is None else (as_rational(x), as_rational(y))

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


def _lifted(curve: WeierstrassCurve, point: ECPoint) -> Optional[Triple]:
    """The triple of a point handed to a public function, None for the
    identity; a point off the curve is refused."""
    if point.is_infinity:
        return None
    lifted = curve._lift(point)
    if lifted is None:
        raise PreconditionError(f"{point!r} does not satisfy the curve equation")
    return lifted


def negate(curve: WeierstrassCurve, p: ECPoint) -> ECPoint:
    return curve._point(_negate(curve, _lifted(curve, p)))


def _negate(curve: WeierstrassCurve, p: Optional[Triple]) -> Optional[Triple]:
    """-(x, y) = (x, -y - a1 x - a3), times Z^3 on the integral model."""
    if p is None:
        return p
    x, y, z = p
    c1, _, c3, _, _ = curve._integral
    return x, -y - (c1 * x + c3 * z * z) * z, z


def add(curve: WeierstrassCurve, p: ECPoint, q: ECPoint) -> ECPoint:
    """Chord-tangent addition with the point at infinity as identity."""
    return curve._point(_add(curve, _lifted(curve, p), _lifted(curve, q)))


def _add(
    curve: WeierstrassCurve, p: Optional[Triple], q: Optional[Triple]
) -> Optional[Triple]:
    """:func:`add` on triples, in integers.  The slope is L / W with W a
    multiple of Z1 Z2, so the sum is (N / W^2, M / W^3); on the integral
    model gcd(N, W^2) is a square g^2, and dividing it out leaves the
    sum's triple in lowest terms."""
    if p is None:
        return q
    if q is None:
        return p
    c1, c2, c3, c4, _ = curve._integral
    x1, y1, z1 = p
    x2, y2, z2 = q
    if x1 == x2 and z1 == z2:
        # equal x: the points are inverse or equal, and when equal the
        # tangent's denominator 2 y + a1 x + a3, times Z^3, is this same sum
        zz = z1 * z1
        den = y1 + y2 + (c1 * x1 + c3 * zz) * z1
        if not den:
            return None
        slope = 3 * x1 * x1 + (2 * c2 * x1 + c4 * zz) * zz - c1 * y1 * z1
        a = den  # W / Z1, which is also W / Z2
        w = a * z1
        a2 = a * a
        xs = 2 * x1 * a2  # X1 (W / Z1)^2 + X2 (W / Z2)^2
    else:
        z1z1, z2z2 = z1 * z1, z2 * z2
        d = x2 * z1z1 - x1 * z2z2
        slope = y2 * z1z1 * z1 - y1 * z2z2 * z2
        a, b = z2 * d, z1 * d  # W / Z1 and W / Z2
        w = z1 * a
        a2 = a * a
        xs = x1 * a2 + x2 * b * b
    ww = w * w
    n = slope * (slope + c1 * w) - c2 * ww - xs
    m = slope * (x1 * a2 - n) - y1 * a2 * a - (c1 * n + c3 * ww) * w
    if w < 0:
        w, m = -w, -m
    g = gcd(n, ww)
    if g == 1:
        return n, m, w
    g = isqrt(g)
    return n // (g * g), m // (g * g * g), w // g


def scalar_mul(curve: WeierstrassCurve, n: int, p: ECPoint) -> ECPoint:
    if not isinstance(n, int):
        raise PreconditionError(f"scalar must be an integer, got {n!r}")
    lifted = _lifted(curve, p)
    if n < 0:
        n, lifted = -n, _negate(curve, lifted)
    return curve._point(_joint_sum(partial(_add, curve), None, ((lifted, n),)))


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


def _within_budget(
    curve: WeierstrassCurve, point: Optional[Triple]
) -> Optional[Triple]:
    """``point``, unless a numerator or denominator of its coordinates on
    the given model, X / u^2 Z^2 and Y / u^3 Z^3, is past the budget."""
    if point is None:
        return point
    x, y, z = point
    u = curve._u
    # the coordinates before cancelling: no longer than the cancelled ones
    bits = max(x.bit_length(), y.bit_length(), 3 * (u * z).bit_length())
    if bits <= EXACT_BITS_BUDGET:
        return point
    # gcd(X, Z) = gcd(Y, Z) = 1, so only gcd(X, u^2) and gcd(Y, u^3) cancel
    gx, gy = gcd(x, u * u), gcd(y, u ** 3)
    if max(
        (x // gx).bit_length(),
        (u * u // gx * z * z).bit_length(),
        (y // gy).bit_length(),
        (u ** 3 // gy * z ** 3).bit_length(),
    ) > EXACT_BITS_BUDGET:
        raise _OverBudget
    return point


class TorsionStatus(Record):
    # bound: the bit budget the exact stage ran past; set only when undecided
    __slots__ = ("torsion", "order", "bound")

    def __init__(self, torsion: bool, order: Optional[int] = None, bound=None):
        self.torsion, self.order, self.bound = torsion, order, bound

    def __str__(self) -> str:
        if self.bound is not None:
            return f"Undecided(bits>{self.bound})"
        return f"Torsion({self.order})" if self.torsion else "NonTorsion"


def is_torsion(curve: WeierstrassCurve, p: ECPoint) -> TorsionStatus:
    """Torsion(n) for the least admissible rational torsion order n with
    n*p = infinity, NonTorsion, or Undecided(bits>B) when the exact stage
    would have to form a point past its bit budget (see the module
    docstring for the two stages)."""
    lifted = _lifted(curve, p)
    if lifted is None:
        return TorsionStatus(True, 1)
    return _weighted_torsion(curve, ((lifted, 1),))


def _weighted_torsion(
    curve: WeierstrassCurve, terms: Sequence[tuple[Triple, int]]
) -> TorsionStatus:
    """The torsion status of sum m P over (P, m) pairs of triples."""
    if _reduction_certifies_non_torsion(curve, terms):
        return TorsionStatus(False)
    return _exact_torsion(curve, terms)


def _exact_torsion(
    curve: WeierstrassCurve, terms: Sequence[tuple[Triple, int]]
) -> TorsionStatus:
    """The exact stage: the sum formed on triples, then at most twelve
    multiples of it, each held to the budget once it passes the
    Nagell-Lutz test Z | 2."""
    try:
        total = _joint_sum(
            lambda p, q: _within_budget(curve, _add(curve, p, q)), None, terms
        )
        running = None
        for n in range(1, 13):
            running = _add(curve, running, total)
            if running is None:
                if n in RATIONAL_TORSION_ORDERS:
                    return TorsionStatus(True, n)
            elif running[2] > 2:
                break
            else:
                _within_budget(curve, running)
    except _OverBudget:
        return TorsionStatus(False, bound=EXACT_BITS_BUDGET)
    return TorsionStatus(False)


def _reduction_certifies_non_torsion(
    curve: WeierstrassCurve, terms: Sequence[tuple[Triple, int]]
) -> bool:
    """True when the sum's reductions at the filter primes rule out every
    rational torsion order."""
    orders = set()
    for p in FILTER_PRIMES:
        if not (curve._u % p and curve._integral_discriminant % p):
            continue  # p in a coefficient denominator, or bad reduction
        if any(z % p == 0 for (_, _, z), _ in terms):
            continue  # p in a point denominator
        order = _reduced_order(curve, terms, p)
        if order not in RATIONAL_TORSION_ORDERS:
            return True
        orders.add(order)
        if len(orders) > 1:
            return True
    return False


def _reduced_order(
    curve: WeierstrassCurve, terms: Sequence[tuple[Triple, int]], p: int
) -> Optional[int]:
    """The least k <= 12 with k S = O for the reduction S of sum m P at a
    good prime p dividing no Z, else None.  The sum is formed on the
    integral model, whose reduction is isomorphic to the given model's as
    p does not divide u.  Affine points are (x, y) residue pairs and the
    identity is None."""
    a1, a2, a3, a4, _ = (c % p for c in curve._integral)

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

    def residue(point: Triple) -> tuple[int, int]:
        x, y, z = point
        if z == 1:
            return x % p, y % p
        inverse = pow(z, -1, p)
        square = inverse * inverse % p
        return x * square % p, y * square * inverse % p

    total = running = _joint_sum(add, None, [(residue(q), m) for q, m in terms])
    for k in range(1, 13):
        if running is None:
            return k
        running = add(running, total)
    return None


class ObstructionReport(Record):
    __slots__ = ("found", "torsion", "curve", "points", "__dict__")  # cached total
    _shown = __slots__[:2]

    def __init__(
        self, found: bool, torsion: TorsionStatus, curve: WeierstrassCurve,
        points: tuple[tuple[ECPoint, int], ...],
    ):
        self.found, self.torsion = found, torsion
        self.curve, self.points = curve, points

    @property
    def verdict(self) -> str:
        return "obstruction-found" if self.found else "inconclusive"

    @cached_property
    def total(self) -> ECPoint:
        """The weighted sum, formed exactly on first read: no verdict needs
        it, and a sum the filter decided may be far past the budget."""
        curve = self.curve
        terms = [(curve._lift(p), m) for p, m in self.points]
        return curve._point(_joint_sum(partial(_add, curve), None, terms))


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
    terms = {}
    for point, mult in points:
        if point.is_infinity:
            raise PreconditionError("blown-up points must be affine")
        lifted = _lifted(curve, point)
        if not isinstance(mult, int) or mult < 1:
            raise PreconditionError(
                f"multiplicity must be a positive integer, got {mult!r}"
            )
        # distinct points have distinct triples
        if lifted in terms:
            raise PreconditionError(f"repeated point {point!r}; points must be distinct")
        terms[lifted] = mult
    torsion = _weighted_torsion(curve, tuple(terms.items()))
    return ObstructionReport(
        found=not torsion.torsion and torsion.bound is None,
        torsion=torsion,
        curve=curve,
        points=tuple(points),
    )


class HironakaReport(Record):
    """Everything the blown-up-cubic construction produces for n points."""

    __slots__ = (
        "n", "lattice", "cubic_class", "exceptional_classes",
        "boundary_self_intersection", "surface", "obstruction", "saturation", "plan",
        "scheme_saturation", "affinisation", "claim",
    )

    def __init__(
        self, n: int, lattice: NSLattice, cubic_class: ClassRecord,
        exceptional_classes: tuple[ClassRecord, ...],
        boundary_self_intersection: Fraction, surface: CompactifiedSurface,
        obstruction: ObstructionReport, saturation: SaturationVerdict,
        plan: SaturationPlan, scheme_saturation: SchemeSaturationReport,
        affinisation: AffDimReport, claim: Optional[FalseFibreClaim],
    ):
        self.n, self.lattice, self.cubic_class = n, lattice, cubic_class
        self.exceptional_classes = exceptional_classes
        self.boundary_self_intersection = boundary_self_intersection
        self.surface, self.obstruction, self.claim = surface, obstruction, claim
        self.saturation, self.plan = saturation, plan
        self.scheme_saturation, self.affinisation = scheme_saturation, affinisation


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
    uniform = all(m == 1 for _, m in points)
    if n == 9 and (
        obstruction if uniform
        else sum_obstruction(curve, [(p, 1) for p, _ in points])
    ).found:
        # with every weight 1 the weighted sum is the plain sum
        claim = FalseFibreClaim(
            boundary,
            GroupLawObstruction(
                reference=(
                    f"{'weighted' if uniform else 'plain'} sum of the "
                    "blown-up points is non-torsion in the cubic's group law"
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

    affinisation = affinisation_dimension(surface)

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
