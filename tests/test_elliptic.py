import random
import time
from fractions import Fraction

import pytest

from surfsat import (
    AffDim,
    DataInconsistencyError,
    ECPoint,
    InputError,
    PreconditionError,
    SchemeSaturationVerdict,
    TorsionStatus,
    WeierstrassCurve,
    add,
    hironaka_build,
    is_torsion,
    negate,
    scalar_mul,
    sum_obstruction,
)

from support import oracle_is_torsion

# rank-one curve with tiny generator, long form: y^2 + y = x^3 - x
CURVE_37A = WeierstrassCurve(a3=1, a4=-1)
GEN = ECPoint.affine(0, 0)

# y^2 = x^3 + 1 carries a 6-torsion point
CURVE_6TOR = WeierstrassCurve(a6=1)


class TestGroupLaw:
    def test_double_of_generator(self):
        assert scalar_mul(CURVE_37A, 2, GEN) == ECPoint.affine(1, 0)

    def test_chord_tangent_on_short_curve(self):
        p = ECPoint.affine(2, 3)
        assert scalar_mul(CURVE_6TOR, 2, p) == ECPoint.affine(0, 1)
        assert scalar_mul(CURVE_6TOR, 3, p) == ECPoint.affine(-1, 0)

    def test_identity(self):
        p = ECPoint.affine(2, 3)
        assert add(CURVE_6TOR, p, ECPoint.infinity()) == p
        assert add(CURVE_6TOR, ECPoint.infinity(), p) == p

    def test_negation_formula(self):
        p = ECPoint.affine(0, 0)
        # on the long form, -(x, y) = (x, -y - a1 x - a3)
        assert negate(CURVE_37A, p) == ECPoint.affine(0, -1)
        assert negate(CURVE_37A, negate(CURVE_37A, p)) == p

    def test_inverse_sums_to_identity(self):
        p = scalar_mul(CURVE_37A, 5, GEN)
        assert add(CURVE_37A, p, negate(CURVE_37A, p)).is_infinity

    def test_commutativity(self):
        p = scalar_mul(CURVE_37A, 2, GEN)
        q = scalar_mul(CURVE_37A, 3, GEN)
        assert add(CURVE_37A, p, q) == add(CURVE_37A, q, p)

    def test_associativity_sampled(self):
        rng = random.Random(83)
        multiples = {k: scalar_mul(CURVE_37A, k, GEN) for k in range(-6, 7)}
        for _ in range(60):
            a, b, c = (multiples[rng.randint(-6, 6)] for _ in range(3))
            left = add(CURVE_37A, add(CURVE_37A, a, b), c)
            right = add(CURVE_37A, a, add(CURVE_37A, b, c))
            assert left == right

    def test_scalar_distributes(self):
        rng = random.Random(89)
        for _ in range(30):
            m, n = rng.randint(-8, 8), rng.randint(-8, 8)
            assert scalar_mul(CURVE_37A, m + n, GEN) == add(
                CURVE_37A,
                scalar_mul(CURVE_37A, m, GEN),
                scalar_mul(CURVE_37A, n, GEN),
            )

    def test_off_curve_rejected(self):
        with pytest.raises(PreconditionError):
            add(CURVE_37A, ECPoint.affine(5, 5), GEN)

    def test_every_public_entry_refuses_off_curve_points(self):
        # sums and multiples of checked points skip the re-check inside;
        # each public function still checks what it is handed
        off = ECPoint.affine(1, 1)
        message = r"ECPoint\(1, 1\) does not satisfy the curve equation"
        calls = [
            lambda: add(CURVE_37A, off, GEN),
            lambda: add(CURVE_37A, GEN, off),
            lambda: add(CURVE_37A, ECPoint.infinity(), off),
            lambda: negate(CURVE_37A, off),
            lambda: scalar_mul(CURVE_37A, 0, off),
            lambda: scalar_mul(CURVE_37A, 3, off),
            lambda: scalar_mul(CURVE_37A, -2, off),
            lambda: is_torsion(CURVE_37A, off),
            lambda: sum_obstruction(CURVE_37A, [(GEN, 1), (off, 2)]),
        ]
        for call in calls:
            with pytest.raises(PreconditionError, match=message):
                call()

    def test_singular_curve_rejected(self):
        with pytest.raises(InputError):
            WeierstrassCurve()  # y^2 = x^3 is a cusp

    def test_two_torsion_doubling(self):
        curve = WeierstrassCurve(a4=-1)  # y^2 = x^3 - x
        p = ECPoint.affine(0, 0)
        assert negate(curve, p) == p
        assert scalar_mul(curve, 2, p).is_infinity


class TestTorsion:
    def test_six_torsion(self):
        assert is_torsion(CURVE_6TOR, ECPoint.affine(2, 3)).order == 6

    def test_generator_is_non_torsion(self):
        status = is_torsion(CURVE_37A, GEN)
        assert not status.torsion

    def test_infinity_is_trivial_torsion(self):
        assert is_torsion(CURVE_37A, ECPoint.infinity()).order == 1

    def test_three_torsion(self):
        curve = WeierstrassCurve(a6=4)
        assert is_torsion(curve, ECPoint.affine(0, 2)).order == 3

    def test_two_torsion(self):
        curve = WeierstrassCurve(a4=-1)  # y^2 = x^3 - x
        for x in (-1, 0, 1):
            assert is_torsion(curve, ECPoint.affine(x, 0)).order == 2

    def test_nagell_lutz_screening(self):
        # on an integral short Weierstrass model, torsion points have
        # integral coordinates; fractional points must come out non-torsion
        curves = [
            WeierstrassCurve(a4=-1),
            WeierstrassCurve(a6=1),
            WeierstrassCurve(a6=3),
            WeierstrassCurve(a4=-2, a6=2),
        ]
        checked = 0
        for curve in curves:
            points = []
            for x in range(-3, 6):
                rhs = (
                    Fraction(x) ** 3
                    + curve.a2 * x * x
                    + curve.a4 * x
                    + curve.a6
                )
                root = _sqrt_exact(rhs)
                if root is not None:
                    points.append(ECPoint.affine(x, root))
            for p in points:
                for k in range(1, 5):
                    q = scalar_mul(curve, k, p)
                    if q.is_infinity:
                        break
                    status = is_torsion(curve, q)
                    integral = (
                        q.x.denominator == 1 and q.y.denominator == 1
                    )
                    if not integral:
                        assert not status.torsion
                    if status.torsion:
                        assert integral
                    checked += 1
        assert checked > 10


class TestTorsionAgainstOracle:
    """The integrality exit must never change a verdict or an order."""

    def agree(self, curve, p):
        status = is_torsion(curve, p)
        assert status == oracle_is_torsion(curve, p)
        return status

    def test_criterion_nine_catalogue(self):
        catalogue = [
            (CURVE_37A, GEN),
            (WeierstrassCurve(a6=1), ECPoint.affine(2, 3)),
            (WeierstrassCurve(a6=3), ECPoint.affine(1, 2)),
        ]
        for curve, base in catalogue:
            for k in range(-6, 7):
                self.agree(curve, scalar_mul(curve, k, base))

    def test_multiples_of_generator(self):
        for k in range(-12, 13):
            status = self.agree(CURVE_37A, scalar_mul(CURVE_37A, k, GEN))
            assert status.torsion == (k == 0)

    def test_torsion_points_of_y2_x3_plus_1(self):
        orders = {
            ECPoint.infinity(): 1,
            ECPoint.affine(-1, 0): 2,
            ECPoint.affine(0, 1): 3,
            ECPoint.affine(0, -1): 3,
            ECPoint.affine(2, 3): 6,
            ECPoint.affine(2, -3): 6,
        }
        for p, order in orders.items():
            assert self.agree(CURVE_6TOR, p) == TorsionStatus(True, order)

    def test_non_integral_models(self):
        # y^2 = x^3 + 1/u^6 is y^2 = x^3 + 1 rescaled by (x, y) -> (x/u^2,
        # y/u^3), so (2/u^2, 3/u^3) has order 6.  For u = 3 the point
        # itself fails 4x, 8y in Z: only the integral model decides it.
        for u in (2, 3):
            curve = WeierstrassCurve(a6=Fraction(1, u**6))
            p = ECPoint.affine(Fraction(2, u**2), Fraction(3, u**3))
            assert self.agree(curve, p) == TorsionStatus(True, 6)
        assert (4 * Fraction(2, 9)).denominator != 1


class TestTorsionBudget:
    def test_heavy_multiplicity_sum(self):
        start = time.perf_counter()
        report = sum_obstruction(CURVE_37A, [(GEN, 200)])
        elapsed = time.perf_counter() - start
        assert report.torsion == TorsionStatus(False)
        assert elapsed < 1.0, f"sum_obstruction took {elapsed:.2f}s"

    def test_twenty_point_sum(self):
        total = scalar_mul(CURVE_37A, sum(range(1, 21)), GEN)
        start = time.perf_counter()
        status = is_torsion(CURVE_37A, total)
        elapsed = time.perf_counter() - start
        assert not status.torsion
        assert elapsed < 0.05, f"is_torsion took {elapsed * 1000:.1f}ms"


def _sqrt_exact(value: Fraction):
    if value < 0:
        return None
    num = int(value)
    if num != value:
        return None
    root = int(round(num ** 0.5))
    for cand in (root - 1, root, root + 1):
        if cand >= 0 and cand * cand == num:
            return Fraction(cand)
    return None


class TestSumObstruction:
    def test_nine_multiples_sum_is_non_torsion(self):
        points = [(scalar_mul(CURVE_37A, k, GEN), 1) for k in range(1, 10)]
        report = sum_obstruction(CURVE_37A, points)
        assert report.found
        assert report.total == scalar_mul(CURVE_37A, 45, GEN)

    def test_balanced_multiples_sum_to_identity(self):
        ks = [1, 2, 3, 4, 5, -1, -2, -3, -9]
        points = [(scalar_mul(CURVE_37A, k, GEN), 1) for k in ks]
        report = sum_obstruction(CURVE_37A, points)
        assert not report.found
        assert report.total.is_infinity

    def test_collinear_two_torsion_triple(self):
        curve = WeierstrassCurve(a4=-1)
        points = [(ECPoint.affine(x, 0), 1) for x in (-1, 0, 1)]
        report = sum_obstruction(curve, points)
        assert not report.found
        assert report.total.is_infinity

    def test_repeated_points_rejected(self):
        with pytest.raises(PreconditionError, match="distinct"):
            sum_obstruction(CURVE_37A, [(GEN, 1), (GEN, 2)])

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(PreconditionError):
            sum_obstruction(CURVE_37A, [(GEN, 0)])


class TestHironakaBuild:
    def points(self, ks):
        return [(scalar_mul(CURVE_37A, k, GEN), 1) for k in ks]

    def test_nine_points_non_torsion(self):
        report = hironaka_build(CURVE_37A, self.points(range(1, 10)))
        assert report.boundary_self_intersection == 0
        assert report.obstruction.found
        assert report.saturation.saturated
        assert report.affinisation.verdict is AffDim.ZERO
        assert report.claim is not None

    def test_nine_points_pencil_style(self):
        report = hironaka_build(
            CURVE_37A,
            self.points([1, 2, 3, 4, 5, -1, -2, -3, -9]),
            fibration_asserted=True,
        )
        assert not report.obstruction.found
        assert report.affinisation.verdict is AffDim.ONE

    def test_nine_points_torsion_without_assertion(self):
        report = hironaka_build(
            CURVE_37A, self.points([1, 2, 3, 4, 5, -1, -2, -3, -9])
        )
        assert report.affinisation.verdict is AffDim.ONE_OR_ZERO

    def test_ten_points_non_torsion(self):
        report = hironaka_build(CURVE_37A, self.points(range(1, 11)))
        assert report.boundary_self_intersection == -1
        assert not report.saturation.saturated
        assert report.plan.d_minus == (frozenset({0}),)
        assert (
            report.scheme_saturation.verdict
            is SchemeSaturationVerdict.SCHEME_SATURATED
        )
        assert report.affinisation.verdict is AffDim.ZERO

    def test_ten_points_torsion_is_unknown_in_schemes(self):
        ks = [1, 2, 3, 4, 5, -1, -2, -3, -4, -5]
        report = hironaka_build(CURVE_37A, self.points(ks))
        assert not report.obstruction.found
        assert (
            report.scheme_saturation.verdict is SchemeSaturationVerdict.UNKNOWN
        )

    def test_few_points_give_plane_like_surface(self):
        report = hironaka_build(CURVE_37A, self.points([1, 2]))
        assert report.boundary_self_intersection == 7
        assert report.affinisation.verdict is AffDim.TWO

    def test_self_intersection_formula(self):
        for n in (1, 5, 9, 11, 12):
            report = hironaka_build(CURVE_37A, self.points(range(1, n + 1)))
            assert report.boundary_self_intersection == 9 - n
            if n >= 10:
                assert report.surface.ambient.gram_on({0}).is_negative_definite()

    def test_no_points_rejected(self):
        with pytest.raises(PreconditionError):
            hironaka_build(CURVE_37A, [])

    def test_point_count_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            hironaka_build(CURVE_37A, self.points([1]), n=2)

    def test_obstruction_against_fibration_assertion(self):
        with pytest.raises(DataInconsistencyError):
            hironaka_build(
                CURVE_37A, self.points(range(1, 10)), fibration_asserted=True
            )
