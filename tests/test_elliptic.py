import gc
import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    scalar_mul,
    sum_obstruction,
)

from surfsat import elliptic
from surfsat.cli import main
from surfsat.elliptic import EXACT_BITS_BUDGET, FILTER_PRIMES, _reduced_order
from surfsat.schema import parse_document

from support import (
    _oracle_add,
    oracle_contains,
    oracle_exact_torsion,
    oracle_hironaka_surface,
    oracle_is_torsion,
    oracle_reduced_order,
    oracle_sum_obstruction,
)

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"

# rank-one curve with tiny generator, long form: y^2 + y = x^3 - x
CURVE_37A = WeierstrassCurve(a3=1, a4=-1)
GEN = ECPoint.affine(0, 0)
# the lcm of GEN's orders at the filter primes: FILTER_LCM * GEN reduces to
# the identity at each of them
FILTER_LCM = lcm(16238, 32511, 16508)

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
        assert scalar_mul(CURVE_37A, -1, p) == ECPoint.affine(0, -1)
        assert scalar_mul(CURVE_37A, -1, scalar_mul(CURVE_37A, -1, p)) == p

    def test_inverse_sums_to_identity(self):
        p = scalar_mul(CURVE_37A, 5, GEN)
        assert add(CURVE_37A, p, scalar_mul(CURVE_37A, -1, p)).is_infinity

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

    def test_scalar_mul_against_repeated_addition(self):
        for curve, point in [(CURVE_37A, GEN), (CURVE_6TOR, ECPoint.affine(2, 3))]:
            for sign in (1, -1):
                # -(x, y) = (x, -y - a1 x - a3), so the walk does not lean
                # on scalar_mul's own negation
                base = point if sign > 0 else ECPoint.affine(
                    point.x, -point.y - curve.a1 * point.x - curve.a3
                )
                running = ECPoint.infinity()
                for n in range(41):
                    assert scalar_mul(curve, sign * n, point) == running
                    running = add(curve, running, base)

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
            lambda: scalar_mul(CURVE_37A, -1, off),
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
        assert scalar_mul(curve, -1, p) == p
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

    def test_nine_points_certified_from_the_plain_sum(self):
        # the pencil's base points with P weighted by 2: the weighted sum
        # is P, yet C's normal bundle carries the plain sum, which is O
        points = self.points([1, 2, 3, 4, 5, -1, -2, -3, -9])
        points[0] = (points[0][0], 2)
        report = hironaka_build(CURVE_37A, points)
        assert report.obstruction.found
        assert report.claim is None
        assert report.affinisation.verdict is AffDim.ONE_OR_ZERO
        # and the other way: a torsion weighted sum over a non-torsion
        # plain sum certifies C
        points = self.points([1, 2, 3, 4, 5, -1, -2, -3, -10])
        points[0] = (points[0][0], 2)
        report = hironaka_build(CURVE_37A, points)
        assert not report.obstruction.found
        assert report.claim is not None
        assert report.affinisation.verdict is AffDim.ZERO
        # the certificate names the sum it comes from
        assert report.claim.certificate.reference.startswith("plain sum ")
        report = hironaka_build(CURVE_37A, self.points(range(1, 10)))
        assert report.claim.certificate.reference.startswith("weighted sum ")

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.integers(-30, 30).filter(bool), min_size=9, max_size=9, unique=True
        ),
        st.lists(st.integers(1, 3), min_size=9, max_size=9),
        st.booleans(),
    )
    # a pencil with a heavy point, and a torsion weighted sum
    @example([1, 2, 3, 4, 5, -1, -2, -3, -9], [2] + [1] * 8, False)
    @example([1, 2, 3, 4, 5, -1, -2, -3, -10], [2] + [1] * 8, False)
    def test_nine_point_claim_follows_the_plain_sum(self, ks, weights, close):
        if close:  # make the plain sum O: the base points of a pencil
            ks[-1] = -sum(ks[:-1])
            assume(ks[-1] and abs(ks[-1]) <= 30 and ks[-1] not in ks[:-1])
        points = [(MULTIPLES[k], m) for k, m in zip(ks, weights)]
        report = hironaka_build(CURVE_37A, points)
        plain, _, _ = oracle_sum_obstruction(CURVE_37A, [(p, 1) for p, _ in points])
        assert plain == bool(sum(ks))
        assert (report.claim is not None) == plain
        verdict = AffDim.ZERO if plain else AffDim.ONE_OR_ZERO
        assert report.affinisation.verdict is verdict

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

    def test_obstruction_against_fibration_assertion(self):
        with pytest.raises(DataInconsistencyError):
            hironaka_build(
                CURVE_37A, self.points(range(1, 10)), fibration_asserted=True
            )


class TestHironakaClosedForm:
    """The closed-form surface against the blowup tower it replaced, and
    the cost of building it for many points."""

    @staticmethod
    def tower(n):
        return oracle_hironaka_surface(n)[:4]

    def test_reports_match_the_tower(self, monkeypatch):
        rng = random.Random(1414)
        ks = [k for k in range(-15, 16) if k]
        multiples = {k: scalar_mul(CURVE_37A, k, GEN) for k in ks}
        cases = []
        for n in range(1, 15):
            for _ in range(6):
                chosen = rng.sample(ks, n)
                points = [(multiples[k], rng.choice((1, 1, 2, 3))) for k in chosen]
                cases.append((points, rng.random() < 0.5))
        # the n = 9 torsion and non-torsion sums of TestHironakaBuild
        for ks9 in (range(1, 10), [1, 2, 3, 4, 5, -1, -2, -3, -9]):
            for asserted in (False, True):
                cases.append(([(multiples[k], 1) for k in ks9], asserted))

        def build(points, asserted):
            try:
                return hironaka_build(CURVE_37A, points, fibration_asserted=asserted)
            except DataInconsistencyError as exc:
                return str(exc)

        closed = [build(points, asserted) for points, asserted in cases]
        with monkeypatch.context() as patch:
            patch.setattr(elliptic, "cubic_blowup", self.tower)
            towers = [build(points, asserted) for points, asserted in cases]
        verdicts = set()
        for (points, _), report, expected in zip(cases, closed, towers):
            assert report == expected
            if isinstance(report, str):
                verdicts.add("inconsistent")
                continue
            assert report.boundary_self_intersection == oracle_hironaka_surface(
                len(points)
            )[4]
            verdicts.add(report.affinisation.verdict)
        assert verdicts >= {
            AffDim.TWO, AffDim.ONE, AffDim.ONE_OR_ZERO, AffDim.ZERO, "inconsistent"
        }

    def test_120_points_build_within_budget(self):
        points, running = [], GEN
        for _ in range(120):
            points.append((running, 1))
            running = add(CURVE_37A, running, GEN)
        # a full collection over the earlier tests' objects costs more than
        # the budget inside a suite run; start the timed build from empty
        # generations, so only the build's own young passes can land in it
        gc.collect()
        start = time.perf_counter()
        report = hironaka_build(CURVE_37A, points)
        elapsed = time.perf_counter() - start
        assert report.boundary_self_intersection == -111
        assert report.lattice.rank == 121
        assert elapsed < 0.05, f"hironaka_build took {elapsed * 1000:.1f}ms"

    def test_cli_on_many_points(self, capsys, tmp_path):
        points, running = [], GEN
        for _ in range(120):
            points.append({"x": str(running.x), "y": str(running.y)})
            running = add(CURVE_37A, running, GEN)
        path = tmp_path / "n120.json"
        path.write_text(
            json.dumps(
                {
                    "curves": [{"name": "C", "genus": 1, "self": -111}],
                    "boundary": ["C"],
                    "elliptic": {"curve": {"a3": 1, "a4": -1}, "points": points},
                }
            )
        )
        start = time.perf_counter()
        code = main(["hironaka", str(path)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert "boundary_self_intersection: -111" in out
        assert elapsed < 0.5, f"surfsat hironaka took {elapsed:.2f}s"


class TestHeavyMultiplicity:
    """Weights far past anything the exact stage could form."""

    def test_non_torsion_sum_at_10_18(self):
        points = [(scalar_mul(CURVE_37A, k, GEN), 10**18) for k in range(1, 13)]
        for case in ([(GEN, 10**18)], points):
            start = time.perf_counter()
            report = sum_obstruction(CURVE_37A, case)
            elapsed = time.perf_counter() - start
            assert report.found and report.torsion == TorsionStatus(False)
            assert elapsed < 0.05, f"sum_obstruction took {elapsed * 1000:.1f}ms"

    def test_budget_names_its_bound(self):
        # P reduces to points of order 16238, 32511 and 16508 at the filter
        # primes, so their lcm k P is O at every prime and a candidate, and
        # forming k P runs far past the bit budget
        start = time.perf_counter()
        report = sum_obstruction(CURVE_37A, [(GEN, FILTER_LCM)])
        elapsed = time.perf_counter() - start
        assert report.torsion == TorsionStatus(False, bound=EXACT_BITS_BUDGET)
        assert str(report.torsion) == f"Undecided(bits>{EXACT_BITS_BUDGET})"
        assert not report.found
        assert report.verdict == "inconclusive"
        assert elapsed < 1.0, f"sum_obstruction took {elapsed:.2f}s"

    def test_cancelling_heavy_weights_are_decided(self):
        # the joint sum forms only small multiples of P on the way to O
        for ks in ([1, -1], [1, 2, -3]):
            points = [(MULTIPLES[k], 10**18) for k in ks]
            start = time.perf_counter()
            report = sum_obstruction(CURVE_37A, points)
            elapsed = time.perf_counter() - start
            assert report.torsion == TorsionStatus(True, 1)
            assert report.total.is_infinity
            assert elapsed < 0.05, f"sum_obstruction took {elapsed * 1000:.1f}ms"

    def test_primes_that_disagree_on_the_order(self):
        # k P reduces to O at the first two filter primes and to a point of
        # order 2 at the third: a torsion sum has one order at every good
        # prime, so this decides without the exact stage, which would have
        # to form 2 * 10^12 P
        k = 2178699501486
        terms = _lifted(CURVE_37A, [(GEN, k)])
        orders = [_reduced_order(CURVE_37A, terms, p) for p in FILTER_PRIMES]
        assert orders == [1, 1, 2]
        assert sum_obstruction(CURVE_37A, [(GEN, k)]).torsion == TorsionStatus(False)

    def test_budget_holds_the_torsion_multiples(self):
        # every filter prime divides a4's denominator, so the exact stage
        # alone sees the point; it passes the integrality test, so only the
        # budget stops the multiples
        n = prod(FILTER_PRIMES)
        x, y = 2 ** (EXACT_BITS_BUDGET + 1), 3
        a4 = Fraction(1, n)
        curve = WeierstrassCurve(a4=a4, a6=y * y - x**3 - a4 * x)
        status = is_torsion(curve, ECPoint.affine(x, y))
        assert status == TorsionStatus(False, bound=EXACT_BITS_BUDGET)

    def test_exact_stage_alone_when_every_prime_is_disqualified(self):
        # every filter prime divides the point's denominators
        n = prod(FILTER_PRIMES)
        curve = WeierstrassCurve(a4=-n * n, a6=1)
        point = ECPoint.affine(Fraction(1, n * n), Fraction(1, n**3))
        assert is_torsion(curve, point) == oracle_is_torsion(curve, point)


def _lifted(curve, points):
    """(triple, m) pairs for (point, m) pairs on ``curve``."""
    return [(curve._lift(point), m) for point, m in points]


def _rescale(curve, u):
    """The model (x, y) -> (x / u^2, y / u^3) of ``curve`` and that map."""
    scaled = WeierstrassCurve(
        a1=curve.a1 / u,
        a2=curve.a2 / u**2,
        a3=curve.a3 / u**3,
        a4=curve.a4 / u**4,
        a6=curve.a6 / u**6,
    )
    return scaled, lambda p: ECPoint.affine(p.x / u**2, p.y / u**3)


# y^2 = x^3 - N^2 x + 1 carries (1/N^2, 1/N^3): every prime of N is in the
# denominators of that point and of all its multiples
_DENOMINATOR_MODULI = FILTER_PRIMES + (prod(FILTER_PRIMES),)
# rank 0, torsion Z/5: y^2 + y = x^3 - x^2 (11a3)
CURVE_11A3 = WeierstrassCurve(a2=-1, a3=1)
# rank 1 with 2-torsion: y^2 = x^3 - 25x, generator (-4, 6)
CURVE_CONGRUENT = WeierstrassCurve(a4=-25)
RATIONAL_TORSION = [
    (CURVE_6TOR, [(-1, 0), (0, 1), (0, -1), (2, 3), (2, -3)]),
    (CURVE_11A3, [(0, 0), (0, -1), (1, 0), (1, -1)]),
    (WeierstrassCurve(a4=-1), [(-1, 0), (0, 0), (1, 0)]),
]
ORACLE_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)
MULTIPLES = {k: scalar_mul(CURVE_37A, k, GEN) for k in range(-30, 31) if k}


@st.composite
def weighted_multiples(draw, bound=30, size=4, weight=3):
    """Distinct nonzero multiples k, |k| <= bound, each with a weight of at
    most ``weight``.  The defaults keep every partial sum within 342 P on
    y^2 + y = x^3 - x, about 13000 bits, inside the exact stage's budget."""
    ks = draw(
        st.lists(
            st.integers(-bound, bound).filter(bool),
            min_size=1,
            max_size=size,
            unique=True,
        )
    )
    weights = draw(
        st.lists(st.integers(1, weight), min_size=len(ks), max_size=len(ks))
    )
    return list(zip(ks, weights))


def _closed(curve, points, target=None):
    """``points`` plus one weight-1 point that brings the weighted sum to
    ``target`` (the identity by default); None when that point is the
    identity or repeats a listed one."""
    total = target or ECPoint.infinity()
    for point, mult in points:
        total = add(curve, total, scalar_mul(curve, -mult, point))
    if total.is_infinity or any(total == point for point, _ in points):
        return None
    return points + [(total, 1)]


class TestObstructionAgainstOracle:
    """The reduction filter and the budgeted exact stage against the sum
    formed over Q: the same verdict, status and total on every input."""

    def agree(self, curve, points):
        report = sum_obstruction(curve, points)
        found, total, torsion = oracle_sum_obstruction(curve, points)
        assert (report.found, report.torsion) == (found, torsion)
        assert report.total == total
        return report

    @ORACLE_SETTINGS
    @given(weighted_multiples())
    def test_multiples_of_generator(self, drawn):
        points = [(MULTIPLES[k], m) for k, m in drawn]
        report = self.agree(CURVE_37A, points)
        assert report.found == (sum(k * m for k, m in drawn) != 0)

    @ORACLE_SETTINGS
    @given(weighted_multiples())
    def test_sums_that_are_exactly_torsion(self, drawn):
        points = _closed(CURVE_37A, [(MULTIPLES[k], m) for k, m in drawn])
        assume(points is not None)
        report = self.agree(CURVE_37A, points)
        assert report.torsion == TorsionStatus(True, 1)

    @ORACLE_SETTINGS
    @given(
        st.sampled_from(range(len(RATIONAL_TORSION))).flatmap(
            lambda i: st.tuples(
                st.just(i),
                st.lists(
                    st.tuples(
                        st.sampled_from(RATIONAL_TORSION[i][1]),
                        st.integers(1, 20),
                    ),
                    min_size=1,
                    unique_by=lambda pair: pair[0],
                ),
            )
        )
    )
    def test_curves_with_rational_torsion(self, drawn):
        index, chosen = drawn
        curve = RATIONAL_TORSION[index][0]
        points = [(ECPoint.affine(x, y), m) for (x, y), m in chosen]
        assert self.agree(curve, points).torsion.torsion

    @ORACLE_SETTINGS
    @given(
        weighted_multiples(bound=4, size=3),
        st.sampled_from([None, (0, 0), (5, 0), (-5, 0)]),
    )
    def test_rank_one_with_two_torsion(self, drawn, target):
        # sums of multiples of the generator, closed to a point of order 2
        gen = ECPoint.affine(-4, 6)
        points = [(scalar_mul(CURVE_CONGRUENT, k, gen), m) for k, m in drawn]
        if target is not None:
            points = _closed(CURVE_CONGRUENT, points, ECPoint.affine(*target))
            assume(points is not None)
        report = self.agree(CURVE_CONGRUENT, points)
        if target is not None:
            assert report.torsion == TorsionStatus(True, 2)

    @ORACLE_SETTINGS
    @given(
        st.sampled_from(_DENOMINATOR_MODULI),
        # at N the product of the primes the base point's y has 135 bits,
        # so sums stay within 5 times it to keep inside the budget
        weighted_multiples(bound=2, size=3, weight=1),
        st.booleans(),
    )
    def test_filter_prime_in_a_point_denominator(self, n, drawn, close):
        curve = WeierstrassCurve(a4=-n * n, a6=1)
        base = ECPoint.affine(Fraction(1, n * n), Fraction(1, n**3))
        points = [(scalar_mul(curve, k, base), m) for k, m in drawn]
        if close:
            points = _closed(curve, points)
            assume(points is not None)
        self.agree(curve, points)

    @ORACLE_SETTINGS
    @given(
        st.sampled_from((2, 3, 6, FILTER_PRIMES[0])),
        weighted_multiples(bound=12, size=3),
        st.booleans(),
    )
    def test_non_integral_coefficients(self, u, drawn, close):
        # a filter prime as u puts that prime in the coefficient denominators
        curve, scale = _rescale(CURVE_37A, u)
        points = [(scale(MULTIPLES[k]), m) for k, m in drawn]
        if close:
            points = _closed(curve, points)
            assume(points is not None)
        self.agree(curve, points)

    def test_non_integral_rational_torsion(self):
        for u in (2, 3, FILTER_PRIMES[1]):
            curve, scale = _rescale(CURVE_6TOR, u)
            six = scale(ECPoint.affine(2, 3))
            assert self.agree(curve, [(six, 1)]).torsion == TorsionStatus(True, 6)
            two = scale(ECPoint.affine(-1, 0))
            assert self.agree(curve, [(six, 1), (two, 1)]).torsion.torsion

    def test_filter_prime_dividing_the_discriminant(self):
        # y^2 = x (x - 1) (x - 1 - p) is singular mod p, where (1, 0) and
        # (1 + p, 0) both reduce to the node; that prime must be skipped
        p = FILTER_PRIMES[0]
        curve = WeierstrassCurve(a2=-(2 + p), a4=1 + p)
        assert curve._integral_discriminant % p == 0
        two_torsion = [ECPoint.affine(x, 0) for x in (0, 1, 1 + p)]
        for size in (1, 2, 3):
            for chosen in itertools.combinations(two_torsion, size):
                for weights in itertools.product((1, 2), repeat=size):
                    self.agree(curve, list(zip(chosen, weights)))

    def test_errors_match(self):
        off = ECPoint.affine(1, 1)
        cases = [
            [],
            [(ECPoint.infinity(), 1)],
            [(GEN, 1), (off, 1)],
            [(GEN, 0)],
            [(GEN, "2")],
            [(GEN, 1), (GEN, 2)],
        ]
        for points in cases:
            with pytest.raises(PreconditionError) as new:
                sum_obstruction(CURVE_37A, points)
            with pytest.raises(PreconditionError) as old:
                oracle_sum_obstruction(CURVE_37A, points)
            assert str(new.value) == str(old.value)


class TestReducedOrderAgainstOracle:
    """The joint sum in F_p against forming each m P on its own."""

    def agree(self, curve, points):
        for p in FILTER_PRIMES:
            if any(
                point.x.denominator % p == 0 or point.y.denominator % p == 0
                for point, _ in points
            ):
                continue
            order = _reduced_order(curve, _lifted(curve, points), p)
            assert order == oracle_reduced_order(curve, points, p)

    @ORACLE_SETTINGS
    @given(
        weighted_multiples(weight=10**18),
        st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_multiples_of_generator(self, drawn, scaled):
        # a weight times FILTER_LCM takes its point out of every reduction,
        # so sums with such weights often reduce to small orders
        points = [
            (MULTIPLES[k], m * FILTER_LCM if s else m)
            for (k, m), s in zip(drawn, scaled)
        ]
        self.agree(CURVE_37A, points)

    @ORACLE_SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(RATIONAL_TORSION[0][1]), st.integers(1, 10**18)
            ),
            min_size=1,
            unique_by=lambda pair: pair[0],
        )
    )
    def test_rational_torsion(self, chosen):
        self.agree(CURVE_6TOR, [(ECPoint.affine(*xy), m) for xy, m in chosen])

    def test_sums_that_reduce_to_the_identity(self):
        for points in (
            [(GEN, FILTER_LCM)],
            [(GEN, 10**18), (MULTIPLES[-1], 10**18)],
            [(MULTIPLES[k], 10**18) for k in (1, 2, -3)],
        ):
            self.agree(CURVE_37A, points)
            terms = _lifted(CURVE_37A, points)
            assert _reduced_order(CURVE_37A, terms, FILTER_PRIMES[0]) == 1


class TestContainsAgainstOracle:
    CURVES = [
        CURVE_37A,
        CURVE_6TOR,
        CURVE_11A3,
        _rescale(CURVE_37A, 6)[0],
        WeierstrassCurve(
            a1=Fraction(1, 2), a2=Fraction(-3, 4), a3=5, a6=Fraction(7, 9)
        ),
    ]

    @ORACLE_SETTINGS
    @given(
        st.sampled_from(range(5)),
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
    )
    def test_random_points(self, index, x, y):
        curve = self.CURVES[index]
        point = ECPoint.affine(x, y)
        assert curve.contains(point) == oracle_contains(curve, point)

    def test_points_on_the_curves(self):
        for k, point in MULTIPLES.items():
            assert CURVE_37A.contains(point) and oracle_contains(CURVE_37A, point)
        curve, scale = _rescale(CURVE_37A, 6)
        for point in MULTIPLES.values():
            assert curve.contains(scale(point)) and oracle_contains(curve, scale(point))
            moved = ECPoint.affine(scale(point).x, scale(point).y + Fraction(1, 7))
            assert not curve.contains(moved) and not oracle_contains(curve, moved)
        assert CURVE_37A.contains(ECPoint.infinity())


# -- the group law on the integral model ----------------------------------

# Tate normal form y^2 + (1 - c) xy - by = x^3 - bx^2, where (0, 0) has the
# order listed; a1 and a3 are nonzero, and a fractional b or c puts
# denominators in the coefficients
TATE_NORMAL_FORMS = [
    (1, 0, 4),
    (Fraction(-1, 4), 0, 4),
    (1, 1, 5),
    (Fraction(1, 2), Fraction(1, 2), 5),
    (2, 1, 6),
    (Fraction(3, 4), Fraction(1, 2), 6),
    (4, 2, 7),
    (3, Fraction(3, 2), 8),
    (12, 4, 9),
]


def _tate(b, c):
    return WeierstrassCurve(a1=1 - c, a2=-b, a3=-b)


def _lift_or_identity(curve, point):
    return None if point.is_infinity else curve._lift(point)


def _assert_lowest_terms(lifted):
    if lifted is not None:
        x, y, z = lifted
        assert z >= 1 and gcd(x, z) == 1 and gcd(y, z) == 1


def _oracle_multiples(curve, point, bound):
    """{k: k P} for |k| <= bound, by repeated ``Fraction`` addition."""
    minus = ECPoint.affine(point.x, -point.y - curve.a1 * point.x - curve.a3)
    multiples = {0: ECPoint.infinity()}
    for k in range(1, bound + 1):
        multiples[k] = _oracle_add(curve, multiples[k - 1], point)
        multiples[-k] = _oracle_add(curve, multiples[1 - k], minus)
    return multiples


@st.composite
def curves_through_a_point(draw):
    """A curve with small drawn a1, a2, a3, a4 and a6 chosen to put a
    drawn integer point on it, rescaled by a drawn u so that the
    coefficients have denominators, and that point on the rescaled curve."""
    a1, a2, a3, a4, x, y = (draw(st.integers(-3, 3)) for _ in range(6))
    a6 = y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x
    try:
        curve = WeierstrassCurve(a1, a2, a3, a4, a6)
    except InputError:
        assume(False)
    curve, scale = _rescale(curve, draw(st.sampled_from((1, 2, 3, 6))))
    return curve, scale(ECPoint.affine(x, y))


class TestIntegerLawAgainstOracle:
    """The group law on triples against chord-tangent addition in
    ``Fraction`` arithmetic: the same sums, every triple in lowest terms."""

    @ORACLE_SETTINGS
    @given(curves_through_a_point())
    def test_sums_match_the_fraction_law(self, drawn):
        # every pair of multiples, so doublings, P + (-P) and the identity
        curve, point = drawn
        multiples = _oracle_multiples(curve, point, 3)
        for p, q in itertools.product(multiples.values(), repeat=2):
            lifted = elliptic._add(
                curve, _lift_or_identity(curve, p), _lift_or_identity(curve, q)
            )
            _assert_lowest_terms(lifted)
            assert curve._point(lifted) == _oracle_add(curve, p, q)
            assert add(curve, p, q) == _oracle_add(curve, p, q)

    @ORACLE_SETTINGS
    @given(
        curves_through_a_point(),
        st.integers(-8, 8),
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(1, 3)),
            min_size=1,
            max_size=4,
            unique_by=lambda pair: pair[0],
        ),
    )
    def test_public_functions_match_the_oracles(self, drawn, n, chosen):
        curve, point = drawn
        multiples = _oracle_multiples(curve, point, 8)
        assert scalar_mul(curve, n, point) == multiples[n]
        assert scalar_mul(curve, -1, point) == multiples[-1]
        assert is_torsion(curve, point) == oracle_is_torsion(curve, point)
        # a torsion point repeats among its multiples
        points, seen = [], set()
        for k, m in chosen:
            if not multiples[k].is_infinity and multiples[k] not in seen:
                seen.add(multiples[k])
                points.append((multiples[k], m))
        assume(points)
        report = sum_obstruction(curve, points)
        found, total, torsion = oracle_sum_obstruction(curve, points)
        assert (report.found, report.torsion, report.total) == (found, torsion, total)

    def test_torsion_points_have_z_dividing_two(self):
        # Nagell-Lutz on the integral model, and the orders against the
        # oracle, on curves with a1, a3 nonzero and with denominators
        catalogue = [
            (_tate(b, c), ECPoint.affine(0, 0), order)
            for b, c, order in TATE_NORMAL_FORMS
        ] + [
            (curve, ECPoint.affine(*xy), None)
            for curve, chosen in RATIONAL_TORSION
            for xy in chosen
        ]
        for curve, point, order in catalogue:
            status = is_torsion(curve, point)
            assert status == oracle_is_torsion(curve, point) and status.torsion
            assert order in (None, status.order)
            for k in range(1, status.order):
                lifted = curve._lift(scalar_mul(curve, k, point))
                _assert_lowest_terms(lifted)
                assert lifted[2] in (1, 2)
            assert elliptic._add(curve, curve._lift(point), None) == curve._lift(point)

    def test_nagell_lutz_lets_z_two_through(self):
        # on the integral y^2 + xy = x^3 + 4x^2 + x, (-1/4, 1/8) has Z = 2
        # and order 2: 4x and 8y are integers
        curve = WeierstrassCurve(a1=1, a2=4, a4=1)
        point = ECPoint.affine(Fraction(-1, 4), Fraction(1, 8))
        assert curve._lift(point) == (-1, 1, 2)
        assert is_torsion(curve, point) == oracle_is_torsion(curve, point)
        assert is_torsion(curve, point) == TorsionStatus(True, 2)

    def test_two_torsion_doubles_to_the_identity(self):
        for curve in (WeierstrassCurve(a4=-1), CURVE_CONGRUENT):
            for x in (-5, -1, 0, 1, 5):
                point = ECPoint.affine(x, 0)
                if curve.contains(point):
                    lifted = curve._lift(point)
                    assert elliptic._negate(curve, lifted) == lifted
                    assert elliptic._add(curve, lifted, lifted) is None
        # with a1, a3 nonzero: 2 (0, 0) on a 4-torsion Tate curve is
        # 2-torsion, and 2 of it is O
        curve = _tate(1, 0)
        four = curve._lift(ECPoint.affine(0, 0))
        two = elliptic._add(curve, four, four)
        assert two is not None and elliptic._add(curve, two, two) is None

    def test_lift_scales_to_the_integral_model(self):
        # (1/4, -5/8) = 5P on y^2 + y = x^3 - x, and on the model rescaled
        # by 6, whose coefficients have denominators up to u = 6^4
        assert CURVE_37A._lift(MULTIPLES[5]) == (1, -5, 2)
        curve, scale = _rescale(CURVE_37A, 6)
        assert curve._u == 6**4
        x, y, z = curve._lift(scale(MULTIPLES[5]))
        assert Fraction(x, z * z) == curve._u**2 * scale(MULTIPLES[5]).x
        assert Fraction(y, z**3) == curve._u**3 * scale(MULTIPLES[5]).y
        _assert_lowest_terms((x, y, z))


class TestBudgetAgainstOracle:
    """``Undecided(bits>B)`` fires on the same inputs as the exact stage
    in ``Fraction`` arithmetic that reads the reduced coordinates."""

    @staticmethod
    def exact(curve, points, budget):
        with patch.object(elliptic, "EXACT_BITS_BUDGET", budget):
            return elliptic._exact_torsion(curve, _lifted(curve, points))

    def agree(self, curve, points, budget):
        status = self.exact(curve, points, budget)
        assert status == oracle_exact_torsion(curve, points, budget)
        return status

    @ORACLE_SETTINGS
    @given(
        st.sampled_from((1, 2, 6)),
        weighted_multiples(bound=8, size=3),
        st.booleans(),
        st.integers(0, 200),
    )
    def test_budgets_fire_on_the_same_sums(self, u, drawn, close, budget):
        curve, scale = _rescale(CURVE_37A, u)
        points = [(scale(MULTIPLES[k]), m) for k, m in drawn]
        if close:
            points = _closed(curve, points)
            assume(points is not None)
        self.agree(curve, points, budget)

    def test_a_bound_hit_only_by_a_denominator(self):
        # 5P = (1/4, -5/8): numerators of at most 3 bits, y's denominator 4
        five = MULTIPLES[5]
        assert max(five.x.numerator.bit_length(), five.y.numerator.bit_length()) == 3
        assert five.y.denominator.bit_length() == 4
        assert self.agree(CURVE_37A, [(five, 1)], 3) == TorsionStatus(False, bound=3)
        # at 4 bits 5P passes, and 10P fails the integrality test
        assert self.agree(CURVE_37A, [(five, 1)], 4) == TorsionStatus(False)
        # 7P = (-5/9, 8/27): Z = 3, whose cube has 5 bits, and nothing else
        # has more than 4
        seven = MULTIPLES[7]
        assert self.agree(CURVE_37A, [(seven, 1)], 4) == TorsionStatus(False, bound=4)
        assert self.agree(CURVE_37A, [(seven, 1)], 5) == TorsionStatus(False)

    def test_powers_of_u_cancel_before_the_bound_is_read(self):
        # on y^2 + y = x^3 - x rescaled by 2, u = 16, and 2P = (1/4, 0)
        # lifts to X = 64, Z = 1: gcd(X, u^2) = 64, and x = 1/4 has 3 bits
        curve, scale = _rescale(CURVE_37A, 2)
        two = scale(MULTIPLES[2])
        lifted = curve._lift(two)
        assert curve._u == 16 and lifted == (64, 0, 1)
        assert gcd(lifted[0], curve._u**2) == 64
        with patch.object(elliptic, "EXACT_BITS_BUDGET", 3):
            assert elliptic._within_budget(curve, lifted) == lifted
        with patch.object(elliptic, "EXACT_BITS_BUDGET", 2):
            with pytest.raises(elliptic._OverBudget):
                elliptic._within_budget(curve, lifted)
        for budget in range(12):
            self.agree(curve, [(two, 1)], budget)
            self.agree(curve, [(two, 1), (scale(MULTIPLES[-3]), 2)], budget)

    def test_a_multiple_past_the_budget_is_undecided(self):
        # y^2 + y = x^3 - x^2 (11a3, with (0, 0) of order 5) rescaled by k:
        # (0, 0) is tiny, its multiples (k^2, 0), (k^2, -k^3), ... pass the
        # integrality test and run past the budget
        k = 2 ** (EXACT_BITS_BUDGET // 3 + 2)
        curve = WeierstrassCurve(a2=-k * k, a3=k**3)
        point = ECPoint.affine(0, 0)
        undecided = TorsionStatus(False, bound=EXACT_BITS_BUDGET)
        assert is_torsion(curve, point) == undecided
        assert sum_obstruction(curve, [(point, 1)]).torsion == undecided
        assert (
            oracle_exact_torsion(curve, [(point, 1)], EXACT_BITS_BUDGET) == undecided
        )
        # with room for the multiples, the order is 5
        roomy = self.agree(curve, [(point, 1)], 4 * EXACT_BITS_BUDGET)
        assert roomy == TorsionStatus(True, 5)


class TestRememberedLifts:
    """The curve keeps the triple of each point it accepts, keyed by the
    coordinates, and reads it back on a repeat."""

    def test_a_repeat_returns_the_same_triple(self):
        curve = WeierstrassCurve(a3=1, a4=-1)
        first = curve._lift(MULTIPLES[7])
        assert curve._lift(ECPoint.affine(Fraction(-5, 9), Fraction(8, 27))) is first
        assert list(curve._lifts.values()) == [first]

    def test_an_off_curve_point_is_never_kept(self):
        curve = WeierstrassCurve(a3=1, a4=-1)
        off = [ECPoint.affine(1, 1), ECPoint.affine(Fraction(1, 2), 0),
               ECPoint.affine(Fraction(1, 4), Fraction(5, 8))]
        for point in off:
            assert not curve.contains(point)
            with pytest.raises(PreconditionError):
                add(curve, point, GEN)
            with pytest.raises(PreconditionError):
                sum_obstruction(curve, [(GEN, 1), (point, 1)])
        assert set(curve._lifts.values()) == {curve._lift(GEN)}

    @ORACLE_SETTINGS
    @given(
        st.sampled_from(range(5)),
        st.lists(
            st.one_of(
                st.integers(-12, 12).filter(bool),
                st.tuples(
                    st.fractions(max_denominator=50), st.fractions(max_denominator=50)
                ),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_contains_agrees_cold_and_warm(self, index, drawn):
        base = TestContainsAgainstOracle.CURVES[index]
        curve = WeierstrassCurve(base.a1, base.a2, base.a3, base.a4, base.a6)
        scale = _rescale(CURVE_37A, 6)[1] if index == 3 else (lambda p: p)
        points = [
            scale(MULTIPLES[d]) if isinstance(d, int) else ECPoint.affine(*d)
            for d in drawn
        ]
        for _ in range(2):  # a cold memo, then a warm one
            for point in points:
                assert curve.contains(point) == oracle_contains(curve, point)

    def test_the_memo_takes_no_part_in_equality(self):
        warm, cold = WeierstrassCurve(a3=1, a4=-1), WeierstrassCurve(a3=1, a4=-1)
        sum_obstruction(warm, [(MULTIPLES[k], 1) for k in (1, 2, 3)])
        assert warm._lifts and not cold._lifts
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)

    def test_each_point_is_checked_once(self, monkeypatch):
        calls = []
        original = WeierstrassCurve._integral_point

        def counting(curve, *key):
            calls.append(key)
            return original(curve, *key)

        monkeypatch.setattr(WeierstrassCurve, "_integral_point", counting)
        data = json.loads((SAMPLES / "hironaka9_pencil.json").read_text())
        data["elliptic"]["points"][0]["m"] = 2  # a second n = 9 sum
        doc = parse_document(data)
        curve, points = doc.elliptic.curve, doc.elliptic.points
        assert len(calls) == 9
        sum_obstruction(curve, points)
        report = hironaka_build(curve, points)
        assert is_torsion(curve, points[0][0]) == TorsionStatus(False)
        assert report.obstruction.total == points[0][0]
        assert len(calls) == len(set(calls)) == 9
