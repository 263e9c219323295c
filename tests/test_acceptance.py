"""Acceptance suite: the worked constructions and property panels, each with
its runtime budget.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see one line per criterion.
"""

import random
import time
from fractions import Fraction

from surfsat import (
    AffDim,
    CompactifiedSurface,
    Configuration,
    ContractionContext,
    Divisor,
    ECPoint,
    FalseFibreClaim,
    FibreVerdict,
    NormalBundleNonTorsion,
    SchemeSaturationVerdict,
    UserAsserted,
    WeierstrassCurve,
    add,
    apply_plan,
    blowup,
    classify_fibre_type,
    contract,
    hironaka_build,
    is_saturated,
    is_torsion,
    projective_plane,
    pullback,
    saturation_plan,
    scalar_mul,
    validate_false_fibre_claims,
    validate_zariski,
)
from surfsat.nslattice import ClassRecord

from support import (
    is_negative_semidefinite,
    oracle_components,
    oracle_inertia_minors_fast,
    oracle_negative_definite_fast,
    random_negative_definite_configuration,
)

CURVE_37A = WeierstrassCurve(a3=1, a4=-1)
GEN = ECPoint.affine(0, 0)


class _Budget:
    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"{status} criterion {self.number}: {self.description} "
            f"[{elapsed:.2f}s < {self.seconds}s]"
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def _multiples(ks):
    return [(scalar_mul(CURVE_37A, k, GEN), 1) for k in ks]


def test_criterion_01_hironaka_nine_points_non_torsion():
    with _Budget(1, "nine-point blowup, non-torsion sum", 1.0):
        report = hironaka_build(CURVE_37A, _multiples(range(1, 10)))
        assert report.boundary_self_intersection == 0
        assert report.obstruction.found
        assert report.saturation.saturated
        assert report.affinisation.verdict is AffDim.ZERO


def test_criterion_02_hironaka_nine_points_torsion_sum():
    with _Budget(2, "nine-point blowup, balanced sum + fibration", 1.0):
        ks = [1, 2, 3, 4, 5, -1, -2, -3, -9]
        plain = hironaka_build(CURVE_37A, _multiples(ks))
        assert plain.obstruction.total.is_infinity
        assert not plain.obstruction.found
        asserted = hironaka_build(
            CURVE_37A, _multiples(ks), fibration_asserted=True
        )
        assert asserted.affinisation.verdict is AffDim.ONE


def test_criterion_03_hironaka_ten_points_non_torsion():
    with _Budget(3, "ten-point blowup, non-torsion sum", 1.0):
        report = hironaka_build(CURVE_37A, _multiples(range(1, 11)))
        assert report.boundary_self_intersection == -1
        assert not report.saturation.saturated
        assert report.plan.d_minus == (frozenset({0}),)
        assert report.plan.resulting_boundary_ok
        assert (
            report.scheme_saturation.verdict
            is SchemeSaturationVerdict.SCHEME_SATURATED
        )


def test_criterion_04_saturation_criterion_suite():
    with _Budget(4, "saturation criterion on 500 random configurations", 10.0):
        rng = random.Random(20240)
        for trial in range(500):
            n = rng.randint(1, 12)
            curves = [(f"C{i}", rng.randint(-4, 4)) for i in range(n)]
            inters = [
                (i, j, rng.randint(0, 4))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            config = Configuration.build(curves, inters)
            boundary = frozenset(
                i for i in range(n) if rng.random() < 0.7
            )
            points = rng.randint(0, 2)
            surface = CompactifiedSurface(
                ambient=config,
                boundary=boundary,
                isolated_boundary_points=points,
            )
            expected = points == 0 and all(
                not oracle_negative_definite_fast(config.gram_on(comp))
                for comp in oracle_components(config, boundary)
            )
            assert is_saturated(surface).saturated == expected, (
                f"trial {trial}"
            )
            plan = saturation_plan(surface)
            assert plan.resulting_boundary_ok
            assert is_saturated(apply_plan(surface, plan)).saturated


def test_criterion_05_zariski_kernel_suite():
    with _Budget(5, "fibre kernels for cycle shapes and the 0-curve", 5.0):
        shapes = {}
        for k in range(2, 7):
            if k == 2:
                shapes["I2"] = Configuration.build(
                    [("A0", -2), ("A1", -2)], [(0, 1, 2)]
                )
            else:
                shapes[f"I{k}"] = Configuration.build(
                    [(f"A{i}", -2) for i in range(k)],
                    [(i, (i + 1) % k, 1) for i in range(k)],
                )
        shapes["0-curve"] = Configuration.build([("D", 0)])
        for name, config in shapes.items():
            subject = range(config.n)
            report = classify_fibre_type(config, subject)
            assert report.verdict is FibreVerdict.FIBRE_TYPE, name
            assert report.kernel == Divisor({i: 1 for i in subject}), name
            assert validate_zariski(config, subject).status == "ok", name
            assert config.gram.inertia()[2] == 1, name


def test_criterion_06_mumford_pullback():
    with _Budget(6, "pullback coefficients and definiteness transfer", 10.0):
        config = Configuration.build([("E", -2), ("C", -1)], [(0, 1, 1)])
        ctx = ContractionContext(config, frozenset({0}))
        assert pullback(ctx, Divisor.of(1)).coefficient(0) == Fraction(1, 2)

        config = Configuration.build(
            [("E1", -2), ("E2", -2), ("C", -1)], [(0, 1, 1), (0, 2, 1)]
        )
        ctx = ContractionContext(config, frozenset({0, 1}))
        pb = pullback(ctx, Divisor.of(2))
        assert (pb.coefficient(0), pb.coefficient(1)) == (
            Fraction(2, 3),
            Fraction(1, 3),
        )

        rng = random.Random(20241)
        for _ in range(200):
            k = rng.randint(1, 5)
            exc = random_negative_definite_configuration(rng, k)
            curves = [
                (exc.nodes[i].name, exc.gram.entry(i, i)) for i in range(k)
            ] + [("C", rng.randint(-4, 3))]
            inters = [
                (i, j, exc.gram.entry(i, j))
                for i in range(k)
                for j in range(i + 1, k)
                if exc.gram.entry(i, j) != 0
            ] + [
                (i, k, rng.randint(0, 2))
                for i in range(k)
                if rng.random() < 0.7
            ]
            config = Configuration.build(curves, inters)
            ctx = ContractionContext(config, frozenset(range(k)))
            pb = pullback(ctx, Divisor.of(k))
            for j in range(k):
                assert config.intersection_number(pb, Divisor.of(j)) == 0

        for _ in range(200):
            k = rng.randint(1, 4)
            m = rng.randint(1, 3)
            exc = random_negative_definite_configuration(rng, k)
            curves = [
                (exc.nodes[i].name, exc.gram.entry(i, i)) for i in range(k)
            ] + [(f"C{t}", rng.randint(-4, 2)) for t in range(m)]
            inters = [
                (i, j, exc.gram.entry(i, j))
                for i in range(k)
                for j in range(i + 1, k)
                if exc.gram.entry(i, j) != 0
            ]
            for s in range(k, k + m):
                inters += [
                    (i, s, rng.randint(0, 2))
                    for i in range(k)
                    if rng.random() < 0.5
                ]
            config = Configuration.build(curves, inters)
            parts = config.connected_components(range(k))
            induced = contract(config, list(parts)).configuration.gram
            assert induced.is_negative_definite() == (
                config.gram.is_negative_definite()
            )
            assert is_negative_semidefinite(induced) == (
                is_negative_semidefinite(config.gram)
            )


def test_criterion_07_inertia_oracle_equivalence():
    with _Budget(7, "inertia vs principal-minor oracle panels", 30.0):
        rng = random.Random(20242)
        from surfsat import SymmetricMatrix

        for _ in range(10_000):
            n = rng.randint(1, 4)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-2, 2)
            matrix = SymmetricMatrix(rows)
            inertia = matrix.inertia()
            assert inertia == oracle_inertia_minors_fast(matrix)
            assert matrix.is_negative_definite() == (
                inertia == (0, n, 0)
            ) == oracle_negative_definite_fast(matrix)

        for _ in range(1_000):
            n = rng.randint(1, 6)
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = Fraction(
                        rng.randint(-6, 6), rng.randint(1, 4)
                    )
            matrix = SymmetricMatrix(rows)
            assert matrix.inertia() == oracle_inertia_minors_fast(matrix)


def test_criterion_08_false_fibre_bookkeeping():
    with _Budget(8, "two disjoint claims allowed, three rejected", 1.0):
        ruled = Configuration.build([("D1", 0), ("D2", 0)])
        two = [
            FalseFibreClaim(frozenset({0}), NormalBundleNonTorsion()),
            FalseFibreClaim(frozenset({1}), NormalBundleNonTorsion()),
        ]
        assert validate_false_fibre_claims(two, ruled).ok

        triple_config = Configuration.build([("D1", 0), ("D2", 0), ("D3", 0)])
        three = [
            FalseFibreClaim(frozenset({i}), UserAsserted()) for i in range(3)
        ]
        report = validate_false_fibre_claims(three, triple_config)
        assert not report.ok
        assert report.disjoint_triple is not None


def test_criterion_09_elliptic_group_law():
    with _Budget(9, "associativity sample and torsion catalogue", 5.0):
        catalogue = [
            (CURVE_37A, GEN),
            (WeierstrassCurve(a6=1), ECPoint.affine(2, 3)),
            (WeierstrassCurve(a6=3), ECPoint.affine(1, 2)),
        ]
        rng = random.Random(20243)
        checked = 0
        for curve, base in catalogue:
            multiples = {
                k: scalar_mul(curve, k, base) for k in range(-6, 7)
            }
            for _ in range(67):
                a, b, c = (
                    multiples[rng.randint(-6, 6)] for _ in range(3)
                )
                assert add(curve, add(curve, a, b), c) == add(
                    curve, a, add(curve, b, c)
                )
                checked += 1
        assert checked >= 200

        six = is_torsion(WeierstrassCurve(a6=1), ECPoint.affine(2, 3))
        assert six.torsion and six.order == 6
        assert not is_torsion(CURVE_37A, GEN).torsion


def test_criterion_10_hodge_index_invariant():
    with _Budget(10, "signature (1, rank-1) through blowup towers", 5.0):
        rng = random.Random(20244)
        for _ in range(40):
            lattice = projective_plane()
            tracked = [ClassRecord("L", (1,), genus=0)]
            for _ in range(rng.randint(1, 12)):
                passing = [
                    (record, rng.randint(0, 2)) for record in tracked
                ]
                result = blowup(lattice, passing)
                lattice = result.lattice
                tracked = list(result.classes)
                if rng.random() < 0.5:
                    tracked.append(result.exceptional)
                rank = lattice.rank
                assert lattice.gram.inertia() == (1, rank - 1, 0)
