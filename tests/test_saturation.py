import inspect
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from surfsat import (
    AffDim,
    CompactifiedSurface,
    Configuration,
    DataInconsistencyError,
    FalseFibreClaim,
    NormalBundleNonTorsion,
    PreconditionError,
    SchemeContractibility,
    SchemeSaturationVerdict,
    SymmetricMatrix,
    UserAsserted,
    affinisation_dimension,
    apply_plan,
    is_saturated,
    saturation_plan,
    scheme_saturation_check,
)
from surfsat import FibreVerdict, SaturationPlan, classify_fibre_type
from surfsat import cli, mumford, saturation
from surfsat.cli import cmd_mumford
from surfsat.cli import main as cli_main
from surfsat.configuration import Divisor
from surfsat.saturation import _inner_nodes, _second_fibre_witness
from surfsat.schema import Document, document_to_json, parse_document

from support import (
    cycle,
    dense_inertia,
    oracle_affinisation_after_plan,
    oracle_apply_plan,
    oracle_saturation_partition,
    random_configuration,
    random_contraction_setup,
)


def rebuilt(s):
    """``s`` built again from its fields, so its boundary record is
    classified afresh."""
    return CompactifiedSurface(
        s.ambient, s.boundary, s.isolated_boundary_points, s.false_fibre_claims,
        s.fibration_asserted,
    )


def surface(curves, inters=(), boundary=(), points=0, claims=(), fibration=False):
    config = Configuration.build(curves, inters)
    ids = {node.name: node.id for node in config.nodes}
    boundary_ids = {ids[name] for name in boundary}
    return CompactifiedSurface(
        ambient=config,
        boundary=frozenset(boundary_ids),
        isolated_boundary_points=points,
        false_fibre_claims=tuple(claims),
        fibration_asserted=fibration,
    )


class TestIsSaturated:
    def test_zero_curve_boundary(self):
        s = surface([("C", 0)], boundary=["C"])
        assert is_saturated(s).saturated

    def test_negative_cubic_transform(self):
        s = surface([("C", -1)], boundary=["C"])
        verdict = is_saturated(s)
        assert not verdict.saturated
        assert verdict.offending_components == (frozenset({0}),)

    def test_proper_surface(self):
        s = surface([("C", 5)], boundary=[])
        assert is_saturated(s).saturated

    def test_isolated_points_break_saturation(self):
        s = surface([("C", 0)], boundary=["C"], points=2)
        assert not is_saturated(s).saturated

    def test_criterion_tag(self):
        s = surface([("C", 0)], boundary=["C"])
        assert is_saturated(s).criterion == "no-negative-definite-component"


class TestSaturationPlan:
    def test_mixed_boundary(self):
        s = surface([("E", -1), ("F", 0)], boundary=["E", "F"])
        plan = saturation_plan(s)
        assert plan.d_minus == (frozenset({0}),)
        assert plan.d_plus == (frozenset({1}),)
        assert plan.resulting_boundary_ok

    def test_already_saturated_gives_empty_plan(self):
        s = surface([("F", 0)], boundary=["F"])
        plan = saturation_plan(s)
        assert plan.d_minus == ()
        assert plan.points_to_remove == 0

    def test_chain_contracts_to_proper_surface(self):
        s = surface(
            [("E1", -2), ("E2", -2)], [(0, 1, 1)], boundary=["E1", "E2"]
        )
        plan = saturation_plan(s)
        assert plan.d_minus == (frozenset({0, 1}),)
        result = apply_plan(s, plan)
        assert result.boundary == frozenset()
        assert is_saturated(result).saturated

    def test_idempotence_randomized(self):
        rng = random.Random(71)
        for _ in range(150):
            config = random_configuration(rng, rng.randint(1, 12))
            boundary = frozenset(
                i for i in range(config.n) if rng.random() < 0.7
            )
            s = CompactifiedSurface(
                ambient=config,
                boundary=boundary,
                isolated_boundary_points=rng.randint(0, 2),
            )
            result = apply_plan(s)
            assert is_saturated(result).saturated

    def test_apply_plan_remaps_claims(self):
        claim = FalseFibreClaim(frozenset({1}), UserAsserted())
        s = surface(
            [("E", -1), ("F", 0)], boundary=["E", "F"], claims=[claim]
        )
        result = apply_plan(s)
        assert result.boundary == frozenset({0})
        assert result.false_fibre_claims == (
            FalseFibreClaim(frozenset({0}), UserAsserted()),
        )
        assert affinisation_dimension(result).verdict is AffDim.ZERO

    def test_apply_plan_rejects_claim_on_contracted_part(self):
        claim = FalseFibreClaim(frozenset({0}), UserAsserted())
        s = surface([("E", -1), ("F", 0)], boundary=["E", "F"], claims=[claim])
        with pytest.raises(PreconditionError, match="contracted"):
            apply_plan(s)

    def test_monotone_under_removing_offenders(self):
        rng = random.Random(73)
        for _ in range(100):
            config = random_configuration(rng, rng.randint(2, 8))
            boundary = frozenset(
                i for i in range(config.n) if rng.random() < 0.8
            )
            s = CompactifiedSurface(ambient=config, boundary=boundary)
            verdict = is_saturated(s)
            for comp in verdict.offending_components:
                smaller = CompactifiedSurface(
                    ambient=config, boundary=boundary - comp
                )
                # dropping a negative definite component can only help
                assert (
                    is_saturated(smaller).saturated
                    or len(is_saturated(smaller).offending_components)
                    < len(verdict.offending_components)
                )


class TestApplyPlanBudget:
    def test_chain_of_80_with_interior_curves_under_one_second(self):
        # boundary: an A_80 chain of (-2)-curves E_i; interior: a
        # (+1)-curve C_i meeting E_i once, for every i
        n = 80
        s = surface(
            [(f"E{i}", -2) for i in range(n)] + [(f"C{i}", 1) for i in range(n)],
            [(i, i + 1, 1) for i in range(n - 1)] + [(i, n + i, 1) for i in range(n)],
            boundary=[f"E{i}" for i in range(n)],
        )
        start = time.perf_counter()
        result = apply_plan(s)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"apply_plan took {elapsed:.2f}s"
        # downstairs C_a . C_b = delta_ab + (A^-1)_ab, A the A_80 Cartan
        # matrix, whose inverse is i (n + 1 - j) / (n + 1) for i <= j
        assert not result.boundary
        for a in range(n):
            for b in range(n):
                i, j = min(a, b) + 1, max(a, b) + 1
                expected = (a == b) + Fraction(i * (n + 1 - j), n + 1)
                assert result.ambient.gram.entry(a, b) == expected


class TestWideDocumentBudget:
    def test_3000_disjoint_pairs_parse_and_saturate_under_one_second(self):
        # 1500 disjoint A_2 chains of (-2)-curves, all on the boundary:
        # the parse, the sign check and the component search must be
        # linear in the curves and meetings, not quadratic in the curves
        n = 3000
        data = {
            "curves": [{"name": f"C{i}", "self": -2} for i in range(n)],
            "intersections": [[2 * k, 2 * k + 1, 1] for k in range(n // 2)],
            "boundary": [f"C{i}" for i in range(n)],
        }
        start = time.perf_counter()
        verdict = is_saturated(parse_document(data).surface)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"parse and is_saturated took {elapsed:.2f}s"
        assert not verdict.saturated
        assert verdict.offending_components == tuple(
            frozenset({2 * k, 2 * k + 1}) for k in range(n // 2)
        )


class TestAffinisationDimension:
    def test_unsaturated_input_reads_as_its_saturation(self):
        # contracting the (-1)-curve E1 leaves the proper surface: the
        # affinisation of a surface is that of its saturation
        s = surface([("C", 0), ("E1", -1)], [(0, 1, 1)], boundary=["E1"])
        assert not is_saturated(s).saturated
        report = affinisation_dimension(s)
        assert report.verdict is AffDim.ZERO
        assert report.criteria() == ("proper-surface",)
        assert report == affinisation_dimension(apply_plan(s))

    def test_proper_surface_is_zero(self):
        s = surface([("C", 2)], boundary=[])
        report = affinisation_dimension(s)
        assert report.verdict is AffDim.ZERO
        assert report.criteria() == ("proper-surface",)

    def test_positive_boundary_is_two(self):
        s = surface([("H", 1)], boundary=["H"])
        report = affinisation_dimension(s)
        assert report.verdict is AffDim.TWO
        assert "not-negative-semidefinite" in report.criteria()

    def test_fibration_asserted_gives_one(self):
        s = surface([("C", 0)], boundary=["C"], fibration=True)
        report = affinisation_dimension(s)
        assert report.verdict is AffDim.ONE
        assert "fibration-asserted" in report.criteria()

    def test_certified_false_fibre_gives_zero(self):
        claim = FalseFibreClaim(frozenset({0}), NormalBundleNonTorsion())
        s = surface([("C", 0)], boundary=["C"], claims=[claim])
        report = affinisation_dimension(s)
        assert report.verdict is AffDim.ZERO
        assert "disjoint-false-fibres" in report.criteria()

    def test_claim_on_a_missing_curve_is_a_precondition_error(self):
        # it used to raise a bare IndexError from classify_fibre_type
        claim = FalseFibreClaim(frozenset({7}), UserAsserted())
        s = surface([("C", 0), ("D", -2), ("E", -2)], boundary=["C"], claims=[claim])
        with pytest.raises(PreconditionError) as info:
            affinisation_dimension(s)
        assert str(info.value) == "node 7 is not in the configuration"

    def test_uncertified_zero_curve_is_honest(self):
        s = surface([("C", 0)], boundary=["C"])
        report = affinisation_dimension(s)
        assert report.verdict is AffDim.ONE_OR_ZERO
        assert "missing-certificates" in report.criteria()

    def test_two_interior_fibre_divisors_give_one(self):
        s = surface(
            [("C", 0), ("F1", 0), ("F2", 0)],
            boundary=["C"],
        )
        report = affinisation_dimension(s)
        assert report.verdict is AffDim.ONE
        assert "second-fibre-type-divisor" in report.criteria()

    def test_single_interior_fibre_divisor_stays_honest(self):
        # a ruled surface minus one of two disjoint zero-sections keeps the
        # other as an interior curve yet has trivial affinisation
        s = surface([("D1", 0), ("D2", 0)], boundary=["D1"])
        report = affinisation_dimension(s)
        assert report.verdict is AffDim.ONE_OR_ZERO

    def test_interior_curve_meeting_boundary_is_ignored(self):
        s = surface(
            [("C", 0), ("E", 0), ("F", 0)],
            [(0, 1, 1)],
            boundary=["C"],
        )
        # E meets the boundary, so only F counts; one divisor is not enough
        report = affinisation_dimension(s)
        assert report.verdict is AffDim.ONE_OR_ZERO

    def test_three_fibre_type_components_force_one(self):
        s = surface(
            [("C1", 0), ("C2", 0), ("C3", 0)],
            boundary=["C1", "C2", "C3"],
        )
        report = affinisation_dimension(s)
        assert report.verdict is AffDim.ONE
        assert "three-disjoint-fibre-type-components" in report.criteria()

    def test_two_certified_components_give_zero(self):
        claims = [
            FalseFibreClaim(frozenset({0}), NormalBundleNonTorsion()),
            FalseFibreClaim(frozenset({1}), NormalBundleNonTorsion()),
        ]
        s = surface([("D1", 0), ("D2", 0)], boundary=["D1", "D2"], claims=claims)
        assert affinisation_dimension(s).verdict is AffDim.ZERO

    def test_cover_plus_fibration_is_inconsistent(self):
        claim = FalseFibreClaim(frozenset({0}), UserAsserted())
        s = surface([("C", 0)], boundary=["C"], claims=[claim], fibration=True)
        with pytest.raises(DataInconsistencyError):
            affinisation_dimension(s)

    def test_three_disjoint_claims_are_inconsistent(self):
        claims = [
            FalseFibreClaim(frozenset({i}), UserAsserted()) for i in range(3)
        ]
        s = surface(
            [("D1", 0), ("D2", 0), ("D3", 0)],
            boundary=["D1", "D2", "D3"],
            claims=claims,
        )
        with pytest.raises(DataInconsistencyError, match="disjoint"):
            affinisation_dimension(s)

    def test_soundness_on_random_surfaces(self):
        rng = random.Random(79)
        for _ in range(150):
            config = random_configuration(rng, rng.randint(1, 9))
            boundary = frozenset(
                i for i in range(config.n) if rng.random() < 0.6
            )
            s = CompactifiedSurface(ambient=config, boundary=boundary)
            s = apply_plan(s)
            try:
                report = affinisation_dimension(s)
            except DataInconsistencyError:
                continue
            if report.verdict is AffDim.TWO:
                plus, _, _ = s.ambient.gram_on(s.boundary).inertia()
                assert plus >= 1
            if report.verdict in (AffDim.ONE, AffDim.ZERO) and s.boundary:
                from surfsat import FibreVerdict, classify_fibre_type

                for comp in s.boundary_components():
                    assert (
                        classify_fibre_type(s.ambient, comp).verdict
                        is FibreVerdict.FIBRE_TYPE
                    )


    def test_positive_count_matches_dense_inertia_of_whole_boundary(self):
        # the per-component count against one dense elimination of the
        # whole boundary Gram, on saturated surfaces of many components
        rng = random.Random(89)
        two = 0
        for _ in range(150):
            config = random_configuration(
                rng, rng.randint(1, 12), diag_lo=-3, diag_hi=2, edge_hi=2
            )
            boundary = frozenset(i for i in range(config.n) if rng.random() < 0.7)
            s = apply_plan(CompactifiedSurface(ambient=config, boundary=boundary))
            if not s.boundary:
                continue
            plus = dense_inertia(s.ambient.gram_on(s.boundary))[0]
            report = affinisation_dimension(s)
            if plus:
                two += 1
                assert report.verdict is AffDim.TWO
                assert report.reasons == (
                    (
                        "not-negative-semidefinite",
                        f"boundary pairing has {plus} positive direction(s)",
                    ),
                )
            else:
                assert report.verdict is not AffDim.TWO
        assert two > 50

    def test_2000_disjoint_zero_curves_under_budget(self, monkeypatch):
        # a dense elimination of the whole boundary took seconds here; a
        # fibre-type boundary needs no inertia at all
        b = 2000
        config = Configuration.build([(f"Z{i}", 0, 1) for i in range(b)])
        s = CompactifiedSurface(ambient=config, boundary=frozenset(range(b)))
        inertia = []
        original = SymmetricMatrix.inertia

        def counting(matrix):
            inertia.append(matrix.n)
            return original(matrix)

        monkeypatch.setattr(SymmetricMatrix, "inertia", counting)
        start = time.perf_counter()
        report = affinisation_dimension(s)
        elapsed = time.perf_counter() - start
        assert inertia == []
        assert elapsed < 0.5, f"affinisation_dimension took {elapsed:.2f}s"
        assert report.verdict is AffDim.ONE
        assert report.criteria() == (
            "fibre-type-boundary",
            "three-disjoint-fibre-type-components",
        )


class TestSchemeSaturation:
    def test_blocked_contraction_is_scheme_saturated(self):
        s = surface([("C", -1)], boundary=["C"])
        oracle = {
            frozenset({0}): SchemeContractibility.NOT_SCHEME_CONTRACTIBLE
        }
        report = scheme_saturation_check(s, oracle)
        assert report.verdict is SchemeSaturationVerdict.SCHEME_SATURATED
        assert not is_saturated(s).saturated

    def test_no_negative_definite_components_coincides_with_saturated(self):
        s = surface([("C", 0)], boundary=["C"])
        report = scheme_saturation_check(s, {})
        assert report.verdict is SchemeSaturationVerdict.SCHEME_SATURATED

    def test_unknown_oracle_entry(self):
        s = surface([("C", -1)], boundary=["C"])
        oracle = {frozenset({0}): SchemeContractibility.UNKNOWN}
        report = scheme_saturation_check(s, oracle)
        assert report.verdict is SchemeSaturationVerdict.UNKNOWN

    def test_contractible_component_defeats_scheme_saturation(self):
        s = surface([("C", -1), ("F", 0)], boundary=["C", "F"])
        oracle = {frozenset({0}): SchemeContractibility.SCHEME_CONTRACTIBLE}
        report = scheme_saturation_check(s, oracle)
        assert report.verdict is SchemeSaturationVerdict.NOT_SCHEME_SATURATED
        assert report.contractible == (frozenset({0}),)

    def test_missing_oracle_entry_rejected(self):
        s = surface([("C", -1)], boundary=["C"])
        with pytest.raises(PreconditionError, match="oracle"):
            scheme_saturation_check(s, {})

    def test_isolated_points_leave_verdict_unknown(self):
        s = surface([("C", 0)], boundary=["C"], points=1)
        report = scheme_saturation_check(s, {})
        assert report.verdict is SchemeSaturationVerdict.UNKNOWN


def rational_surface(rng):
    """A boundary of negative definite parts with fractional self-
    intersections beside random curves with rational entries, some of
    them also on the boundary."""
    config, exceptional, rest = random_contraction_setup(rng)
    boundary = set(exceptional) | {i for i in rest if rng.random() < 0.5}
    return CompactifiedSurface(ambient=config, boundary=frozenset(boundary))


class TestComponentReports:
    """Every reader of the per-component record against the negative
    definiteness loop each of them used to run."""

    @staticmethod
    def surfaces():
        rng = random.Random(131)
        for k in range(240):
            if k % 2:
                yield rational_surface(rng)
                continue
            config = random_configuration(rng, rng.randint(1, 9), diag_hi=2)
            boundary = frozenset(i for i in range(config.n) if rng.random() < 0.6)
            yield CompactifiedSurface(
                ambient=config,
                boundary=boundary,
                isolated_boundary_points=rng.choice((0, 0, 1)),
            )

    def test_readers_match_partition_oracle(self):
        contracted = 0
        for s in self.surfaces():
            d_minus, d_plus = oracle_saturation_partition(s)
            contracted += bool(d_minus)
            assert is_saturated(s).offending_components == d_minus
            plan = saturation_plan(s)
            assert (plan.d_minus, plan.d_plus) == (d_minus, d_plus)
            contractible = dict.fromkeys(
                d_minus, SchemeContractibility.SCHEME_CONTRACTIBLE
            )
            report = scheme_saturation_check(s, contractible)
            assert report.contractible == d_minus
            if d_minus:
                with pytest.raises(PreconditionError, match="lacks entries"):
                    scheme_saturation_check(s, dict(list(contractible.items())[1:]))
            mumford = cmd_mumford(Document(s))
            assert mumford.get("contracted_components", []) == [
                sorted(s.ambient.names(comp)) for comp in d_minus
            ]
        assert contracted > 100

    def test_one_report_per_component_in_component_order(self):
        for s in self.surfaces():
            components = s.ambient.connected_components(s.boundary)
            assert s.boundary_components() == components
            assert s.component_reports == tuple(
                classify_fibre_type(s.ambient, comp) for comp in components
            )

    def test_record_is_cached_and_not_an_init_parameter(self):
        args = ([("A", -2), ("B", -2), ("C", 0)], [(0, 1, 1)], ["A", "B", "C"])
        s = surface(*args)
        assert s.component_reports is s.component_reports
        assert s == surface(*args)
        parameters = inspect.signature(CompactifiedSurface).parameters
        assert "component_reports" not in parameters


class TestAffinisationAfterPlan:
    """The verdict read off the boundary record, and the record carried
    through the plan, against carrying out the whole plan."""

    @staticmethod
    def claims(rng, s):
        d_minus, kept = oracle_saturation_partition(s)
        if rng.random() < 0.3:
            # certify every kept component: zero, or inconsistent data
            return tuple(FalseFibreClaim(comp, UserAsserted()) for comp in kept)
        # inner subjects miss the kept boundary only, so they may meet a
        # contracted part, and a piece of them may be connected through one
        inner = set(_inner_nodes(s, frozenset().union(*kept)))
        removed = frozenset().union(*d_minus)
        pieces = [
            piece - removed
            for piece in s.ambient.connected_components(inner | removed)
            if not piece <= removed
        ] if inner else []
        meeting = [
            piece for piece in pieces
            if any(s.ambient.neighbours(i) & removed for i in piece)
        ]
        if meeting and rng.random() < 0.7:
            return (FalseFibreClaim(rng.choice(meeting), UserAsserted()),)
        subjects = list(s.ambient.connected_components(s.boundary))
        subjects += s.ambient.connected_components(inner) if inner else ()
        subjects += pieces
        subjects += [frozenset(rng.sample(range(s.ambient.n), 1))]
        return tuple(
            FalseFibreClaim(rng.choice(subjects), UserAsserted())
            for _ in range(rng.randint(0, 3))
        )

    @staticmethod
    def with_fibres(rng, s):
        """``s`` with one to three disjoint fibre-type cycles of (-2)-curves
        added, on the boundary, except that the first may lie inside, or
        inside but for one curve, which the saturation contracts."""
        config = s.ambient
        curves = [(node.name, config.gram.entry(node.id, node.id))
                  for node in config.nodes]
        edges = [
            (i, j, v)
            for i in range(config.n)
            for j, v in config.gram.off_diagonal(i).items()
            if i < j
        ]
        boundary = set(s.boundary)
        for f in range(rng.randint(1, 3)):
            shape, start = cycle(rng.randint(1, 4)), len(curves)
            curves += [(f"F{f}_{i}", shape.gram.entry(i, i)) for i in range(shape.n)]
            edges += [
                (start + i, start + j, v)
                for i in range(shape.n)
                for j, v in shape.gram.off_diagonal(i).items()
                if i < j
            ]
            place = rng.random()
            if f or place < 0.5:
                boundary |= set(range(start, len(curves)))
            elif shape.n > 1 and place < 0.8:
                boundary.add(start)
        return CompactifiedSurface(
            ambient=Configuration.build(curves, edges), boundary=frozenset(boundary)
        )

    @classmethod
    def surfaces(cls, count=600):
        rng = random.Random(139)
        for k in range(count):
            if k % 4 == 0:
                s = rational_surface(rng)
                if rng.random() < 0.5:
                    s = cls.with_fibres(rng, s)
            elif k % 4 == 1:
                # the whole boundary negative definite, some of it rational
                config, exceptional, _ = random_contraction_setup(rng)
                s = CompactifiedSurface(ambient=config, boundary=exceptional)
            else:
                config = random_configuration(
                    rng, rng.randint(1, 9), diag_hi=rng.choice((3, 0, -1))
                )
                boundary = frozenset(
                    i for i in range(config.n) if rng.random() < 0.6
                )
                s = CompactifiedSurface(ambient=config, boundary=boundary)
            yield CompactifiedSurface(
                ambient=s.ambient,
                boundary=s.boundary,
                isolated_boundary_points=rng.choice((0, 0, 2)),
                false_fibre_claims=cls.claims(rng, s) if rng.random() < 0.3 else (),
                fibration_asserted=rng.random() < 0.2,
            )

    @staticmethod
    def outcome(classify, s):
        try:
            report = classify(s)
        except (PreconditionError, DataInconsistencyError) as exc:
            return type(exc), str(exc)
        return report.verdict, report.reasons

    def test_matches_classifying_the_contracted_surface(self):
        # more draws than the other tests take: a kept fibre-type boundary
        # beside an inner positive direction is refused (Hodge index)
        seen = Counter()
        for s in self.surfaces(1200):
            got = self.outcome(affinisation_dimension, s)
            assert got == self.outcome(oracle_affinisation_after_plan, s)
            kept = oracle_saturation_partition(s)[1]
            if isinstance(got[0], AffDim) and len(kept) < len(s.boundary_components()):
                seen[got[1][0][0]] += 1
            else:
                seen[got[0]] += 1
        # contracted surfaces that end proper, with a positive direction or
        # with a fibre-type boundary, and every kind of refusal
        assert seen["proper-surface"] > 100
        assert seen["not-negative-semidefinite"] > 40
        assert seen["fibre-type-boundary"] > 10
        assert seen[PreconditionError] > 20 and seen[DataInconsistencyError] > 0

    def test_claims_on_inner_divisors_that_meet_contracted_parts(self):
        # a kept 0-curve and fibre cycles, the first inside but for one
        # curve that the saturation contracts in about a fifth of the draws:
        # the claims drawn on its inner piece meet the contracted curve,
        # beside a fibre-type boundary
        rng = random.Random(149)
        base = CompactifiedSurface(Configuration.build([("Z", 0)]), {0})
        reached = Counter()
        for _ in range(300):
            s = self.with_fibres(rng, base)
            s = CompactifiedSurface(
                s.ambient, s.boundary, false_fibre_claims=self.claims(rng, s),
                fibration_asserted=rng.random() < 0.2,
            )
            got = self.outcome(affinisation_dimension, s)
            assert got == self.outcome(oracle_affinisation_after_plan, s)
            removed = frozenset().union(*oracle_saturation_partition(s)[0])
            if any(
                s.ambient.neighbours(i) & removed
                for claim in s.false_fibre_claims
                for i in claim.subject - s.boundary
            ):
                reached[got[0]] += 1
        assert reached[AffDim.ONE_OR_ZERO] > 20 and reached[AffDim.ONE] > 5

    def test_carried_record_is_the_fresh_classification(self):
        for s in self.surfaces():
            try:
                plan = saturation_plan(s)
            except PreconditionError:
                continue
            saturated = apply_plan(s, plan)
            assert saturated == oracle_apply_plan(s, plan)
            fresh = rebuilt(saturated).component_reports
            assert [
                (r.subject, r.verdict, r.kernel, r.positive)
                for r in saturated.component_reports
            ] == [
                (r.subject, r.verdict, r.kernel, r.positive)
                for r in fresh
            ]

    def test_partial_plan_carries_the_record_it_keeps(self):
        # contract the first negative definite component only: the others
        # stay in the record, re-indexed, and a second plan contracts them
        partial = 0
        for s in self.surfaces():
            d_minus = oracle_saturation_partition(s)[0]
            if len(d_minus) < 2 or any(
                claim.subject & d_minus[0] for claim in s.false_fibre_claims
            ):
                continue
            plan = SaturationPlan(d_minus[:1], (), 0, True)
            once = apply_plan(s, plan)
            assert once == oracle_apply_plan(s, plan)
            again = rebuilt(once)  # classified afresh
            assert [
                (r.subject, r.verdict, r.kernel, r.positive)
                for r in once.component_reports
            ] == [
                (r.subject, r.verdict, r.kernel, r.positive)
                for r in again.component_reports
            ]
            assert any(
                r.verdict is FibreVerdict.NEGATIVE_DEFINITE
                for r in once.component_reports
            )
            assert self.outcome(affinisation_dimension, once) == self.outcome(
                oracle_affinisation_after_plan, again
            )
            try:
                expected = oracle_apply_plan(again, saturation_plan(again))
            except PreconditionError as exc:
                with pytest.raises(PreconditionError, match=re.escape(str(exc))):
                    apply_plan(once)
                continue
            assert apply_plan(once) == expected
            partial += 1
        assert partial > 20

    def test_plan_not_read_off_the_record_is_checked(self):
        # contracting E1 alone, a part of the component E1 + E2 + P: it is
        # no boundary component, so contract checks and factorises it, and
        # the saturated surface classifies its boundary afresh
        s = surface(
            [("E1", -2), ("E2", -2), ("P", 1), ("C", 1)],
            [(0, 1, 1), (1, 2, 1), (0, 3, 1)],
            boundary=["E1", "E2", "P"],
        )
        plan = SaturationPlan((frozenset({0}),), (), 0, True)
        saturated = apply_plan(s, plan)
        assert saturated == oracle_apply_plan(s, plan)
        with pytest.raises(PreconditionError, match="not negative definite"):
            apply_plan(s, SaturationPlan((frozenset({2}),), (), 0, True))
        # a record component listed twice is refused as contract refuses it
        t = surface([("E", -2), ("C", 1)], [(0, 1, 1)], boundary=["E"])
        twice = SaturationPlan((frozenset({0}),) * 2, (), 0, True)
        with pytest.raises(PreconditionError, match="pairwise disjoint"):
            apply_plan(t, twice)


class TestClosureClassification:
    """The saturation read off the closures of its curve sets, against
    classifying the contracted surface (``oracle_affinisation_after_plan``),
    where contracting changes what the curves upstairs show."""

    @staticmethod
    def outcomes(s):
        got = TestAffinisationAfterPlan.outcome(affinisation_dimension, s)
        assert got == TestAffinisationAfterPlan.outcome(
            oracle_affinisation_after_plan, s
        )
        return got

    def test_a_positive_direction_that_appears_only_after_contracting(self):
        # I^2 = -1 upstairs, and E.I = 2 makes it 1 once E is contracted:
        # beside the kept genus-1 0-curve Z that is the Hodge refusal
        s = surface(
            [("E", -2), ("I", -1), ("Z", 0, 1)], [(0, 1, 2)], boundary=["E", "Z"]
        )
        assert s.ambient.gram.ldl([1]).inertia == (0, 1, 0)
        kind, text = self.outcomes(s)
        assert kind is DataInconsistencyError
        assert "containing 'I' has a positive direction" in text

    def test_two_inner_curves_meeting_only_through_a_contracted_curve(self):
        # I1 - E - I2 is fibre type, so I1 + I2 is one inner fibre-type
        # component on the saturation, and the disjoint X is a second divisor
        s = surface(
            [("E", -1), ("I1", -2), ("I2", -2), ("X", -2), ("Z", 0, 1)],
            [(0, 1, 1), (0, 2, 1)],
            boundary=["E", "Z"],
        )
        verdict, reasons = self.outcomes(s)
        assert verdict is AffDim.ONE
        assert reasons[-1][0] == "second-fibre-type-divisor"
        assert "('I1', 'I2')" in reasons[-1][1]

    def test_an_inner_cycle_closed_through_two_contracted_curves(self):
        # the A~3 cycle A - E1 - B - E2 - A of (-2)-curves, with E1 and E2
        # contracted: the saturation's inner A + B is of fibre type, with
        # kernel A + B
        s = surface(
            [("A", -2), ("E1", -2), ("B", -2), ("E2", -2), ("X", -2), ("Z", 0, 1)],
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)],
            boundary=["E1", "E2", "Z"],
        )
        verdict, reasons = self.outcomes(s)
        assert verdict is AffDim.ONE
        assert "('A', 'B')" in reasons[-1][1]
        model = oracle_apply_plan(s, saturation_plan(s))
        assert classify_fibre_type(model.ambient, {0, 1}).kernel == Divisor(
            {0: 1, 1: 1}
        )

    def test_a_claim_subject_connected_only_through_a_contracted_curve(self):
        # the claim on I1 + I2 is a fibre-type divisor on the saturation,
        # though the two curves do not meet upstairs
        claim = FalseFibreClaim(frozenset({1, 2}), UserAsserted())
        s = surface(
            [("E", -1), ("I1", -2), ("I2", -2), ("Z", 0, 1)],
            [(0, 1, 1), (0, 2, 1)],
            boundary=["E", "Z"],
            claims=[claim],
        )
        assert classify_fibre_type(s.ambient, {1, 2}).verdict is (
            FibreVerdict.DISCONNECTED
        )
        verdict, reasons = self.outcomes(s)
        assert verdict is AffDim.ONE_OR_ZERO
        assert reasons[-1][0] == "missing-certificates"

    def test_claims_that_meet_only_through_a_contracted_curve(self):
        # X1 and X2 are 0-curves on the saturation that meet through E, so
        # the three claims are no disjoint triple there; the inner X1 + X2
        # then has a positive direction beside the kept Z
        names = [("E", -2), ("X1", "-1/2"), ("X2", "-1/2"), ("X3", 0), ("Z", 0, 1)]
        claims = [FalseFibreClaim({i}, UserAsserted()) for i in (1, 2, 3)]
        s = surface(names, [(0, 1, 1), (0, 2, 1)], ["E", "Z"], claims=claims)
        assert s.ambient.disjoint({1}, {2})
        kind, text = self.outcomes(s)
        assert kind is DataInconsistencyError
        assert "containing 'X1' has a positive direction" in text

    def test_only_the_saturation_plan_is_read_off_closures(self):
        # the closures hold for whole negative definite boundary components,
        # and the classifier reads those off the record itself: the two
        # (-1)-curves F and G, not a part of E1 + E2 + P nor the 0-curve Z
        s = surface(
            [("E1", -2), ("E2", -2), ("P", 1), ("C", 1), ("F", -1), ("G", -1),
             ("Z", 0)],
            [(0, 1, 1), (1, 2, 1), (0, 3, 1), (4, 3, 1), (5, 3, 1)],
            boundary=["E1", "E2", "P", "F", "G", "Z"],
        )
        assert saturation_plan(s).d_minus == (frozenset({4}), frozenset({5}))
        # a claim on one of the contracted parts
        claimed = CompactifiedSurface(
            s.ambient, s.boundary,
            false_fibre_claims=(FalseFibreClaim({4}, UserAsserted()),),
        )
        with pytest.raises(PreconditionError, match="overlaps a contracted"):
            affinisation_dimension(claimed)
        reason = "boundary pairing has 1 positive direction(s)"
        assert self.outcomes(s) == (
            AffDim.TWO, (("not-negative-semidefinite", reason),)
        )


class TestSaturationPlanBudget:
    @pytest.mark.parametrize("command", ["affdim", "analyze"])
    def test_chain_of_1000_with_interior_curves(self, command, tmp_path, capsys):
        # boundary: an A_1000 chain of (-2)-curves E_i; interior: a
        # (+1)-curve C_i meeting E_i once.  The plan keeps no boundary, so
        # the saturation is proper without computing the contraction.
        n = 1000
        doc = {
            "schema_version": 1,
            "curves": [{"name": f"E{i}", "self": -2} for i in range(n)]
            + [{"name": f"C{i}", "self": 1} for i in range(n)],
            "intersections": [[i, i + 1, 1] for i in range(n - 1)]
            + [[i, n + i, 1] for i in range(n)],
            "boundary": [f"E{i}" for i in range(n)],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = cli_main([command, str(path), "--format", "json"])
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["verdict"] == "zero"
        assert elapsed < 0.5, f"{command} took {elapsed:.2f}s"


class TestOneClassificationPerComponent:
    """A component's classification is one elimination of its whole block;
    every command reads it from the surface's record."""

    COMMANDS = ("saturate", "fibre", "mumford", "affdim", "analyze")
    # samples whose saturated model or claims used to classify a boundary
    # component a second time
    SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"

    @pytest.fixture
    def factorised(self, monkeypatch):
        """Every block eliminated: the ones the Gram did not have in its
        memo."""
        calls = []
        original = SymmetricMatrix._eliminate

        def counting(matrix, indices):
            calls.append(tuple(indices))
            return original(matrix, indices)

        monkeypatch.setattr(SymmetricMatrix, "_eliminate", counting)
        return calls

    @staticmethod
    def documents():
        # a fibre-type triangle and a 0-curve, an interior curve
        # meeting them and an inner (-2)-chain; then a not-semidefinite
        # pair, and negative definite parts to contract, whose interior
        # neighbours G and H also meet the triangle, so they stay off the
        # inner set on the saturation, and K, which meets only F
        curves = {
            "A0": -2, "A1": -2, "A2": -2, "Z": 0, "I": -2, "J1": -2, "J2": -2,
            "P": 1, "Q": -2, "E1": -2, "E2": -2, "F": -1, "G": -1, "H": 0,
            "K": -2,
        }
        meetings = [
            ("A0", "A1"), ("A1", "A2"), ("A0", "A2"), ("I", "A0"), ("J1", "J2"),
            ("P", "Q"), ("E1", "E2"), ("G", "E1"), ("G", "F"), ("H", "E2"),
            ("G", "A1"), ("H", "A2"), ("K", "F"),
        ]
        base = ["A0", "A1", "A2", "Z", "I", "J1", "J2"]
        plus = ["P", "Q"]
        # K meets only the contracted F, so its inner component's closure
        # is K + F
        negative = ["E1", "E2", "F", "G", "H", "K"]
        for name, names in (
            ("fibres", base),
            ("plus", base + plus),
            ("contract-fibres", base + negative),
            ("contract-plus", base + plus + negative),
            # the whole boundary E1 + E2, F is negative definite
            ("negative", negative),
        ):
            index = {c: i for i, c in enumerate(names)}
            yield name, surface(
                [(c, curves[c]) for c in names],
                [(index[a], index[b], 1) for a, b in meetings if {a, b} <= set(names)],
                [c for c in names if c not in ("I", "J1", "J2", "G", "H", "K")],
            )

    @staticmethod
    def classification(s):
        return [
            tuple(sorted(comp))
            for comp in s.ambient.connected_components(s.boundary)
        ]

    def expected(self, s, command):
        # the not-semidefinite pair P, Q of the plus documents is eliminated
        # once: affdim and analyze read its positive count off the record.
        # mumford's contraction reads each part's factor back from the Gram's
        # memo, and affdim and analyze contract nothing: when the kept
        # components settle nothing, they eliminate one block per inner
        # component of the saturation, its closure (the component with the
        # contracted parts it meets), and no boundary component again
        calls = self.classification(s)
        plan = saturation_plan(s)
        kept = frozenset().union(*plan.d_plus)
        removed = frozenset().union(*plan.d_minus)
        positive = [r for r in s.component_reports if r.positive and r.subject <= kept]
        if command in ("affdim", "analyze") and kept and not positive:
            inner = {
                i for i in s.interior_curves
                if s.ambient.neighbours(i).isdisjoint(kept)
            }
            calls += [
                tuple(sorted(piece))
                for piece in s.ambient.connected_components(inner | removed)
                if not piece <= removed
            ]
        return Counter(calls)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_component_classified_once(
        self, command, tmp_path, capsys, factorised
    ):
        for name, s in self.documents():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(document_to_json(Document(s))))
            expected = self.expected(s, command)
            factorised.clear()
            assert cli_main([command, str(path)]) in (0, 2)
            capsys.readouterr()
            assert Counter(factorised) == expected, name

    def test_a_claimed_inner_star_is_eliminated_once(
        self, tmp_path, capsys, factorised
    ):
        # an inner extended D4 (X0 meeting X1..X4) claimed as a false fibre
        # of a genus-1 0-curve boundary: the claim check and the second-fibre
        # witness ask for the same block, in different orders of its curves
        curves = [{"name": "B", "genus": 1, "self": 0}]
        curves += [{"name": f"X{i}", "self": -2} for i in range(5)]
        path = tmp_path / "star.json"
        path.write_text(json.dumps({
            "curves": curves,
            "intersections": [[1, i, 1] for i in range(2, 6)],
            "boundary": ["B"],
            "false_fibre_claims": [{
                "subject": [f"X{i}" for i in range(5)],
                "certificate": {"kind": "user-asserted"},
            }],
        }))
        assert self.run("analyze", path, capsys) in (0, 2)
        star = frozenset(range(1, 6))
        assert [frozenset(c) for c in factorised].count(star) == 1
        assert (2, 3, 4, 5, 1) in factorised  # the centre goes last

    def test_contract_after_the_record_eliminates_nothing(self, factorised):
        # every part of the plan is a boundary component the record has
        # classified, so its factor is read back from the Gram's memo
        rng = random.Random(101)
        documents = [s for _, s in self.documents()]
        for _ in range(40):
            config, exceptional, _ = random_contraction_setup(rng)
            documents.append(CompactifiedSurface(config, exceptional))
        contracted = 0
        for s in documents:
            parts = is_saturated(s).offending_components
            if not parts:
                continue
            factorised.clear()
            mumford.contract(s.ambient, parts)
            apply_plan(s)
            assert factorised == []
            contracted += 1
        assert contracted > 40

    def test_a_second_plan_reads_the_kept_factors(self, factorised):
        # A and B are (-2)-curves, C a (+1)-curve meeting both: contracting
        # A keeps B, and the second plan, which contracts B, gives the
        # surface the oracle builds from the first contraction
        s = surface(
            [("A", -2), ("B", -2), ("C", 1)], [(0, 2, 1), (1, 2, 1)],
            boundary=["A", "B"],
        )
        once = apply_plan(s, SaturationPlan((frozenset({0}),), (), 0, True))
        assert apply_plan(once) == oracle_apply_plan(once, saturation_plan(once))

    def run(self, command, path, capsys):
        code = cli_main([command, str(path)])
        capsys.readouterr()
        return code

    @pytest.fixture
    def contractions(self, monkeypatch):
        """The parts of every contraction made while the test runs."""
        calls = []
        original = mumford.contract

        def counting(config, parts):
            calls.append(config.names(frozenset().union(*parts)))
            return original(config, parts)

        monkeypatch.setattr(saturation, "contract", counting)
        monkeypatch.setattr(cli, "contract", counting)
        return calls

    @pytest.mark.parametrize("command", ["mumford", "affdim", "analyze"])
    def test_negative_definite_boundary_is_not_contracted_to_classify(
        self, command, tmp_path, capsys, contractions
    ):
        # the saturation keeps no boundary, so it is proper: only mumford,
        # which prints the contraction, carries it out
        s = dict(self.documents())["negative"]
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(document_to_json(Document(s))))
        assert self.run(command, path, capsys) == 0
        assert contractions == ([("E1", "E2", "F")] if command == "mumford" else [])

    def test_hironaka_ten_points_is_not_contracted(self, capsys, contractions):
        # the boundary cubic has self-intersection -1, so the plan contracts
        # it and keeps nothing
        assert self.run("hironaka", self.SAMPLES / "n10.json", capsys) == 0
        assert contractions == []

    @pytest.mark.parametrize("points", [0, 2])
    def test_dropping_points_keeps_the_record(
        self, points, tmp_path, capsys, factorised
    ):
        # the boundary cubic once; every other curve meets it, so the inner
        # set is empty and needs no elimination
        doc = json.loads((self.SAMPLES / "hironaka9_pencil.json").read_text())
        doc["isolated_boundary_points"] = points
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(doc))
        assert self.run("analyze", path, capsys) == 0
        assert factorised == [(0,)]

    @pytest.mark.parametrize("command", ["affdim", "analyze"])
    def test_boundary_claim_reads_the_record(self, command, capsys, factorised):
        # the certified boundary cubic once, and no claim re-classifies it
        path = self.SAMPLES / "hironaka9_nontorsion.json"
        assert self.run(command, path, capsys) == 0
        assert factorised == [(0,)]


class TestInnerFibreBudget:
    def test_inner_cycle_of_800_under_budget(self):
        # every proper sub-support of the inner A~_799 cycle is negative
        # definite, so the drop-one loop ran to its end in O(m^2)
        m = 800
        curves = [("B", 0, 1)] + [(f"A{i}", -2) for i in range(m)]
        inters = [(1 + i, 1 + (i + 1) % m, 1) for i in range(m)]
        s = surface(curves, inters, ["B"])
        start = time.perf_counter()
        report = affinisation_dimension(s)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.2, f"affinisation_dimension took {elapsed:.2f}s"
        assert report.verdict is AffDim.ONE_OR_ZERO

    def test_inner_cycle_with_a_positive_direction_under_budget(self):
        # self-intersections -2 + 1/m^2 give the inner A~ cycle inertia
        # (1, m-1, 0), and dropping any curve leaves a negative definite
        # chain, so the drop-one loop ran m eliminations to its end; the
        # positive direction beside the fibre-type boundary is refused
        m = 200
        self_int = Fraction(-2) + Fraction(1, m * m)
        curves = [("B", 0, 1)] + [(f"A{i}", self_int) for i in range(m)]
        inters = [(1 + i, 1 + (i + 1) % m, 1) for i in range(m)]
        s = surface(curves, inters, ["B"])
        assert s.ambient.gram.ldl(list(range(1, m + 1))).inertia == (1, m - 1, 0)
        start = time.perf_counter()
        with pytest.raises(DataInconsistencyError) as info:
            _second_fibre_witness(s, {})
        elapsed = time.perf_counter() - start
        assert str(info.value) == (
            f"the inner component of {m} curve(s) containing 'A0' has a positive "
            "direction beside a fibre-type boundary, which the Hodge index "
            "theorem forbids"
        )
        assert elapsed < 0.1, f"_second_fibre_witness took {elapsed:.2f}s"

    def test_inner_cycle_of_400_and_a_disjoint_curve_under_budget(self):
        # a disconnected inner set ran the O(m^2) drop-one loop: every drop
        # of a cycle curve leaves a negative definite rest
        m = 400
        curves = [("B", 0, 1)] + [(f"A{i}", -2) for i in range(m)] + [("X", -2)]
        inters = [(1 + i, 1 + (i + 1) % m, 1) for i in range(m)]
        s = surface(curves, inters, ["B"])
        start = time.perf_counter()
        report = affinisation_dimension(s)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.2, f"affinisation_dimension took {elapsed:.2f}s"
        # dropping the first cycle curves leaves negative definite rests;
        # dropping X leaves the cycle, a second divisor of fibre type
        assert report.verdict is AffDim.ONE
        assert report.criteria() == ("fibre-type-boundary", "second-fibre-type-divisor")
        cycle = ", ".join(repr(f"A{i}") for i in range(m))
        assert f"(e.g. ({cycle}) and all inner curves)" in report.reasons[1][1]
