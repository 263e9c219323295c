import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfsat import (
    Configuration,
    ContractionContext,
    Divisor,
    PreconditionError,
    SymmetricMatrix,
    contract,
    induced_product,
    pullback,
)

from support import (
    dense_disjoint,
    is_negative_semidefinite,
    oracle_contract,
    oracle_pullback,
    random_contraction_setup,
    random_negative_definite_configuration,
)


def random_divisor(rng, nodes):
    """A divisor with several curves of ``nodes`` in its support."""
    chosen = rng.sample(nodes, rng.randint(1, len(nodes)))
    return Divisor(
        {i: Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)) for i in chosen}
    )


def a1_setup():
    # one (-2)-curve E, one strict curve C meeting it once
    config = Configuration.build([("E", -2), ("C", -1)], [(0, 1, 1)])
    return config, ContractionContext(config, frozenset({0}))


def a2_setup():
    # chain of two (-2)-curves; C meets the first end once
    config = Configuration.build(
        [("E1", -2), ("E2", -2), ("C", -1)],
        [(0, 1, 1), (0, 2, 1)],
    )
    return config, ContractionContext(config, frozenset({0, 1}))


class TestPullback:
    def test_a1_coefficient(self):
        _, ctx = a1_setup()
        pb = pullback(ctx, Divisor.of(1))
        assert pb.coefficient(0) == Fraction(1, 2)
        assert pb.coefficient(1) == 1

    def test_a2_coefficients(self):
        _, ctx = a2_setup()
        pb = pullback(ctx, Divisor.of(2))
        assert pb.coefficient(0) == Fraction(2, 3)
        assert pb.coefficient(1) == Fraction(1, 3)

    def test_disjoint_strict_gets_zero(self):
        config = Configuration.build([("E", -2), ("C", 3)])
        ctx = ContractionContext(config, frozenset({0}))
        assert pullback(ctx, Divisor.of(1)) == Divisor.of(1)

    def test_rejects_divisor_meeting_exceptional_support(self):
        _, ctx = a1_setup()
        with pytest.raises(PreconditionError):
            pullback(ctx, Divisor.of(0))

    def test_rejects_indefinite_exceptional_set(self):
        config = Configuration.build([("E", 0), ("C", -1)], [(0, 1, 1)])
        with pytest.raises(PreconditionError):
            ContractionContext(config, frozenset({0}))

    def test_orthogonality_on_random_exceptional_sets(self):
        rng = random.Random(47)
        for _ in range(200):
            k = rng.randint(1, 5)
            exc = random_negative_definite_configuration(rng, k)
            # append one strict curve with random non-negative meetings
            curves = [
                (exc.nodes[i].name, exc.gram.entry(i, i)) for i in range(k)
            ]
            curves.append(("C", rng.randint(-3, 3)))
            inters = [
                (i, j, exc.gram.entry(i, j))
                for i in range(k)
                for j in range(i + 1, k)
                if exc.gram.entry(i, j) != 0
            ]
            inters += [
                (i, k, rng.randint(0, 2)) for i in range(k) if rng.random() < 0.7
            ]
            config = Configuration.build(curves, inters)
            ctx = ContractionContext(config, frozenset(range(k)))
            pb = pullback(ctx, Divisor.of(k))
            for j in range(k):
                assert config.intersection_number(pb, Divisor.of(j)) == 0

    def test_effective_support_is_full_preimage(self):
        rng = random.Random(53)
        for _ in range(100):
            k = rng.randint(1, 5)
            exc = random_negative_definite_configuration(rng, k)
            curves = [
                (exc.nodes[i].name, exc.gram.entry(i, i)) for i in range(k)
            ]
            curves += [("C1", rng.randint(-2, 2)), ("C2", rng.randint(-2, 2))]
            inters = [
                (i, j, exc.gram.entry(i, j))
                for i in range(k)
                for j in range(i + 1, k)
                if exc.gram.entry(i, j) != 0
            ]
            for s in (k, k + 1):
                inters += [
                    (i, s, rng.randint(0, 2))
                    for i in range(k)
                    if rng.random() < 0.5
                ]
            config = Configuration.build(curves, inters)
            ctx = ContractionContext(config, frozenset(range(k)))
            strict = Divisor({k: rng.randint(0, 3), k + 1: rng.randint(0, 3)})
            pb = pullback(ctx, strict)
            assert all(c >= 0 for c in pb.coefficients.values())
            expected = set(strict.support())
            for part in ctx.components():
                meets = any(
                    config.intersection_number(strict, Divisor.of(j)) > 0
                    for j in part
                )
                if meets:
                    expected |= part
                else:
                    assert all(pb.coefficient(j) == 0 for j in part)
            assert pb.support() == expected


class TestInducedProduct:
    def test_a1_self_product(self):
        config = Configuration.build([("E", -2), ("C", -1)], [(0, 1, 1)])
        ctx = ContractionContext(config, frozenset({0}))
        d = Divisor.of(1)
        assert induced_product(ctx, d, d) == Fraction(-1, 2)

    def test_disjoint_divisor_keeps_ambient_product(self):
        config = Configuration.build([("E", -3), ("C", 2)])
        ctx = ContractionContext(config, frozenset({0}))
        d = Divisor.of(1)
        assert induced_product(ctx, d, d) == 2

    def test_projection_formula(self):
        rng = random.Random(59)
        for _ in range(50):
            k = rng.randint(1, 4)
            exc = random_negative_definite_configuration(rng, k)
            curves = [
                (exc.nodes[i].name, exc.gram.entry(i, i)) for i in range(k)
            ]
            curves += [("C1", rng.randint(-2, 2)), ("C2", rng.randint(-2, 2))]
            inters = [
                (i, j, exc.gram.entry(i, j))
                for i in range(k)
                for j in range(i + 1, k)
                if exc.gram.entry(i, j) != 0
            ]
            for s in (k, k + 1):
                inters += [
                    (i, s, rng.randint(0, 2))
                    for i in range(k)
                    if rng.random() < 0.5
                ]
            if rng.random() < 0.5:
                inters.append((k, k + 1, rng.randint(0, 2)))
            config = Configuration.build(curves, inters)
            ctx = ContractionContext(config, frozenset(range(k)))
            d1, d2 = Divisor.of(k), Divisor.of(k + 1)
            assert induced_product(ctx, d1, d2) == config.intersection_number(
                pullback(ctx, d1), d2
            )


class TestContract:
    def test_drop_disjoint_minus_one_curve(self):
        config = Configuration.build([("E", -1), ("A", 2), ("B", 0)], [(1, 2, 1)])
        result = contract(config, [{0}])
        assert result.ambient_ids == (1, 2)
        assert result.configuration.gram == config.gram_on([1, 2])
        assert [s.contracted_names for s in result.singular_points] == [("E",)]

    def test_induced_gram_from_example(self):
        config = Configuration.build([("C", -1), ("E", -2)], [(0, 1, 1)])
        result = contract(config, [{1}])
        assert result.configuration.gram.rows == ((Fraction(-1, 2),),)

    def test_contract_nothing_is_identity(self):
        config = Configuration.build([("A", -1)])
        result = contract(config, [])
        assert result.configuration == config
        assert result.singular_points == ()

    def test_rejects_non_negative_definite_part(self):
        config = Configuration.build([("A", 0), ("B", -1)])
        with pytest.raises(PreconditionError, match="not negative definite"):
            contract(config, [{0}])

    def test_rejects_disconnected_part(self):
        config = Configuration.build([("A", -1), ("B", -1)])
        with pytest.raises(PreconditionError, match="not connected"):
            contract(config, [{0, 1}])

    def test_rejects_overlapping_parts(self):
        config = Configuration.build([("A", -2), ("B", -2)], [(0, 1, 1)])
        with pytest.raises(PreconditionError, match="pairwise disjoint"):
            contract(config, [{0, 1}, {1}])

    def test_reports_the_first_meeting_pair(self):
        # parts listed in random order; the error names the first pair
        # (a, b), a < b, that the pairwise dense-row check finds
        rng = random.Random(71)
        for _ in range(80):
            n = rng.randint(3, 9)
            config = Configuration.build(
                [(f"E{i}", -3) for i in range(n)],
                [(i, j, 1) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.25],
            )
            parts = [frozenset({i}) for i in rng.sample(range(n), rng.randint(2, n))]
            meeting = [
                (a, b)
                for a in range(len(parts))
                for b in range(a + 1, len(parts))
                if not dense_disjoint(config, parts[a], parts[b])
            ]
            if not meeting:
                assert len(contract(config, parts).ambient_ids) == n - len(parts)
                continue
            a, b = meeting[0]
            message = f"parts {config.names(parts[a])} and {config.names(parts[b])} meet"
            with pytest.raises(PreconditionError, match=re.escape(message)):
                contract(config, parts)

    def test_contract_twice_equals_contract_union(self):
        rng = random.Random(61)
        for _ in range(40):
            exc = random_negative_definite_configuration(rng, 4)
            curves = [
                (exc.nodes[i].name, exc.gram.entry(i, i)) for i in range(4)
            ] + [("C", rng.randint(-2, 2))]
            inters = [
                (i, j, exc.gram.entry(i, j))
                for i in range(4)
                for j in range(i + 1, 4)
                if exc.gram.entry(i, j) != 0
            ] + [(i, 4, rng.randint(0, 1)) for i in range(4)]
            config = Configuration.build(curves, inters)
            parts = config.connected_components(range(4))
            if len(parts) < 2:
                continue
            both = contract(config, list(parts))
            first = contract(config, [parts[0]])
            remap = {old: new for new, old in enumerate(first.ambient_ids)}
            rest = [frozenset(remap[i] for i in p) for p in parts[1:]]
            second = contract(first.configuration, rest)
            assert second.configuration.gram == both.configuration.gram

    def test_definiteness_transfer(self):
        # inertia of the contracted matrix plus the exceptional block equals
        # the ambient inertia on strict curves + all of E
        rng = random.Random(67)
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
            for s in range(k, k + m):
                for t in range(s + 1, k + m):
                    if rng.random() < 0.3:
                        inters.append((s, t, rng.randint(0, 2)))
            config = Configuration.build(curves, inters)
            parts = config.connected_components(range(k))
            result = contract(config, list(parts))
            induced = result.configuration.gram.inertia()
            ambient = config.gram.inertia()
            # the pullbacks of the strict curves together with E form a
            # block-diagonal basis of the ambient span
            assert ambient == (induced[0], induced[1] + k, induced[2])
            assert result.configuration.gram.is_negative_definite() == (
                config.gram.is_negative_definite()
            )
            assert is_negative_semidefinite(result.configuration.gram) == (
                is_negative_semidefinite(config.gram)
            )


class TestAgainstOracle:
    """The factorised contraction against the per-pullback Gauss-Jordan
    solves and divisor pairings it replaced."""

    def test_contract_matches_oracle(self):
        rng = random.Random(71)
        for _ in range(150):
            config, exceptional, _ = random_contraction_setup(rng)
            parts = list(config.connected_components(exceptional))
            rng.shuffle(parts)
            result = contract(config, parts)
            remaining, rows, pullbacks = oracle_contract(config, exceptional)
            assert result.ambient_ids == tuple(remaining)
            assert result.configuration.gram == SymmetricMatrix(rows)
            assert result.pullbacks == tuple(pullbacks)

    def test_pullback_and_induced_product_match_oracle(self):
        rng = random.Random(73)
        for _ in range(150):
            config, exceptional, rest = random_contraction_setup(rng)
            ctx = ContractionContext(config, exceptional)
            d1, d2 = random_divisor(rng, rest), random_divisor(rng, rest)
            p1 = oracle_pullback(config, exceptional, d1)
            p2 = oracle_pullback(config, exceptional, d2)
            assert pullback(ctx, d1) == p1
            assert pullback(ctx, d2) == p2
            assert induced_product(ctx, d1, d2) == config.intersection_number(p1, p2)

    def test_unknown_node_is_refused(self):
        _, ctx = a1_setup()
        with pytest.raises(PreconditionError, match="unknown node 5"):
            pullback(ctx, Divisor({1: 1, 5: 2}))

    @pytest.mark.parametrize("node", [5, -1])
    def test_unknown_node_is_refused_when_nothing_is_contracted(self, node):
        # an empty E leaves every divisor as it is, but only a divisor on
        # the configuration: pullback refuses what induced_product refuses
        config, _ = a1_setup()
        ctx = ContractionContext(config, frozenset())
        with pytest.raises(PreconditionError, match=f"unknown node {node}"):
            pullback(ctx, Divisor({node: 1}))
        with pytest.raises(PreconditionError, match=f"unknown node {node}"):
            induced_product(ctx, Divisor({node: 1}), Divisor.of(1))
        assert pullback(ctx, Divisor({0: 2, 1: 1})) == Divisor({0: 2, 1: 1})


class TestOneFactorisation:
    @pytest.fixture
    def factorised(self, monkeypatch):
        """Indices of every L D L^T elimination made while the test runs:
        the blocks the Gram did not have in its memo."""
        calls = []
        original = SymmetricMatrix._eliminate

        def counting(matrix, indices):
            calls.append(tuple(indices))
            return original(matrix, indices)

        monkeypatch.setattr(SymmetricMatrix, "_eliminate", counting)
        return calls

    def test_each_component_once_per_contract(self, factorised):
        rng = random.Random(79)
        for _ in range(40):
            config, exceptional, _ = random_contraction_setup(rng)
            parts = config.connected_components(exceptional)
            factorised.clear()
            contract(config, parts)
            assert sorted(factorised) == sorted(config.gram.ldl(p).order for p in parts)

    def test_remembered_factors_stand_in_for_the_factorisation(self, factorised):
        # a part whose block the Gram has eliminated is read back, and the
        # others are eliminated by contract; the result is the same either way
        rng = random.Random(89)
        for _ in range(40):
            config, exceptional, _ = random_contraction_setup(rng)
            parts = config.connected_components(exceptional)
            fresh = Configuration(config.nodes, SymmetricMatrix(config.gram.rows))
            known = [rng.random() < 0.7 for _ in parts]
            for part, done in zip(parts, known):
                if done:  # any order of the part names its block
                    config.gram.negative_definite_ldl(sorted(part, reverse=True))
            factorised.clear()
            result = contract(config, parts)
            assert sorted(factorised) == sorted(
                config.gram.ldl(p).order for p, done in zip(parts, known) if not done
            )
            assert result == contract(fresh, parts)

    def test_remembered_factors_keep_the_checks(self):
        # the checks on the parts run, in their order, whatever the Gram
        # has eliminated
        config = Configuration.build(
            [("A", -2), ("B", -2), ("C", -2)], [(0, 1, 1)]
        )
        for block in ([0, 1], [0, 2], [2], [0], [1]):
            config.gram.ldl(block)
        with pytest.raises(PreconditionError, match="pairwise disjoint"):
            contract(config, [{0, 1}, {0, 1}])
        with pytest.raises(PreconditionError, match="not connected"):
            contract(config, [{0, 2}])
        with pytest.raises(PreconditionError, match="meet"):
            contract(config, [{0}, {1}])

    def test_each_component_once_per_context(self, factorised):
        rng = random.Random(83)
        for _ in range(40):
            config, exceptional, rest = random_contraction_setup(rng)
            factorised.clear()
            ctx = ContractionContext(config, exceptional)
            for _ in range(3):
                induced_product(
                    ctx, random_divisor(rng, rest), random_divisor(rng, rest)
                )
            assert sorted(factorised) == sorted(
                config.gram.ldl(p).order for p in ctx.components()
            )

    def test_a_context_after_contract_eliminates_nothing(self, factorised):
        rng = random.Random(97)
        for _ in range(20):
            config, exceptional, _ = random_contraction_setup(rng)
            contract(config, config.connected_components(exceptional))
            factorised.clear()
            ContractionContext(config, exceptional)
            assert factorised == []


class TestOneCurveFactors:
    def test_one_curve_parts_give_the_oracle_pullbacks(self):
        # disjoint one-curve parts of every negative self-intersection,
        # each met by curves of the rest: the one-curve factor is the
        # general elimination's, and contract gives what the Gauss-Jordan
        # oracle gives
        rng = random.Random(29)
        for _ in range(40):
            k = rng.randint(1, 4)
            m = rng.randint(1, 4)
            diag = [rng.choice((-1, -2, -3, Fraction(-1, 2), Fraction(-7, 3)))
                    for _ in range(k)]
            diag += [rng.choice((-2, -1, 0, 1, Fraction(1, 2))) for _ in range(m)]
            inters = [
                (e, k + r, rng.choice((1, 2, Fraction(1, 2))))
                for e in range(k) for r in range(m) if rng.random() < 0.5
            ]
            config = Configuration.build(
                [(f"N{i}", d) for i, d in enumerate(diag)], inters
            )
            parts = [[e] for e in range(k)]
            one_curve = [config.gram.ldl(part) for part in parts]
            assert one_curve == [config.gram._eliminate(part) for part in parts]
            result = contract(config, parts)
            remaining, rows, pullbacks = oracle_contract(config, frozenset(range(k)))
            assert result.ambient_ids == tuple(remaining)
            assert result.pullbacks == tuple(pullbacks)
            assert result.configuration.gram.rows == tuple(map(tuple, rows))


class TestInducedEntries:
    """-M_EE is an irreducible nonsingular M-matrix, so the pullback of a
    curve meeting a part has positive coefficients on all of it, and two
    curves that meet one part meet on the contracted surface."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_curves_meeting_one_part_meet_after_contraction(self, rng):
        config, exceptional, _ = random_contraction_setup(rng)
        parts = config.connected_components(exceptional)
        result = contract(config, parts)
        remaining, rows, pullbacks = oracle_contract(config, exceptional)
        gram = result.configuration.gram
        for a, i in enumerate(remaining):
            for b in range(a + 1, len(remaining)):
                j = remaining[b]
                if any(
                    config.neighbours(i) & part and config.neighbours(j) & part
                    for part in parts
                ):
                    assert rows[a][b] > 0
                    assert gram.entry(a, b) == rows[a][b]
        for i, pulled in zip(remaining, pullbacks):
            for part in parts:
                if config.neighbours(i) & part:
                    assert all(pulled.coefficients.get(e, 0) > 0 for e in part)


class TestUncheckedConstruction:
    """``contract`` builds its configuration, nodes and pullbacks without
    the checks of their constructors; what those checks ask still holds."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_the_checked_constructors_agree(self, rng):
        config, exceptional, _ = random_contraction_setup(rng)
        result = contract(config, config.connected_components(exceptional))
        contracted = result.configuration
        gram = contracted.gram
        assert Configuration(contracted.nodes, gram) == contracted
        assert [node.name for node in contracted.nodes] == [
            config.nodes[i].name for i in result.ambient_ids
        ]
        assert all(type(d) is Fraction for d in gram.diag)
        for i in range(gram.n):
            assert all(
                type(v) is Fraction and v > 0
                for v in gram.off_diagonal(i).values()
            )
            assert gram.off_diagonal(i) == {
                j: gram.entry(j, i) for j in gram.off_diagonal(i)
            }
        for pulled in result.pullbacks:
            coefficients = pulled.coefficients
            assert Divisor(coefficients) == pulled
            assert list(coefficients) == sorted(coefficients)
            assert all(
                type(c) is Fraction and c != 0 for c in coefficients.values()
            )


class TestContextBudget:
    def test_long_chain_with_a_curve_on_each_link(self):
        # the context factorises the chain alone and the pullback is one
        # sparse solve; a context built by contract would also form the dense
        # Schur complement on the k curves that meet the chain
        k = 2000
        config = Configuration.build(
            [(f"E{i}", -2) for i in range(k)] + [(f"C{i}", 1) for i in range(k)],
            [(i, i + 1, 1) for i in range(k - 1)] + [(i, k + i, 1) for i in range(k)],
        )
        start = time.perf_counter()
        ctx = ContractionContext(config, frozenset(range(k)))
        pulled = pullback(ctx, Divisor({k + i: 1 for i in range(k)}))
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"context and pullback took {elapsed:.2f}s"
        for i in (0, k // 2, k - 1):
            assert config.intersection_number(pulled, Divisor.of(i)) == 0
