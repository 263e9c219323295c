import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfsat import (
    Configuration,
    CurveNode,
    DataInconsistencyError,
    Divisor,
    InputError,
    PreconditionError,
    SymmetricMatrix,
)

from surfsat.saturation import CompactifiedSurface, _second_fibre_witness

from support import (
    dense_adjacent,
    dense_inertia,
    dense_restrict,
    extended_dynkin,
    oracle_components,
    oracle_second_fibre_witness,
    random_configuration,
    random_contraction_setup,
    random_negative_definite_configuration,
    tree,
)


REFUSED = "refused"


def check_witness(surface):
    """The witness, checked: the drop-one loop's answer when no inner
    component has a positive direction (read off the dense inertia of the
    inner block), else a refusal that names the Hodge index theorem, which
    forbids one beside a fibre-type boundary; ``REFUSED`` then."""
    config = surface.ambient
    inner = [
        i
        for i in sorted(surface.interior_curves)
        if not any(dense_adjacent(config, i, b) for b in surface.boundary)
    ]
    if inner and dense_inertia(SymmetricMatrix(dense_restrict(config.gram, inner)))[0]:
        with pytest.raises(DataInconsistencyError, match="Hodge index theorem"):
            _second_fibre_witness(surface, {})
        return REFUSED
    got = _second_fibre_witness(surface, {})
    assert got == oracle_second_fibre_witness(surface)
    return got


def triangle():
    # three rational curves in a cycle, each self-intersection -2
    return Configuration.build(
        [("A", -2), ("B", -2), ("C", -2)],
        [(0, 1, 1), (1, 2, 1), (0, 2, 1)],
    )


class TestComponents:
    def test_disjoint_pair(self):
        config = Configuration.build([("A", -1), ("B", 0)])
        assert config.connected_components() == (
            frozenset({0}),
            frozenset({1}),
        )

    def test_triangle_is_connected(self):
        assert triangle().connected_components() == (frozenset({0, 1, 2}),)

    def test_chain_plus_isolated(self):
        config = Configuration.build(
            [("A", -2), ("B", -2), ("C", -2)], [(0, 1, 1)]
        )
        assert config.connected_components() == (
            frozenset({0, 1}),
            frozenset({2}),
        )

    def test_subset_only(self):
        assert triangle().connected_components({0, 2}) == (frozenset({0, 2}),)

    def test_matches_union_find_oracle(self):
        rng = random.Random(23)
        for _ in range(100):
            config = random_configuration(rng, rng.randint(1, 8))
            subset = {
                i for i in range(config.n) if rng.random() < 0.7
            }
            assert (
                sorted(config.connected_components(subset), key=min)
                == oracle_components(config, subset)
            )

    def test_zero_entry_means_disjoint(self):
        config = Configuration.build([("A", -2), ("B", -2)])
        assert 1 not in config.neighbours(0)


class TestIntersectionNumber:
    def test_self_intersection(self):
        config = Configuration.build([("A", -2)])
        d = Divisor.of(0)
        assert config.intersection_number(d, d) == -2

    def test_kernel_divisor_squares_to_zero(self):
        config = Configuration.build([("A", -2), ("B", -2)], [(0, 1, 2)])
        f = Divisor({0: 1, 1: 1})
        assert config.intersection_number(f, f) == 0

    def test_zero_divisor(self):
        config = triangle()
        z = Divisor()
        assert config.intersection_number(z, Divisor.of(1)) == 0

    def test_bilinear_and_symmetric(self):
        rng = random.Random(29)
        for _ in range(50):
            config = random_configuration(rng, rng.randint(2, 6))
            def rand_div():
                return Divisor(
                    {
                        i: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for i in range(config.n)
                    }
                )
            a, b, c = rand_div(), rand_div(), rand_div()
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            assert config.intersection_number(a, b) == config.intersection_number(b, a)
            assert config.intersection_number(a + s * b, c) == (
                config.intersection_number(a, c)
                + s * config.intersection_number(b, c)
            )


class TestDivisors:
    def test_support(self):
        d = Divisor({0: 2, 1: -1})
        assert d.support() == {0, 1}

    def test_zero_divisor(self):
        z = Divisor()
        assert z.support() == frozenset()
        assert z.coefficients == {}

    def test_arithmetic_drops_zeros(self):
        d = Divisor({0: 1}) - Divisor({0: 1})
        assert d.coefficients == {}


class TestValidation:
    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(InputError):
            Configuration.build([("A", 0), ("B", 0)], [(0, 1, -1)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError):
            Configuration.build([("A", 0), ("A", 0)])

    def test_unknown_node_in_divisor(self):
        config = Configuration.build([("A", 0)])
        with pytest.raises(PreconditionError):
            config.intersection_number(Divisor.of(3), Divisor.of(0))

    def test_subset_out_of_range(self):
        with pytest.raises(PreconditionError):
            triangle().gram_on([5])


def sparse_configuration(rng, n):
    """A random configuration with about one meeting per curve, built
    through the sparse constructor with some pairs listed twice."""
    curves = [(f"C{i}", rng.randint(-3, 1)) for i in range(n)]
    inters = []
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        inters.append((i, j, rng.choice((1, 2, Fraction(1, 2)))))
    if inters and rng.random() < 0.5:
        i, j, _ = rng.choice(inters)
        inters.append((j, i, 0))  # the later zero removes the meeting
    return Configuration.build(curves, inters)


class TestNeighbourQueries:
    """Graph and block queries walk the Gram's sparse rows; the dense Gram
    rows are the oracle."""

    def configurations(self, seed, count):
        rng = random.Random(seed)
        for k in range(count):
            if k % 3 == 0:
                config = random_configuration(rng, rng.randint(1, 9))
            elif k % 3 == 1:
                config = sparse_configuration(rng, rng.randint(2, 30))
            else:
                config = random_contraction_setup(rng)[0]
            yield rng, config

    def test_components_match_union_find(self):
        for rng, config in self.configurations(101, 150):
            subset = {i for i in range(config.n) if rng.random() < 0.7}
            assert list(config.connected_components(subset)) == oracle_components(
                config, subset
            )
            assert list(config.connected_components()) == oracle_components(
                config, range(config.n)
            )

    def test_adjacent_matches_dense_rows(self):
        for _, config in self.configurations(103, 90):
            for i in range(config.n):
                for j in range(config.n):
                    assert (j in config.neighbours(i)) == dense_adjacent(config, i, j)
                assert config.neighbours(i) == {
                    j for j in range(config.n) if dense_adjacent(config, i, j)
                }

    def test_the_graph_is_read_off_the_gram(self):
        # no second adjacency: a configuration keeps its nodes and its Gram,
        # and a curve's neighbours are the key view of its Gram row
        assert Configuration.__slots__ == ("_nodes", "_gram")
        config = Configuration.build([("A", -2), ("B", -2), ("C", -1)], [(0, 1, 1)])
        assert config.neighbours(0) == config.gram.support(0) == {1}
        assert not hasattr(config.neighbours(0), "add")

    def test_gram_on_matches_dense_rows(self):
        for rng, config in self.configurations(109, 150):
            subset = sorted(i for i in range(config.n) if rng.random() < 0.6)
            assert config.gram_on(subset).rows == dense_restrict(config.gram, subset)

    def test_second_fibre_witness_matches_drop_one_loop(self):
        rng = random.Random(113)
        for k in range(200):
            n = rng.randint(1, 9)
            # about half with an all-negative diagonal, so the inner block
            # is often negative definite and the shortcut decides
            hi = -1 if k % 2 else 2
            config = random_configuration(rng, n, diag_lo=-5, diag_hi=hi, edge_hi=1)
            boundary = {i for i in range(n) if rng.random() < 0.3}
            surface = CompactifiedSurface(ambient=config, boundary=boundary)
            check_witness(surface)

    @staticmethod
    def around_fibres(rng, fibres):
        """The fibre-type configurations ``fibres`` as inner curves, beside
        a few random curves of which about half are boundary; the others
        may meet the fibres, which then stop being of fibre type.  Node ids
        are shuffled, so the fibres' last nodes vary."""
        curves, inters = [], []
        for fibre in fibres:
            base = len(curves)
            curves += [
                (f"F{base + i}", fibre.gram.entry(i, i)) for i in range(fibre.n)
            ]
            inters += [
                (base + i, base + j, x)
                for i in range(fibre.n)
                for j, x in fibre.gram.off_diagonal(i).items()
                if i < j
            ]
        k = len(curves)
        extra = rng.randint(1, 4)
        boundary = {k + e for e in range(extra) if rng.random() < 0.5}
        for e in range(extra):
            curves.append((f"X{e}", rng.randint(-3, 1)))
            for f in range(e):
                if rng.random() < 0.4:
                    inters.append((k + f, k + e, 1))
            if k + e not in boundary and rng.random() < 0.3:
                inters.append((rng.randrange(k), k + e, rng.randint(1, 2)))
        order = list(range(len(curves)))
        rng.shuffle(order)
        new_id = {old: new for new, old in enumerate(order)}
        config = Configuration.build(
            [curves[old] for old in order],
            [(new_id[i], new_id[j], x) for i, j, x in inters],
        )
        return CompactifiedSurface(
            ambient=config, boundary={new_id[b] for b in boundary}
        )

    def test_second_fibre_witness_on_inner_fibres(self):
        # inner sets of fibre type (extended ADE shapes, cycles), two
        # disjoint fibres (disconnected, so the drop-one loop decides), and
        # fibres met by a further inner curve
        rng = random.Random(127)
        shapes = extended_dynkin() + [tree((1, 1, 1, 1))]
        witnessed = 0
        for _ in range(150):
            fibres = rng.sample(shapes, rng.choice((1, 1, 2)))
            got = check_witness(self.around_fibres(rng, fibres))
            witnessed += got not in (None, REFUSED)
        assert 30 < witnessed < 120

    def test_second_fibre_witness_on_disconnected_inner_sets(self):
        # one to four inner blocks, each negative definite, of fibre type or
        # random, beside a boundary curve that meets none of them; the
        # package decides per component, the oracle drops every inner curve
        rng = random.Random(131)
        shapes = extended_dynkin() + [tree((1, 1, 1, 1))]
        cases = Counter()
        for _ in range(400):
            blocks = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.randrange(3)
                if kind == 0:
                    blocks.append(rng.choice(shapes))
                elif kind == 1:
                    blocks.append(
                        random_negative_definite_configuration(rng, rng.randint(1, 4))
                    )
                else:
                    blocks.append(
                        random_configuration(
                            rng, rng.randint(1, 5), diag_lo=-2, diag_hi=1, edge_hi=1
                        )
                    )
            curves, inters = [("B", 0, 1)], []
            for block in blocks:
                base = len(curves)
                curves += [
                    (f"N{base + i}", block.gram.entry(i, i)) for i in range(block.n)
                ]
                inters += [
                    (base + i, base + j, x)
                    for i in range(block.n)
                    for j, x in block.gram.off_diagonal(i).items()
                    if i < j
                ]
            order = list(range(len(curves)))
            rng.shuffle(order)
            new_id = {old: new for new, old in enumerate(order)}
            config = Configuration.build(
                [curves[old] for old in order],
                [(new_id[i], new_id[j], x) for i, j, x in inters],
            )
            surface = CompactifiedSurface(ambient=config, boundary={new_id[0]})
            got = check_witness(surface)
            inner = sorted(set(range(config.n)) - {new_id[0]})
            loose = [
                dense_inertia(SymmetricMatrix(dense_restrict(config.gram, sorted(c))))
                for c in oracle_components(config, inner)
            ]
            loose = [(p, z) for p, m, z in loose if p or z]
            if got is REFUSED:
                cases[REFUSED] += 1
            elif len(loose) == 1:
                cases[loose[0] + (got is not None,)] += 1
            else:
                cases[min(len(loose), 2)] += 1
        # a positive direction; no, or two or more components that are not
        # negative definite; or one, of fibre type, with and without a
        # further inner curve to drop
        assert {REFUSED, 0, 2, (0, 1, False), (0, 1, True)} == set(cases), cases


def positive_direction_surface(rng):
    """Inner components with a positive direction, mostly of inertia
    (1, m-1, 0), beside a boundary curve that meets none of them: cycles
    with raised self-intersections, a 0-curve on a chain (a vanishing
    leading minor when it sorts first) and random trees, sometimes two
    components.  Node ids are shuffled."""
    curves, inters = [("B", 0)], []
    for _ in range(rng.choice((1, 1, 1, 2))):
        m = rng.randint(2, 8)
        kind = rng.randrange(3)
        if kind == 0:
            diag = [Fraction(-2)] * m
            raise_by = (Fraction(1, m * m), Fraction(1, 4), Fraction(1, 2), 1)
            for i in rng.sample(range(m), rng.randint(1, 2)):
                diag[i] += rng.choice(raise_by)
            edges = {(i, (i + 1) % m) for i in range(m)} if m > 2 else {(0, 1)}
        elif kind == 1:
            diag = [Fraction(0)] + [Fraction(rng.choice((-3, -2, -1))) for _ in range(m - 1)]
            edges = {(i, i + 1) for i in range(m - 1)}
        else:
            diag = [Fraction(rng.randint(-4, 1), rng.randint(1, 2)) for _ in range(m)]
            edges = {(rng.randrange(i), i) for i in range(1, m)}
        base = len(curves)
        curves += [(f"N{base + i}", d) for i, d in enumerate(diag)]
        inters += [(base + i, base + j, 1) for i, j in sorted(edges)]
    order = list(range(len(curves)))
    rng.shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    config = Configuration.build(
        [curves[old] for old in order],
        [(new_id[i], new_id[j], x) for i, j, x in inters],
    )
    return CompactifiedSurface(ambient=config, boundary={new_id[0]})


class TestWitnessFromTheFactor:
    """An inner component with a positive direction beside a fibre-type
    boundary is refused (Hodge index theorem), from the inertia of the
    component's one factor; the draws without one match the drop-one
    loop."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_refuses_a_positive_direction(self, rng):
        check_witness(positive_direction_surface(rng))

    def test_the_refusal_keeps_no_sub_block_factor(self):
        # the Gram keeps the factors of whole inner components only (the
        # per-curve blocks of the former drop-one fallback are gone), and a
        # second run adds none
        rng = random.Random(151)
        refused = 0
        for _ in range(400):
            surface = positive_direction_surface(rng)
            gram = surface.ambient.gram
            inner = sorted(set(range(surface.ambient.n)) - surface.boundary)
            blocks = set(surface.ambient.connected_components(inner))
            got = check_witness(surface)
            kept = set(gram._factors)
            assert kept <= blocks
            assert check_witness(surface) == got
            assert set(gram._factors) == kept
            refused += got is REFUSED
        assert 300 < refused < 400


class TestValidationMessages:
    def test_first_negative_pair_in_row_major_order(self):
        curves = [("A", 0), ("B", 0), ("C", 0), ("D", 0)]
        inters = [(2, 3, -3), (1, 3, -1), (0, 1, 1), (3, 0, -2), (2, 0, -1)]
        expected = "distinct curves 'A' and 'C' have negative intersection -1"
        with pytest.raises(InputError) as info:
            Configuration.build(curves, inters)
        assert str(info.value) == expected
        rows = [[0, 1, -1, -2], [1, 0, 0, -1], [-1, 0, 0, -3], [-2, -1, -3, 0]]
        nodes = [CurveNode(i, name) for i, (name, _) in enumerate(curves)]
        with pytest.raises(InputError) as info:
            Configuration(nodes, SymmetricMatrix(rows))
        assert str(info.value) == expected
