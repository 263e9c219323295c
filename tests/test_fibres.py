import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from surfsat import (
    Configuration,
    Divisor,
    FalseFibreClaim,
    FibreVerdict,
    NormalBundleNonTorsion,
    PreconditionError,
    SymmetricMatrix,
    UserAsserted,
    classify_fibre_type,
    validate_false_fibre_claims,
    validate_zariski,
)
from surfsat.linalg import LDL
from surfsat.schema import parse_document

from support import (
    cycle,
    d_tilde,
    dense_inertia,
    extended_dynkin,
    oracle_classify_connected,
    oracle_classify_fibre_type,
    oracle_disjoint_triple,
    oracle_validate_zariski,
    random_configuration,
    tree,
    windmill_claims_document,
)


class TestClassify:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_cycles_are_fibre_type_with_all_ones_kernel(self, k):
        config = cycle(k)
        report = classify_fibre_type(config, range(k))
        assert report.verdict is FibreVerdict.FIBRE_TYPE
        assert report.kernel == Divisor({i: 1 for i in range(k)})

    def test_single_zero_curve(self):
        report = classify_fibre_type(cycle(1), {0})
        assert report.verdict is FibreVerdict.FIBRE_TYPE
        assert report.kernel == Divisor({0: 1})

    def test_minus_one_curve(self):
        config = Configuration.build([("E", -1)])
        report = classify_fibre_type(config, {0})
        assert report.verdict is FibreVerdict.NEGATIVE_DEFINITE
        assert report.kernel is None

    def test_plus_one_curve(self):
        config = Configuration.build([("H", 1)])
        assert (
            classify_fibre_type(config, {0}).verdict
            is FibreVerdict.NOT_SEMIDEFINITE
        )

    def test_disconnected(self):
        config = Configuration.build([("A", 0), ("B", 0)])
        assert (
            classify_fibre_type(config, {0, 1}).verdict
            is FibreVerdict.DISCONNECTED
        )

    def test_empty_subject_rejected(self):
        with pytest.raises(PreconditionError):
            classify_fibre_type(cycle(3), set())

    def test_improper_node_rejected(self):
        from surfsat import CurveNode, SymmetricMatrix

        config = Configuration(
            [CurveNode(0, "A", proper=False)], SymmetricMatrix([[0]])
        )
        with pytest.raises(PreconditionError):
            classify_fibre_type(config, {0})

    @pytest.mark.parametrize("subject", [[5], [-1], [0, 3]])
    def test_curve_outside_the_configuration_rejected(self, subject):
        # [5] raised a bare IndexError, and [-1] wrapped to the improper
        # last curve and blamed it
        from surfsat import CurveNode

        config = Configuration(
            [CurveNode(0, "A"), CurveNode(1, "B"), CurveNode(2, "F", proper=False)],
            SymmetricMatrix.from_entries([-2, -2, 0], [(0, 1, 1)]),
        )
        bad = [i for i in subject if not 0 <= i < 3][0]
        with pytest.raises(PreconditionError) as info:
            classify_fibre_type(config, subject)
        assert str(info.value) == f"node {bad} is not in the configuration"

    def test_multiple_fibre_kernel(self):
        config = Configuration.build(
            [("A", -2), ("B", -8)], [(0, 1, 4)]
        )
        report = classify_fibre_type(config, {0, 1})
        assert report.verdict is FibreVerdict.FIBRE_TYPE
        assert report.kernel == Divisor({0: 2, 1: 1})

    def test_star_shape_kernel_has_multiplicity_two_centre(self):
        # central (-2)-curve with four (-2)-legs: kernel (2,1,1,1,1)
        config = Configuration.build(
            [("Z", -2)] + [(f"T{i}", -2) for i in range(4)],
            [(0, i, 1) for i in range(1, 5)],
        )
        report = classify_fibre_type(config, range(5))
        assert report.verdict is FibreVerdict.FIBRE_TYPE
        assert report.kernel == Divisor({0: 2, 1: 1, 2: 1, 3: 1, 4: 1})
        assert validate_zariski(config, range(5)).status == "ok"


class TestZariski:
    def test_triangle_ok(self):
        assert validate_zariski(cycle(3), range(3)).status == "ok"

    def test_five_cycle_ok(self):
        assert validate_zariski(cycle(5), range(5)).status == "ok"

    def test_disconnected_reported(self):
        config = Configuration.build([("A", 0), ("B", 0)])
        report = validate_zariski(config, {0, 1})
        assert report.status == "violations"
        assert report.violations[0].kind == "disconnected"

    def test_large_subject_ok(self):
        config = cycle(17)
        report = validate_zariski(config, range(17))
        assert report.status == "ok"
        assert report.violations == ()


class TestZariskiOracle:
    """The kernel certificate agrees with the exhaustive enumeration."""

    def agree(self, config, subject):
        assert validate_zariski(config, subject) == oracle_validate_zariski(
            config, subject
        )

    @pytest.mark.parametrize("k", range(2, 11))
    def test_cycles(self, k):
        self.agree(cycle(k), range(k))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_d_tilde(self, n):
        config = d_tilde(n)
        assert classify_fibre_type(config, range(n + 1)).verdict is (
            FibreVerdict.FIBRE_TYPE
        )
        self.agree(config, range(n + 1))

    @pytest.mark.parametrize("arms", [(2, 2, 2), (3, 3, 1), (5, 2, 1)])
    def test_e_tilde(self, arms):
        config = tree(arms)
        assert classify_fibre_type(config, range(config.n)).verdict is (
            FibreVerdict.FIBRE_TYPE
        )
        self.agree(config, range(config.n))

    def test_zero_curve(self):
        self.agree(cycle(1), {0})

    @pytest.mark.parametrize(
        "params",
        [
            dict(diag_lo=-2, diag_hi=-2, edge_hi=1),
            dict(diag_lo=-4, diag_hi=0, edge_hi=2),
        ],
    )
    def test_random_connected_subjects(self, params):
        rng = random.Random(83)
        sizes = []
        for _ in range(30):
            n = rng.randint(4, 10)
            config = random_configuration(rng, n, **params)
            for size in range(1, n + 1):
                for subject in itertools.combinations(range(n), size):
                    if not config.is_connected(subject):
                        continue
                    report = classify_fibre_type(config, subject)
                    if report.verdict is FibreVerdict.FIBRE_TYPE:
                        sizes.append(size)
                        self.agree(config, subject)
        assert len(sizes) >= 40 and max(sizes) >= 4


class TestClaims:
    def ruled_config(self):
        # two disjoint sections of self-intersection zero on a ruled surface
        return Configuration.build([("D1", 0), ("D2", 0)])

    def test_two_disjoint_claims_ok(self):
        config = self.ruled_config()
        claims = [
            FalseFibreClaim(frozenset({0}), NormalBundleNonTorsion()),
            FalseFibreClaim(frozenset({1}), NormalBundleNonTorsion()),
        ]
        assert validate_false_fibre_claims(claims, config).ok

    def test_three_pairwise_disjoint_rejected(self):
        config = Configuration.build([("D1", 0), ("D2", 0), ("D3", 0)])
        claims = [
            FalseFibreClaim(frozenset({i}), UserAsserted()) for i in range(3)
        ]
        report = validate_false_fibre_claims(claims, config)
        assert not report.ok
        assert {min(c.subject) for c in report.disjoint_triple} == {0, 1, 2}

    def test_single_claim_ok(self):
        config = self.ruled_config()
        claims = [FalseFibreClaim(frozenset({0}), UserAsserted())]
        assert validate_false_fibre_claims(claims, config).ok

    def test_three_claims_with_meeting_pair_ok(self):
        config = Configuration.build(
            [("D1", 0), ("D2", 0), ("X1", -2), ("X2", -2)],
            [(2, 3, 2)],
        )
        claims = [
            FalseFibreClaim(frozenset({0}), UserAsserted()),
            FalseFibreClaim(frozenset({1}), UserAsserted()),
            FalseFibreClaim(frozenset({2, 3}), UserAsserted()),
        ]
        # the third subject is disjoint from the first two, so this is still
        # a disjoint triple and must be rejected
        report = validate_false_fibre_claims(claims, config)
        assert not report.ok

    def test_claim_on_non_fibre_type_rejected(self):
        config = Configuration.build([("E", -1)])
        with pytest.raises(PreconditionError):
            validate_false_fibre_claims(
                [FalseFibreClaim(frozenset({0}), UserAsserted())], config
            )

    def test_duplicate_subjects_count_once(self):
        config = Configuration.build([("D1", 0), ("D2", 0), ("D3", 0)])
        claims = [
            FalseFibreClaim(frozenset({0}), UserAsserted()),
            FalseFibreClaim(frozenset({0}), NormalBundleNonTorsion()),
            FalseFibreClaim(frozenset({1}), UserAsserted()),
        ]
        assert validate_false_fibre_claims(claims, config).ok


def claims_setup(rng):
    """Fibre-type subjects with random meetings between them: 0-curves,
    cycles of (-2)-curves and (-2)-triangles sharing a hub curve of an
    earlier subject, each claimed once or twice, in a shuffled order."""
    curves, meets, subjects = [], {}, []

    def curve(self_int):
        curves.append((f"C{len(curves)}", self_int))
        return len(curves) - 1

    for _ in range(rng.randint(3, 12)):
        kind = rng.choice(("zero", "cycle", "triangle"))
        hubs = [s[0] for s in subjects if len(s) > 1]
        if kind == "zero":
            subjects.append([curve(0)])
            continue
        if kind == "triangle" and hubs:
            ids = [rng.choice(hubs), curve(-2), curve(-2)]
        else:
            ids = [curve(-2) for _ in range(rng.randint(3, 5))]
        for a, b in zip(ids, ids[1:] + ids[:1]):
            meets[min(a, b), max(a, b)] = 1
        subjects.append(ids)
    for _ in range(rng.randint(0, 3 * len(subjects))):
        s, t = rng.sample(subjects, 2)
        a, b = rng.choice(s), rng.choice(t)
        # a new meeting inside a subject would end its fibre type
        if not any({a, b} <= set(u) for u in subjects):
            meets[min(a, b), max(a, b)] = rng.randint(1, 2)
    config = Configuration.build(
        curves, [(a, b, x) for (a, b), x in meets.items()]
    )
    claims = [
        FalseFibreClaim(frozenset(ids), UserAsserted())
        for ids in subjects
        for _ in range(rng.choice((1, 1, 2)))
    ]
    rng.shuffle(claims)
    return config, claims


class TestClaimsAgainstOracle:
    """The claims check against the enumeration of every triple it
    replaced, kept as an oracle."""

    def test_first_disjoint_triple(self):
        rng = random.Random(163)
        found = 0
        for _ in range(300):
            config, claims = claims_setup(rng)
            report = validate_false_fibre_claims(claims, config)
            expected = oracle_disjoint_triple(claims, config)
            assert report.disjoint_triple == expected
            assert report.ok == (expected is None)
            found += expected is not None
        assert 50 < found < 250

    @pytest.mark.parametrize("hubs", [1, 2, 3, 4])
    def test_triangles_through_hubs(self, hubs):
        surface = parse_document(windmill_claims_document(40, hubs)).surface
        claims, config = surface.false_fibre_claims, surface.ambient
        report = validate_false_fibre_claims(claims, config)
        assert report.disjoint_triple == oracle_disjoint_triple(claims, config)
        assert report.ok == (hubs < 3)


def relabel(config, order):
    """The same configuration with old node ``order[k]`` as new node k."""
    new_id = {old: new for new, old in enumerate(order)}
    curves = [
        (config.nodes[old].name, config.gram.entry(old, old), config.nodes[old].genus)
        for old in order
    ]
    inters = [
        (new_id[i], new_id[j], x)
        for i in range(config.n)
        for j, x in config.gram.off_diagonal(i).items()
        if i < j
    ]
    return Configuration.build(curves, inters)


def weighted_fibre(rng, k, extra_edges=0):
    """A connected rational configuration of fibre type with a chosen
    positive kernel vector v: random rational meetings along a random
    tree plus ``extra_edges`` more, and self-intersections
    -sum_j m_ij v_j / v_i, so M v = 0.  Returns (configuration, v)."""
    v = [rng.randint(1, 4) for _ in range(k)]
    edges = {}
    for i in range(1, k):
        edges[(rng.randrange(i), i)] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    for _ in range(extra_edges if k > 2 else 0):
        i, j = sorted(rng.sample(range(k), 2))
        edges[(i, j)] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    row = [Fraction(0)] * k
    for (i, j), m in edges.items():
        row[i] += m * v[j]
        row[j] += m * v[i]
    curves = [(f"W{i}", -row[i] / v[i]) for i in range(k)]
    return Configuration.build(curves, [(i, j, m) for (i, j), m in edges.items()]), v


def random_rational_configuration(rng, n):
    """Random dual graph with fractional self-intersections and meetings."""
    curves = [
        (f"Q{i}", Fraction(rng.randint(-9, 3), rng.randint(1, 3))) for i in range(n)
    ]
    inters = [
        (i, j, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    return Configuration.build(curves, inters)


class TestClassifyAgainstOracle:
    """One elimination of the subject against the dense inertia and the
    Gauss-Jordan kernel, and against the L D L^T of all but the last node
    and the Schur scalar that it replaced."""

    def agree(self, config, subject):
        report = classify_fibre_type(config, subject)
        verdict, kernel, dimension = oracle_classify_fibre_type(config, subject)
        assert report.verdict is verdict
        if verdict is FibreVerdict.FIBRE_TYPE:
            # Perron-Frobenius: a line spanned by a positive vector
            assert dimension == 1 and all(c > 0 for c in kernel)
            nodes = sorted(set(subject))
            assert report.kernel == Divisor(dict(zip(nodes, kernel)))
        else:
            assert report.kernel is None
        return verdict

    def test_every_connected_subject_of_random_configurations(self):
        rng = random.Random(101)
        seen = set()
        for _ in range(60):
            n = rng.randint(1, 7)
            params = rng.choice(
                (dict(), dict(diag_lo=-2, diag_hi=-2, edge_hi=1),
                 dict(diag_lo=-4, diag_hi=0, edge_hi=2))
            )
            config = random_configuration(rng, n, **params)
            for size in range(1, n + 1):
                for subject in itertools.combinations(range(n), size):
                    if config.is_connected(subject):
                        seen.add(self.agree(config, subject))
        assert seen == {
            FibreVerdict.FIBRE_TYPE,
            FibreVerdict.NEGATIVE_DEFINITE,
            FibreVerdict.NOT_SEMIDEFINITE,
        }

    def test_positive_count_and_schur_scalar_on_every_subject(self):
        rng = random.Random(139)
        positives = set()
        for k in range(80):
            n = rng.randint(1, 7)
            if k % 4 == 3:
                config = random_rational_configuration(rng, n)
            else:
                config = random_configuration(rng, n, diag_hi=rng.choice((-1, 1, 3)))
            for size in range(1, n + 1):
                for subject in itertools.combinations(range(n), size):
                    report = classify_fibre_type(config, subject)
                    if not config.is_connected(subject):
                        assert report.positive is None
                        continue
                    plus = dense_inertia(config.gram_on(subject))[0]
                    assert report.positive == plus
                    assert report == oracle_classify_connected(config, list(subject))
                    positives.add(plus)
        assert {0, 1, 2, 3} <= positives

    def test_rational_grams(self):
        rng = random.Random(103)
        seen = []
        for _ in range(150):
            config = random_rational_configuration(rng, rng.randint(1, 6))
            seen.append(self.agree(config, range(config.n)))
        for _ in range(150):
            k = rng.randint(1, 9)
            config, v = weighted_fibre(rng, k, extra_edges=rng.randint(0, 3))
            assert self.agree(config, range(k)) is FibreVerdict.FIBRE_TYPE
            # a nudge of one self-intersection leaves fibre type either way
            i = rng.randrange(k)
            for delta in (Fraction(-1, 7), Fraction(1, 7)):
                curves = [
                    (f"W{j}", config.gram.entry(j, j) + (delta if j == i else 0))
                    for j in range(k)
                ]
                inters = [
                    (a, b, x)
                    for a in range(k)
                    for b, x in config.gram.off_diagonal(a).items()
                    if a < b
                ]
                seen.append(self.agree(Configuration.build(curves, inters), range(k)))
        assert FibreVerdict.NEGATIVE_DEFINITE in seen
        assert FibreVerdict.NOT_SEMIDEFINITE in seen

    def test_kernel_multiplicities_of_weighted_fibres(self):
        rng = random.Random(107)
        for _ in range(50):
            k = rng.randint(2, 8)
            config, v = weighted_fibre(rng, k)
            report = classify_fibre_type(config, range(k))
            g = 0
            for x in v:
                g = gcd(g, x)
            assert report.kernel == Divisor({i: x // g for i, x in enumerate(v)})

    @pytest.mark.parametrize("self_int", [-3, Fraction(-1, 2), 0, Fraction(1, 3), 2])
    def test_single_curves(self, self_int):
        config = Configuration.build([("C", self_int, 1)])
        verdict = self.agree(config, {0})
        assert verdict is (
            FibreVerdict.NEGATIVE_DEFINITE if self_int < 0
            else FibreVerdict.FIBRE_TYPE if self_int == 0
            else FibreVerdict.NOT_SEMIDEFINITE
        )

    def test_disconnected_subjects(self):
        rng = random.Random(109)
        disconnected = 0
        for _ in range(40):
            n = rng.randint(2, 7)
            config = random_configuration(rng, n)
            for size in range(2, n + 1):
                for subject in itertools.combinations(range(n), size):
                    if not config.is_connected(subject):
                        disconnected += 1
                        assert self.agree(config, subject) is FibreVerdict.DISCONNECTED
        assert disconnected > 100

    @pytest.mark.parametrize("shape", range(len(extended_dynkin())))
    def test_extended_dynkin_with_every_last_node(self, shape):
        config = extended_dynkin()[shape]
        rng = random.Random(shape)
        for last in range(config.n):
            others = [i for i in range(config.n) if i != last]
            rng.shuffle(others)
            shuffled = relabel(config, others + [last])
            assert self.agree(shuffled, range(config.n)) is FibreVerdict.FIBRE_TYPE
            # dropping a curve leaves a negative definite Dynkin diagram
            if config.n > 1:
                for drop in range(config.n):
                    rest = [i for i in range(config.n) if i != drop]
                    if shuffled.is_connected(rest):
                        assert self.agree(shuffled, rest) is (
                            FibreVerdict.NEGATIVE_DEFINITE
                        )


class TestClassifyCost:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Eliminations (the blocks not in the Gram's memo), the solves and
        the dense view."""
        calls = {
            "eliminate": 0, "inertia": 0, "kernel_basis": 0, "solve": 0,
            "rows": 0, "ldl_solve": 0,
        }
        eliminate = SymmetricMatrix._eliminate
        ldl_solve = LDL.solve
        rows = SymmetricMatrix.rows

        def counting_eliminate(matrix, indices):
            calls["eliminate"] += 1
            return eliminate(matrix, indices)

        def counting_ldl_solve(factor, rhs):
            calls["ldl_solve"] += 1
            return ldl_solve(factor, rhs)

        def counting(name):
            original = getattr(SymmetricMatrix, name)

            def wrapper(matrix, *args):
                calls[name] += 1
                return original(matrix, *args)

            return wrapper

        def counting_rows(matrix):
            calls["rows"] += 1
            return rows.fget(matrix)

        monkeypatch.setattr(SymmetricMatrix, "_eliminate", counting_eliminate)
        monkeypatch.setattr(LDL, "solve", counting_ldl_solve)
        for name in ("inertia", "kernel_basis", "solve"):
            monkeypatch.setattr(SymmetricMatrix, name, counting(name))
        monkeypatch.setattr(SymmetricMatrix, "rows", property(counting_rows))
        return calls

    def test_one_factorisation_and_no_dense_work(self, counts):
        rng = random.Random(113)
        configs = extended_dynkin() + [
            random_configuration(rng, rng.randint(1, 7)) for _ in range(40)
        ]
        for config in configs:
            for comp in config.connected_components(range(config.n)):
                for key in counts:
                    counts[key] = 0
                classify_fibre_type(config, comp)
                assert counts == {
                    "eliminate": 1, "inertia": 0, "kernel_basis": 0, "solve": 0,
                    "rows": 0, "ldl_solve": 0,
                }

    def test_long_cycle_under_budget(self):
        # the dense inertia and Gauss-Jordan kernel took minutes here
        k = 1000
        config = cycle(k)
        start = time.perf_counter()
        report = classify_fibre_type(config, range(k))
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"classifying a cycle of {k} took {elapsed:.2f}s"
        assert report.verdict is FibreVerdict.FIBRE_TYPE
        assert report.kernel == Divisor({i: 1 for i in range(k)})
