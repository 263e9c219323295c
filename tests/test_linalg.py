import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfsat import InputError, SymmetricMatrix, as_rational

from surfsat.linalg import _primitive_integral

from support import (
    dense_inertia,
    dense_restrict,
    diagonal,
    ldl_diag,
    ldl_lower,
    oracle_inertia_charpoly,
    oracle_inertia_leading_minors,
    oracle_negative_definite_fast,
    oracle_kernel_basis,
    oracle_ldl,
    oracle_ldl_solve,
    oracle_negative_definite_ldl,
    oracle_null_vector,
    oracle_negative_semidefinite,
    oracle_solve,
    oracle_square_solve,
    random_negative_definite_configuration,
    random_symmetric_int,
    random_symmetric_rational,
)


class TestSolve:
    def test_one_by_one(self):
        assert SymmetricMatrix([[2]]).solve([1]) == (Fraction(1, 2),)

    def test_hand_elimination(self):
        x = SymmetricMatrix([[-2, 1], [1, -2]]).solve([-1, 0])
        assert x == (Fraction(2, 3), Fraction(1, 3))

    def test_no_solution_for_zero_map(self):
        assert SymmetricMatrix([[0]]).solve([1]) is None

    def test_substitute_back(self):
        m = SymmetricMatrix([[-2, 1], [1, -2]])
        x = m.solve([-1, 0])
        assert m.apply(x) == (Fraction(-1), Fraction(0))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            SymmetricMatrix([[1]]).solve([1, 2])

    def test_underdetermined_is_orthogonal_to_kernel(self):
        m = SymmetricMatrix([[-2, 2], [2, -2]])
        x = m.solve([2, -2])
        assert x is not None
        assert m.apply(x) == (Fraction(2), Fraction(-2))
        for v in m.kernel_basis():
            assert sum(c * vi for c, vi in zip(x, v)) == 0

    def test_rank_one_with_two_dimensional_kernel(self):
        m = diagonal([0, 0, 2])
        assert m.solve([0, 0, 5]) == (0, 0, Fraction(5, 2))
        assert m.solve([1, 0, 0]) is None
        assert diagonal([0, 0, 0]).solve([0, 0, 0]) == (0, 0, 0)

    def test_canonical_solution_is_input_independent(self):
        # both right-hand sides lie in the column space; the canonical
        # representative must not depend on elimination order quirks
        m = SymmetricMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
        x = m.solve([3, 3, 0])
        assert x == (Fraction(3, 2), Fraction(3, 2), 0)


class TestKernel:
    def test_rank_one_semidefinite(self):
        assert SymmetricMatrix([[-2, 2], [2, -2]]).kernel_basis() == ((1, 1),)

    def test_cycle_of_three(self):
        m = SymmetricMatrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
        assert m.kernel_basis() == ((1, 1, 1),)

    def test_nonsingular_has_empty_kernel(self):
        assert SymmetricMatrix([[1]]).kernel_basis() == ()

    def test_primitive_normalisation(self):
        # kernel spanned by (2/3, 1) -> primitive integral (2, 3)
        m = SymmetricMatrix([[9, -6], [-6, 4]])
        assert m.kernel_basis() == ((2, 3),)


class TestInertia:
    def test_diagonal(self):
        assert diagonal([1, -1, -1]).inertia() == (1, 2, 0)

    def test_semidefinite_pair(self):
        assert SymmetricMatrix([[-2, 2], [2, -2]]).inertia() == (0, 1, 1)

    def test_hyperbolic_block(self):
        assert SymmetricMatrix([[0, 1], [1, 0]]).inertia() == (1, 1, 0)

    def test_zero_matrix(self):
        assert SymmetricMatrix([[0, 0], [0, 0]]).inertia() == (0, 0, 2)

    def test_empty(self):
        m = SymmetricMatrix([])
        assert m.inertia() == (0, 0, 0)
        assert m.is_negative_definite()
        assert m.inertia()[0] == 0


class TestInertiaBudget:
    """Taking rows in index order keeps a chain's elimination linear; a
    scan for the largest remaining diagonal entry made it quadratic."""

    @staticmethod
    def chain(n, self_int):
        return SymmetricMatrix.from_entries(
            [self_int] * n, [(i, i + 1, 1) for i in range(n - 1)]
        )

    @pytest.mark.parametrize(
        "self_int, expected", [(1, (1333, 666, 1)), (0, (1000, 1000, 0))]
    )
    def test_2000_node_chain_under_budget(self, self_int, expected):
        # eigenvalues self_int + 2 cos(k pi / 2001), k = 1..2000
        m = self.chain(2000, self_int)
        start = time.perf_counter()
        got = m.inertia()
        elapsed = time.perf_counter() - start
        assert got == expected
        assert elapsed < 0.2, f"inertia took {elapsed:.2f}s"


class TestDefiniteness:
    def test_single_negative(self):
        m = SymmetricMatrix([[-1]])
        assert m.is_negative_definite()
        assert m.inertia()[0] == 0

    def test_semidefinite_not_definite(self):
        m = SymmetricMatrix([[-2, 2], [2, -2]])
        assert not m.is_negative_definite()
        assert m.inertia()[0] == 0

    def test_positive(self):
        m = SymmetricMatrix([[1]])
        assert not m.is_negative_definite()
        assert m.inertia()[0] > 0


class TestOracleAgreement:
    def test_inertia_matches_minor_oracles_small_int(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 4)
            m = random_symmetric_int(rng, n)
            got = m.inertia()
            assert got == oracle_inertia_charpoly(m)
            jacobi = oracle_inertia_leading_minors(m)
            if jacobi is not None:
                assert got == jacobi

    def test_inertia_matches_charpoly_oracle_rational(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(1, 6)
            m = random_symmetric_rational(rng, n)
            assert m.inertia() == oracle_inertia_charpoly(m)

    def test_inertia_matches_dense_oracle_zero_diagonal_heavy(self):
        # mostly zero diagonals, so rows pivot on a neighbour or on the
        # hyperbolic block; the dense elimination pivots on the largest
        # diagonal entry instead, and the counts must not care
        rng = random.Random(23)
        for _ in range(600):
            n = rng.randint(1, 8)
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                if rng.random() < 0.3:
                    rows[i][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        value = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        rows[i][j] = rows[j][i] = value
            m = SymmetricMatrix(rows)
            assert m.inertia() == dense_inertia(m)
            if n <= 4:
                assert m.inertia() == oracle_inertia_charpoly(m)

    def test_semidefiniteness_matches_principal_minor_oracle(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = random_symmetric_int(rng, n)
            assert (m.inertia()[0] == 0) == oracle_negative_semidefinite(m)

    def test_kernel_count_matches_inertia_and_annihilates(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 6)
            m = random_symmetric_int(rng, n)
            basis = m.kernel_basis()
            assert len(basis) == m.inertia()[2]
            for v in basis:
                assert all(x == 0 for x in m.apply(v))
                from math import gcd

                g = 0
                for x in v:
                    g = gcd(g, abs(x))
                assert g == 1
                lead = next(x for x in v if x != 0)
                assert lead > 0

    def test_solve_reproduces_rhs_when_solvable(self):
        rng = random.Random(19)
        solved = 0
        for _ in range(200):
            n = rng.randint(1, 5)
            m = random_symmetric_int(rng, n)
            b = [rng.randint(-3, 3) for _ in range(n)]
            x = m.solve(b)
            if x is not None:
                solved += 1
                assert m.apply(x) == tuple(Fraction(v) for v in b)
        assert solved > 50  # the sweep actually exercised the solver


def curve_gram(rng) -> SymmetricMatrix:
    """The Gram of 8-16 curves on a chain, a cycle, a D-tilde or a star,
    with self-intersections drawn from -2, 0, +1 and a rational (or all
    -2, which makes the cycles and D-tildes singular), an occasional
    rational meeting, some curves cut loose to zero rows, then [[0,1],[1,0]]
    blocks on the last curves and the order shuffled."""
    n = rng.randint(8, 16)
    shape = rng.choice(("chain", "cycle", "d-tilde", "star"))
    if shape == "star":
        edges = [(0, i) for i in range(1, n)]
    elif shape == "d-tilde":  # a chain 2..n-3 with two leaves at each end
        edges = [(i, i + 1) for i in range(2, n - 3)]
        edges += [(0, 2), (1, 2), (n - 3, n - 2), (n - 3, n - 1)]
    else:
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [(n - 1, 0)] if shape == "cycle" else []
    if rng.random() < 0.4:
        diag = [-2] * n
    else:
        diag = [rng.choice((-2, -2, 0, 1, Fraction(-5, 3))) for _ in range(n)]
    value = {e: rng.choice((1, 1, 1, Fraction(1, 2))) for e in edges}
    loose = rng.sample(range(n), rng.choice((0, 0, 1, 2)))
    hyperbolic = rng.choice((0, 0, 1, 2))
    pairs = [(n - 2 * k - 2, n - 2 * k - 1) for k in range(hyperbolic)]
    for i in [*loose, *[i for pair in pairs for i in pair]]:
        diag[i] = 0
        value = {e: x for e, x in value.items() if i not in e}
    value.update((pair, 1) for pair in pairs)
    order = list(range(n))
    rng.shuffle(order)  # curve order[k] becomes curve k
    where = {old: new for new, old in enumerate(order)}
    return SymmetricMatrix.from_entries(
        [diag[old] for old in order],
        [(where[i], where[j], x) for (i, j), x in value.items()],
    )


class TestGaussJordanAgainstOracle:
    """solve (the column-space solution, via M^2) and kernel_basis against
    the former Gauss-Jordan code, kept as oracles."""

    def matrices(self, rng):
        for _ in range(300):
            n = rng.randint(0, 6)
            if rng.random() < 0.5:
                yield random_symmetric_int(rng, n, lo=-2, hi=2)
            else:
                yield random_symmetric_rational(rng, n)
        for _ in range(100):  # singular: +-u u^T summed over fewer than n u's
            n = rng.randint(2, 6)
            terms = [
                (rng.choice((-1, 1)), [rng.randint(-2, 2) for _ in range(n)])
                for _ in range(rng.randint(1, n - 1))
            ]
            yield SymmetricMatrix(
                [
                    [sum(e * u[i] * u[j] for e, u in terms) for j in range(n)]
                    for i in range(n)
                ]
            )
        yield SymmetricMatrix([])
        for _ in range(60):
            yield curve_gram(rng)

    def test_kernel_basis(self):
        rng = random.Random(31)
        singular = 0
        for m in self.matrices(rng):
            basis = m.kernel_basis()
            assert basis == oracle_kernel_basis(m)
            singular += bool(basis)
        assert singular > 40

    def test_solve(self):
        rng = random.Random(37)
        solved_singular = refused = 0
        for m in self.matrices(rng):
            z = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m.n)]
            for b in (m.apply(z), [rng.randint(-2, 2) for _ in range(m.n)]):
                x = m.solve(b)
                assert x == oracle_solve(m, b)
                assert x == oracle_square_solve(m, b)
                assert x is None or all(type(v) is Fraction for v in x)
                if x is None:
                    refused += 1
                elif m.kernel_basis():
                    solved_singular += 1
        assert solved_singular > 40 and refused > 20


class TestNegativeDefiniteLDL:
    def test_decision_matches_sylvester_oracle(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 5)
            m = (
                random_symmetric_int(rng, n, lo=-3, hi=1)
                if rng.random() < 0.5
                else random_symmetric_rational(rng, n)
            )
            factor = m.negative_definite_ldl()
            assert (factor is not None) == oracle_negative_definite_fast(m)
            if factor is not None:
                assert all(d < 0 for d in ldl_diag(factor))

    def test_solve_matches_gauss_jordan_for_many_rhs(self):
        rng = random.Random(29)
        for _ in range(100):
            k = rng.randint(1, 7)
            m = random_negative_definite_configuration(rng, k).gram
            factor = m.negative_definite_ldl()
            assert factor is not None
            for _ in range(3):
                b = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
                # the factor's right-hand side and solution follow its order
                x = [None] * k
                solved = factor.solve([b[i] for i in factor.order])
                for i, v in zip(factor.order, solved):
                    x[i] = v
                assert tuple(x) == m.solve(b)
                assert m.apply(x) == tuple(b)

    def test_chain_has_no_fill(self):
        n = 50
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = -2
            if i + 1 < n:
                rows[i][i + 1] = rows[i + 1][i] = 1
        m = SymmetricMatrix(rows)
        factor = m._eliminate(range(n))
        assert factor.inertia == (0, n, 0)
        assert [len(column) for column in ldl_lower(factor)] == [1] * (n - 1) + [0]
        assert ldl_diag(factor) == tuple(Fraction(-(k + 2), k + 1) for k in range(n))
        # ldl takes the two ends first, then the chain from 1 on: no fill
        factor = m.negative_definite_ldl()
        assert factor.order == (0, n - 1, *range(1, n - 1))
        assert [len(column) for column in ldl_lower(factor)] == [1] * (n - 1) + [0]

    def test_stops_at_first_nonnegative_pivot(self):
        # pivots -2, -3/2, 0: a semidefinite cycle is not negative definite
        cycle = SymmetricMatrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
        assert cycle.negative_definite_ldl() is None
        assert not cycle.is_negative_definite()

    def test_principal_block_on_indices(self):
        m = SymmetricMatrix([[-3, 1, 0], [1, 5, 1], [0, 1, -2]])
        factor = m.negative_definite_ldl([2, 0])
        assert factor.order == (0, 2)
        assert m.negative_definite_ldl([0, 2]) is factor
        expected = m.restrict([0, 2]).negative_definite_ldl()
        assert (ldl_lower(factor), ldl_diag(factor)) == (ldl_lower(expected), ldl_diag(expected))
        assert m.negative_definite_ldl() is None


def random_block(rng):
    """A matrix and a principal block of it: rational, mostly zero on the
    diagonal, or negative definite by diagonal dominance with rational
    entries of both signs; the block is everything in order, a
    permutation or a shuffled subset."""
    n = rng.randint(1, 8)
    kind = rng.randrange(3)
    if kind == 0:
        m = random_symmetric_rational(rng, n)
    else:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    value = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    rows[i][j] = rows[j][i] = value
        for i in range(n):
            if kind == 1:
                if rng.random() < 0.3:
                    rows[i][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            else:
                dominance = sum(abs(x) for x in rows[i])
                rows[i][i] = -dominance - Fraction(rng.randint(1, 4), rng.randint(1, 3))
        m = SymmetricMatrix(rows)
    shape = rng.randrange(3)
    if shape == 0:
        return m, None
    idx = list(range(n)) if shape == 1 else rng.sample(range(n), rng.randint(0, n))
    rng.shuffle(idx)
    return m, idx


class TestOneElimination:
    """``ldl`` on principal blocks against the dense elimination and the
    stand-alone negative definite factorisation it replaced."""

    def test_matches_dense_inertia_and_former_factor(self):
        rng = random.Random(137)
        definite = complete_indefinite = 0
        for _ in range(900):
            m, idx = random_block(rng)
            factor = m.ldl(idx)
            order = factor.order
            assert sorted(order) == sorted(range(m.n) if idx is None else idx)
            block = dense_restrict(m, order)
            assert factor.inertia == dense_inertia(SymmetricMatrix(block))
            former = oracle_negative_definite_ldl(m, order)
            assert (former is not None) == (factor.inertia[1] == len(order))
            if former is not None:
                definite += 1
                assert (factor.order, ldl_lower(factor), ldl_diag(factor)) == former
                assert m.negative_definite_ldl(idx) == factor
            else:
                assert m.negative_definite_ldl(idx) is None
            if len(ldl_diag(factor)) == len(order):
                # a complete record is a factorisation of the block
                complete_indefinite += former is None
                k = len(order)
                lower = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
                for p, column in enumerate(ldl_lower(factor)):
                    for q, l in column:
                        lower[q][p] = l
                diag = ldl_diag(factor)
                product = tuple(
                    tuple(
                        sum(lower[i][p] * diag[p] * lower[j][p] for p in range(k))
                        for j in range(k)
                    )
                    for i in range(k)
                )
                assert product == block
        assert definite > 250 and complete_indefinite > 100

    def test_inertia_and_definiteness_read_the_elimination(self):
        m = SymmetricMatrix([[-2, 1, 0], [1, 0, 1], [0, 1, 3]])
        factor = m.ldl()
        assert m.inertia() == factor.inertia == (2, 1, 0)
        assert len(ldl_diag(factor)) == 3
        assert m.negative_definite_ldl() is None
        assert m.ldl([0]).inertia == (0, 1, 0)
        assert m.negative_definite_ldl([0]) == m.ldl([0])

    def test_record_stops_at_first_step_out_of_order(self):
        # row 0 pivots after its neighbour 1: nothing is recorded
        m = SymmetricMatrix([[0, 1, 0], [1, -1, 0], [0, 0, -2]])
        factor = m._eliminate(range(3))
        assert factor.inertia == (1, 2, 0)
        assert ldl_lower(factor) == () and ldl_diag(factor) == ()
        # ldl takes the lone curve 2 first, and its record stops after it
        factor = m.ldl()
        assert factor.order == (2, 0, 1) and factor.inertia == (1, 2, 0)
        assert ldl_lower(factor) == ((),) and ldl_diag(factor) == (-2,)
        # a zero row in order is a zero pivot with no multipliers
        m = SymmetricMatrix([[-1, 0, 0], [0, 0, 0], [0, 0, 4]])
        factor = m._eliminate(range(3))
        assert factor.inertia == (1, 1, 1)
        assert ldl_diag(factor) == (-1, 0, 4)
        assert ldl_lower(factor) == ((), (), ())

    def test_null_vector_spans_the_kernel_of_a_fibre_block(self):
        # an extended D4 with the centre first: kernel (2, 1, 1, 1, 1)
        m = SymmetricMatrix.from_entries(
            [-2] * 5, [(0, j, 1) for j in range(1, 5)]
        )
        factor = m._eliminate(range(5))
        assert factor.inertia == (0, 4, 1)
        x = factor.null_vector()
        assert x == [2, 1, 1, 1, 1]
        assert m.apply(x) == (0,) * 5
        # ldl takes the centre last, and its kernel follows that order
        factor = m.ldl()
        assert factor.order == (1, 2, 3, 4, 0) and factor.inertia == (0, 4, 1)
        assert factor.null_vector() == [1, 1, 1, 1, 2]
        assert ldl_diag(factor)[-1] == 0 and all(d < 0 for d in ldl_diag(factor)[:-1])

    def test_index_out_of_range(self):
        with pytest.raises(InputError, match="out of range"):
            SymmetricMatrix([[1]]).ldl([1])


    def test_repeated_index_refused(self):
        # the block on [0, 0] is [[-2, -2], [-2, -2]], which is singular;
        # keyed by index, the elimination would see one curve and call the
        # block negative definite
        m = SymmetricMatrix([[-2, 1], [1, -3]])
        assert m.restrict([0, 0]).inertia() == (0, 1, 1)
        with pytest.raises(InputError, match="distinct"):
            m.ldl([0, 0])
        with pytest.raises(InputError, match="distinct"):
            m.negative_definite_ldl([1, 0, 1])

    def test_hyperbolic_step_updates_only_the_coupled_rows(self):
        # the first row has a zero diagonal and only zero-diagonal
        # neighbours, so it pairs with its first neighbour; the update
        # touches supp(u) x supp(v), including shared rows on the diagonal
        triangle = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert SymmetricMatrix(triangle).inertia() == (1, 2, 0)
        for n in range(1, 8):
            # a 0-section meeting n disjoint 0-fibres: v is empty
            rows = [[0] * (n + 1) for _ in range(n + 1)]
            for i in range(1, n + 1):
                rows[0][i] = rows[i][0] = 1
            m = SymmetricMatrix(rows)
            assert m.inertia() == dense_inertia(m) == (1, 1, n - 1)


class TestRememberedFactors:
    """The matrix keeps the factor of each block it eliminates, keyed by
    the set of its indices, and hands it back on a repeat in any order."""

    def test_a_repeat_returns_the_same_object(self):
        m = SymmetricMatrix([[-2, 1, 0], [1, -2, 1], [0, 1, 0]])
        for indices in (None, [0, 1], (1, 0), [2], [0]):
            first = m.ldl(indices)
            assert m.ldl(indices) is first
        # the whole matrix is the block on every index in order
        assert m.ldl([0, 1, 2]) is m.ldl() is m.ldl(range(3))
        assert m.negative_definite_ldl([0, 1]) is m.ldl((0, 1))
        assert m.inertia() == m.ldl().inertia
        # a block in another order is the same block, in the matrix's order
        assert m.ldl([1, 0]) is m.ldl([0, 1])
        assert m.ldl([1, 0]) == m._eliminate([0, 1])
        assert m.ldl([2, 1, 0]) is m.ldl()
        assert m.ldl() == m._eliminate([0, 2, 1])

    def test_each_block_is_eliminated_once(self, monkeypatch):
        calls = []
        original = SymmetricMatrix._eliminate

        def counting(matrix, indices):
            calls.append(tuple(indices))
            return original(matrix, indices)

        monkeypatch.setattr(SymmetricMatrix, "_eliminate", counting)
        m = SymmetricMatrix.from_entries([-2] * 4, [(0, 1, 1), (1, 2, 1)])
        for _ in range(3):
            m.ldl([0, 1, 2])
            m.ldl([2, 0, 1])
            m.negative_definite_ldl([3])
            m.is_negative_definite()
        # the ends of the chain 0-1-2 go first, and the lone curve 3 first
        assert calls == [(0, 2, 1), (3,), (3, 0, 2, 1)]

    def test_a_refused_block_is_not_kept(self):
        m = SymmetricMatrix([[-2, 1], [1, -2]])
        for bad, message in (([0, 0], "distinct"), ([2], "out of range")):
            with pytest.raises(InputError, match=message):
                m.ldl(bad)
        assert m._factors == {}

    def test_the_memo_takes_no_part_in_equality(self):
        a = SymmetricMatrix([[-2, 1], [1, -2]])
        b = SymmetricMatrix.from_entries([-2, -2], [(0, 1, 1)])
        a.ldl([0])
        assert a == b and hash(a) == hash(b)
        assert a.ldl() == b.ldl() and a.ldl() is not b.ldl()


class TestOneCurveBlock:
    """``ldl`` reads a one-curve block off its diagonal entry; the general
    elimination ``_eliminate`` must agree with it on every such block."""

    # a (-1)-curve E0 meeting curves of every sign of self-intersection,
    # so each one-curve block sits in a row with off-diagonal entries
    DIAGONAL = [-1, -3, 0, 2, Fraction(-1, 2), Fraction(5, 3), Fraction(-7, 4)]

    def matrix(self):
        return SymmetricMatrix.from_entries(
            self.DIAGONAL, [(0, j, 1) for j in range(1, len(self.DIAGONAL))]
        )

    def test_each_sign_and_fractional_entry(self):
        m = self.matrix()
        for i, d in enumerate(self.DIAGONAL):
            factor = m.ldl([i])
            assert factor == m._eliminate([i])
            assert factor.order == (i,)
            assert ldl_lower(factor) == ((),)
            assert ldl_diag(factor) == (d,) and type(ldl_diag(factor)[0]) is Fraction
            assert factor.inertia == (int(d > 0), int(d < 0), int(d == 0))
            expect = factor if d < 0 else None
            assert m.negative_definite_ldl([i]) == expect

    def test_whole_one_by_one_matrix(self):
        for d in self.DIAGONAL:
            m = SymmetricMatrix([[d]])
            assert m.ldl() == m.ldl([0]) == m._eliminate([0])
            assert m.inertia() == dense_inertia(m)
            assert m.is_negative_definite() == (d < 0)

    def test_random_rows_against_the_general_elimination(self):
        rng = random.Random(13)
        for _ in range(60):
            m = random_symmetric_rational(rng, rng.randint(1, 6))
            for i in range(m.n):
                assert m.ldl([i]) == m._eliminate([i])

    @pytest.mark.parametrize("index", [7, -1])
    def test_out_of_range_message(self, index):
        with pytest.raises(InputError) as info:
            self.matrix().ldl([index])
        assert str(info.value) == f"index {index} out of range for n=7"

    def test_repeated_index_message(self):
        # a repeated index is a block of two or more, never the one-curve path
        m = self.matrix()
        for indices in ([3, 3], [0, 1, 0]):
            with pytest.raises(InputError) as info:
                m.ldl(indices)
            assert str(info.value) == "indices must be distinct"


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def principal_blocks(draw):
    """A rational symmetric matrix and the indices of a block of it: zero
    diagonals (so neighbour pivots and hyperbolic steps), zero rows, a
    negative definite kind (complete records), and indices in order, as a
    permutation, a subset, one curve, or with a repeat."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["zeros", "rational", "definite"]))
    entries = [
        (i, j, draw(_SMALL))
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.integers(0, 2)) == 0
    ]
    if kind == "zeros":
        diag = [draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(-1, 2), 1]))
                for _ in range(n)]
    elif kind == "rational":
        diag = [draw(_SMALL) for _ in range(n)]
    else:
        weight = [Fraction(0)] * n
        for i, j, x in entries:
            weight[i] += abs(x)
            weight[j] += abs(x)
        diag = [-w - draw(st.fractions(1, 3, max_denominator=3)) for w in weight]
    matrix = SymmetricMatrix.from_entries(diag, entries)
    indices = draw(st.one_of(
        st.none(),
        st.permutations(range(n)),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n),
    ))
    return matrix, indices


class TestIntegerElimination:
    """The integer ``ldl`` against ``oracle_ldl``, the former elimination
    in ``Fraction`` arithmetic, on random rational blocks."""

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(principal_blocks(), st.data())
    def test_matches_the_fraction_elimination(self, block, data):
        m, idx = block
        if idx is not None and len(set(idx)) < len(idx):
            with pytest.raises(InputError, match="distinct"):
                m.ldl(idx)
            return
        factor = m.ldl(idx)
        assert sorted(factor.order) == sorted(range(m.n) if idx is None else idx)
        order, lower, diag, inertia = oracle_ldl(m, factor.order)
        assert (factor.order, factor.inertia) == (order, inertia)
        assert (ldl_lower(factor), ldl_diag(factor)) == (lower, diag)
        assert all(type(d) is Fraction for d in ldl_diag(factor))
        assert all(type(l) is Fraction for col in ldl_lower(factor) for _, l in col)
        record = [factor.content, *factor.scales, *factor.minors, *factor.pivots]
        record += [v for column in factor.columns for _, v in column]
        assert all(type(v) is int for v in record)
        if len(diag) < len(order):
            return
        block = SymmetricMatrix(dense_restrict(m, order))
        if all(diag):
            rhs = data.draw(st.lists(_SMALL, min_size=len(order), max_size=len(order)))
            x = factor.solve(rhs)
            assert x == oracle_ldl_solve(lower, diag, rhs)
            assert block.apply(x) == tuple(rhs)
            assert all(type(v) is Fraction for v in x)
        elif all(diag[:-1]):
            # only the last pivot is zero: the kernel is a line
            x = factor.null_vector()
            assert x == list(_primitive_integral(oracle_null_vector(lower)))
            assert all(type(v) is int for v in x)
            assert block.apply(x) == (0,) * len(order)

    def test_each_kind_of_step_is_drawn(self):
        # the strategy reaches every branch of the elimination: hyperbolic
        # steps, neighbour pivots, zero rows and complete records
        seen = set()

        @settings(derandomize=True, max_examples=250, deadline=None)
        @given(principal_blocks())
        def classify(block):
            m, idx = block
            if idx is not None and len(set(idx)) < len(idx):
                seen.add("repeat")
                return
            order, lower, diag, (plus, minus, zero) = oracle_ldl(m, m.ldl(idx).order)
            if len(order) == 1:
                seen.add("one curve")
            if len(diag) < len(order):
                seen.add("out of order")
            elif all(diag):
                seen.add("complete")
            elif all(diag[:-1]):
                seen.add("kernel")
            if zero and len(diag) == len(order):
                seen.add("zero row")

        classify()
        assert seen == {
            "repeat", "one curve", "out of order", "complete", "kernel",
            "zero row",
        }, seen

    def test_rows_are_scaled_by_their_own_denominators(self):
        # s_p is the lcm of the denominators in row p of the block, and the
        # content of S M S is divided out unless the block is integral
        m = SymmetricMatrix.from_entries(
            [Fraction(-1, 2), Fraction(-5, 3), 7], [(0, 1, Fraction(1, 4))]
        )
        factor = m._eliminate(range(3))
        assert (factor.scales, factor.content) == ((4, 12, 1), 1)
        assert m._eliminate([1, 2]).scales == (3, 1)
        # ldl takes the lone curve 2 first, and the scales follow its order
        assert (m.ldl().order, m.ldl().scales) == ((2, 0, 1), (1, 4, 12))
        assert (m.ldl([2]).scales, m.ldl([2]).content) == ((1,), 1)
        assert m.ldl([2]) == m._eliminate([2])
        assert (m.ldl([1]).content, m.ldl([1]).pivots) == (15, (-1,))
        assert m.ldl([1]) == m._eliminate([1])
        # a uniform denominator: S M S / g is the block times m^2
        m = SymmetricMatrix.from_entries(
            [Fraction(-2 * 25 + 1, 25)] * 3, [(0, 1, 1), (1, 2, 1)]
        )
        factor = m.ldl()
        assert (factor.scales, factor.content) == ((25, 25, 25), 25)
        assert factor.minors[1] == -49

    def test_distinct_denominators_stay_short(self):
        # a chain whose rows have distinct prime denominators: one lcm for
        # the whole block made every entry as long as all of them together,
        # and the minors grew quadratically in the length
        primes = [p for p in range(2, 2000) if all(p % q for q in range(2, p))][:150]
        m = SymmetricMatrix.from_entries(
            [Fraction(-2 * p + 1, p) for p in primes],
            [(i, i + 1, 1) for i in range(len(primes) - 1)],
        )
        start = time.perf_counter()
        factor = m.ldl()
        elapsed = time.perf_counter() - start
        assert factor.inertia == oracle_ldl(m)[3]
        # A = S M S has row p scaled by p, so every leading minor is within
        # the product of A's absolute row sums (Hadamard)
        bound = 1
        for i, p in enumerate(primes):
            near = [primes[j] for j in (i - 1, i + 1) if 0 <= j < len(primes)]
            bound *= p * (2 * p - 1) + sum(p * q for q in near)
        assert max(abs(v) for v in factor.pivots) <= bound
        assert elapsed < 0.2, f"ldl took {elapsed:.2f}s"

    def test_chain_keeps_its_minors(self):
        # the leading minors of a (-2)-chain are (-1)^k (k + 1); the column
        # below each pivot is its one neighbour, whose Schur entry 1 no
        # earlier step changed, so it is read lifted to the minor: 1 * minor
        n = 12
        m = SymmetricMatrix.from_entries([-2] * n, [(i, i + 1, 1) for i in range(n - 1)])
        factor = m._eliminate(range(n))
        assert factor.minors == tuple((-1) ** k * (k + 1) for k in range(n))
        assert factor.pivots == tuple((-1) ** k * (k + 1) for k in range(1, n + 1))
        assert factor.columns == tuple(
            ((p + 1, (-1) ** p * (p + 1)),) for p in range(n - 1)
        ) + ((),)

    def test_hyperbolic_step_with_shared_neighbours(self):
        # p and q, both with zero diagonal, share the neighbours r and s:
        # each pair of supp(u) x supp(v) must be updated once
        m = SymmetricMatrix.from_entries(
            [0, 0, 1, -2, 3],
            [(0, 1, 2), (0, 2, 1), (0, 3, 1), (1, 2, 3), (1, 3, -1), (2, 3, 1),
             (1, 4, 1)],
        )
        assert m.inertia() == dense_inertia(m) == oracle_ldl(m)[3]


class TestOneOrder:
    """``ldl`` chooses the order of a block: the indices meeting the fewest
    others in the block first, ties by index.  Every order of a block names
    the same factor, and its record is the former elimination's in that
    order."""

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(principal_blocks(), st.data())
    def test_any_order_reads_the_one_factor(self, block, data):
        m, idx = block
        block = sorted(set(range(m.n) if idx is None else idx))
        factor = m.ldl(data.draw(st.permutations(block)))
        degree = {i: sum(j in block for j in m.off_diagonal(i)) for i in block}
        assert factor.order == tuple(sorted(block, key=lambda i: (degree[i], i)))
        assert m.ldl(data.draw(st.permutations(block))) is factor
        assert m.ldl(frozenset(block)) is factor
        assert list(m._factors) == [frozenset(block)]
        order, lower, diag, inertia = oracle_ldl(m, factor.order)
        assert (factor.order, factor.inertia) == (order, inertia)
        assert (ldl_lower(factor), ldl_diag(factor)) == (lower, diag)


def shuffled_random_tree(rng, n):
    """The Gram of a random tree of n curves with shuffled indices: the
    parent of curve i is drawn below i, and the diagonal is -(deg + 1), so
    the Gram is negative definite (diagonal dominance)."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    label = list(range(n))
    rng.shuffle(label)
    diag = [-1] * n
    for a, b in edges:
        diag[label[a]] -= 1
        diag[label[b]] -= 1
    return SymmetricMatrix.from_entries(
        diag, [(label[a], label[b], 1) for a, b in edges]
    )


@st.composite
def semidefinite_blocks(draw):
    """G = s B^T B for a rational k x n matrix B with k < n and s = +-1:
    semidefinite and singular, so its in-order elimination meets zero
    pivots, each a zero row of its Schur complement."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    b = [[draw(_SMALL) for _ in range(n)] for _ in range(k)]
    sign = draw(st.sampled_from([1, -1]))
    return SymmetricMatrix(
        [[sign * sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
    )


class TestSemidefiniteSolve:
    """``LDL.solve`` on the in-order record of a semidefinite block: the
    unknown is 0 at each zero pivot, and the nonzero-pivot positions P
    solve G[P, P] x_P = b_P, as ``oracle_ldl`` on P solves it."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(semidefinite_blocks(), st.data())
    def test_matches_the_oracle_on_the_nonzero_pivots(self, g, data):
        factor = g._eliminate(range(g.n))
        assert len(factor.pivots) == g.n  # the record is complete
        kept = [p for p, top in enumerate(factor.pivots) if top]
        assert g.n - len(kept) == factor.inertia[2] > 0
        rhs = data.draw(st.lists(_SMALL, min_size=g.n, max_size=g.n))
        x = factor.solve(rhs)
        assert all(type(v) is Fraction for v in x)
        assert [v for p, v in enumerate(x) if p not in kept] == [0] * (g.n - len(kept))
        _, lower, diag, _ = oracle_ldl(g, kept)
        assert len(diag) == len(kept) and all(diag)
        assert [x[p] for p in kept] == oracle_ldl_solve(
            lower, diag, [rhs[p] for p in kept]
        )

    def test_zero_rows_first_middle_and_last(self):
        # G = diag(0, 2, 0, 3, 0) with a zero row at each end and between
        g = diagonal([0, 2, 0, 3, 0])
        factor = g._eliminate(range(5))
        assert factor.pivots == (0, 2, 0, 6, 0)
        assert factor.solve([7, 1, 7, 1, 7]) == [0, Fraction(1, 2), 0, Fraction(1, 3), 0]
        assert diagonal([0]).ldl().solve([5]) == [0]


class TestOrderBudget:
    def test_shuffled_random_tree_of_2000_curves(self):
        # eliminating the curves in index order filled in the tree: 12 s
        # for ldl at n = 2000
        n = 2000
        m = shuffled_random_tree(random.Random(167), n)
        start = time.perf_counter()
        factor = m.ldl()
        elapsed = time.perf_counter() - start
        assert factor.inertia == (0, n, 0) and len(factor.pivots) == n
        for p in (0, n // 2, n - 1):
            e = [int(p == q) for q in range(n)]
            assert factor.solve(e)[p] < 0
        assert elapsed < 1.0, f"ldl took {elapsed:.2f}s"

    def test_two_sections_and_n_fibres(self):
        # K_{2,n}: two sections of self-intersection -(n + 1), listed first,
        # and n (-3)-curves that each meet both.  The fibres go first and
        # fill nothing in (about 2 ms at n = 400); an order that takes a
        # section first, such as reverse breadth first, joins all n fibres
        # into a clique and took 6.6 s
        n = 400
        m = SymmetricMatrix.from_entries(
            [-(n + 1)] * 2 + [-3] * n,
            [(s, 2 + i, 1) for s in (0, 1) for i in range(n)],
        )
        start = time.perf_counter()
        factor = m.ldl()
        elapsed = time.perf_counter() - start
        assert factor.inertia == (0, n + 2, 0)
        assert elapsed < 0.5, f"ldl took {elapsed:.2f}s"


class TestRationals:
    @given(
        st.fractions(max_denominator=10**6),
        st.fractions(max_denominator=10**6),
    )
    def test_addition_is_exact(self, a, b):
        assert (a + b) - b == a

    def test_string_parsing(self):
        assert as_rational("2/3") == Fraction(2, 3)
        assert as_rational("-7") == Fraction(-7)
        assert as_rational(5) == Fraction(5)

    def test_floats_rejected(self):
        with pytest.raises(InputError):
            as_rational(0.5)

    def test_bools_rejected(self):
        with pytest.raises(InputError):
            as_rational(True)


class TestConstruction:
    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            SymmetricMatrix([[0, 1], [2, 0]])

    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            SymmetricMatrix([[0, 1], [1]])

    def test_restrict(self):
        m = SymmetricMatrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
        assert m.restrict([0, 2]) == SymmetricMatrix([[-2, 1], [1, -2]])


class TestSparseStorage:
    """The sparse constructor and the dense one must give the same matrix,
    whatever the route; the dense rows are the oracle."""

    @staticmethod
    def entries_of(rows, rng):
        """Off-diagonal entries of ``rows`` in random order and orientation,
        with decoys overwritten later (the last write wins)."""
        n = len(rows)
        decoys, finals = [], []
        for i in range(n):
            for j in range(i + 1, n):
                decoy = rng.random() < 0.3
                if decoy:
                    decoys.append((j, i, Fraction(rng.randint(1, 9), 7)))
                if rows[i][j] or decoy or rng.random() < 0.3:
                    a, b = (i, j) if rng.random() < 0.5 else (j, i)
                    finals.append((a, b, rows[i][j]))
        rng.shuffle(decoys)
        rng.shuffle(finals)
        return decoys + finals

    def test_sparse_and_dense_constructors_agree(self):
        rng = random.Random(61)
        for _ in range(150):
            n = rng.randint(0, 9)
            dense = random_symmetric_rational(rng, n)
            rows = dense.rows
            sparse = SymmetricMatrix.from_entries(
                [rows[i][i] for i in range(n)], self.entries_of(rows, rng)
            )
            assert sparse == dense and dense == sparse
            assert hash(sparse) == hash(dense)
            assert sparse.rows == rows
            assert all(
                sparse.entry(i, j) == rows[i][j] for i in range(n) for j in range(n)
            )
            for i in range(n):
                assert dict(sparse.off_diagonal(i)) == {
                    j: x for j, x in enumerate(rows[i]) if x and j != i
                }

    def test_last_write_wins_and_zero_clears(self):
        m = SymmetricMatrix.from_entries([-2, -2], [(0, 1, 3), (1, 0, 1)])
        assert m == SymmetricMatrix([[-2, 1], [1, -2]])
        cleared = SymmetricMatrix.from_entries([-2, -2], [(0, 1, 3), (1, 0, 0)])
        assert cleared == diagonal([-2, -2])
        assert hash(cleared) == hash(diagonal([-2, -2]))

    def test_constructor_refuses_bad_entries(self):
        with pytest.raises(InputError, match="out of range"):
            SymmetricMatrix.from_entries([0, 0], [(0, 2, 1)])
        with pytest.raises(InputError, match="diagonal"):
            SymmetricMatrix.from_entries([0, 0], [(1, 1, 1)])
        with pytest.raises(InputError, match="not exact"):
            SymmetricMatrix.from_entries([0, 0], [(0, 1, 0.5)])

    def test_restrict_matches_dense_rows(self):
        rng = random.Random(67)
        for _ in range(150):
            n = rng.randint(1, 9)
            m = random_symmetric_rational(rng, n)
            if rng.random() < 0.5:  # the sparse route, dense view not built
                m = SymmetricMatrix.from_entries(
                    [m.entry(i, i) for i in range(n)],
                    [(i, j, m.entry(i, j)) for i in range(n) for j in range(i)],
                )
            idx = rng.sample(range(n), rng.randint(0, n))
            block = m.restrict(idx)
            expected = dense_restrict(m, idx)
            assert block.rows == expected
            assert block == SymmetricMatrix(expected)
            assert hash(block) == hash(SymmetricMatrix(expected))

    @pytest.mark.parametrize(
        "i, j, message",
        [
            (-1, 1, "row -1 out of range for n=3"),
            (-1, -1, "row -1 out of range for n=3"),
            (3, 3, "row 3 out of range for n=3"),
            (1, -1, "column -1 out of range for n=3"),
        ],
    )
    def test_entry_checks_row_and_column(self, i, j, message):
        # a negative row used to wrap to the last one, and (3, 3) raised a
        # bare "tuple index out of range"
        m = SymmetricMatrix.from_entries([1, 2, 3], [(0, 1, 5), (1, 2, 7)])
        with pytest.raises(IndexError) as info:
            m.entry(i, j)
        assert str(info.value) == message

    def test_support_is_the_rows_key_view(self):
        m = SymmetricMatrix.from_entries([-2] * 4, [(0, 1, 1), (0, 3, 2)])
        assert m.support(0) == {1, 3} and m.support(2) == set()
        assert m.support(0) & {3, 2} == {3}
        assert not hasattr(m.support(0), "add")
        assert m.support(0) is not m.support(0)  # a view, not a stored copy

    def test_restrict_with_repeated_indices(self):
        m = SymmetricMatrix([[-2, 1], [1, -3]])
        assert m.restrict([1, 0, 1]).rows == dense_restrict(m, [1, 0, 1])

    def test_asymmetric_message(self):
        with pytest.raises(InputError) as info:
            SymmetricMatrix([[0, 1, 5], [1, 0, 2], [4, 3, 0]])
        assert str(info.value) == "matrix is not symmetric at (0,2): 5 != 4"

    def test_apply_matches_dense_rows(self):
        rng = random.Random(71)
        for _ in range(50):
            n = rng.randint(1, 7)
            m = random_symmetric_rational(rng, n)
            v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            assert m.apply(v) == tuple(
                sum(m.rows[i][j] * v[j] for j in range(n)) for i in range(n)
            )
