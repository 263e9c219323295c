import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surfsat import InputError, SymmetricMatrix, as_rational

from support import (
    dense_inertia,
    dense_restrict,
    oracle_inertia_charpoly,
    oracle_inertia_leading_minors,
    oracle_negative_definite_fast,
    oracle_kernel_basis,
    oracle_negative_definite_ldl,
    oracle_negative_semidefinite,
    oracle_solve,
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
        m = SymmetricMatrix.diagonal([0, 0, 2])
        assert m.solve([0, 0, 5]) == (0, 0, Fraction(5, 2))
        assert m.solve([1, 0, 0]) is None
        assert SymmetricMatrix.diagonal([0, 0, 0]).solve([0, 0, 0]) == (0, 0, 0)

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
        assert SymmetricMatrix.diagonal([1, -1, -1]).inertia() == (1, 2, 0)

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
                assert all(d < 0 for d in factor.diag)

    def test_solve_matches_gauss_jordan_for_many_rhs(self):
        rng = random.Random(29)
        for _ in range(100):
            k = rng.randint(1, 7)
            m = random_negative_definite_configuration(rng, k).gram
            factor = m.negative_definite_ldl()
            assert factor is not None
            for _ in range(3):
                b = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
                x = factor.solve(b)
                assert tuple(x) == m.solve(b)
                assert m.apply(x) == tuple(b)

    def test_chain_has_no_fill(self):
        n = 50
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = -2
            if i + 1 < n:
                rows[i][i + 1] = rows[i + 1][i] = 1
        factor = SymmetricMatrix(rows).negative_definite_ldl()
        assert [len(column) for column in factor.lower] == [1] * (n - 1) + [0]
        assert factor.diag == tuple(Fraction(-(k + 2), k + 1) for k in range(n))

    def test_stops_at_first_nonnegative_pivot(self):
        # pivots -2, -3/2, 0: a semidefinite cycle is not negative definite
        cycle = SymmetricMatrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
        assert cycle.negative_definite_ldl() is None
        assert not cycle.is_negative_definite()

    def test_principal_block_on_indices(self):
        m = SymmetricMatrix([[-3, 1, 0], [1, 5, 1], [0, 1, -2]])
        factor = m.negative_definite_ldl([2, 0])
        assert factor.order == (2, 0)
        expected = m.restrict([2, 0]).negative_definite_ldl()
        assert (factor.lower, factor.diag) == (expected.lower, expected.diag)
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
            order = tuple(range(m.n)) if idx is None else tuple(idx)
            block = dense_restrict(m, order)
            factor = m.ldl(idx)
            assert factor.order == order
            assert factor.inertia == dense_inertia(SymmetricMatrix(block))
            former = oracle_negative_definite_ldl(m, idx)
            assert (former is not None) == (factor.inertia[1] == len(order))
            if former is not None:
                definite += 1
                assert (factor.order, factor.lower, factor.diag) == former
                assert m.negative_definite_ldl(idx) == factor
            else:
                assert m.negative_definite_ldl(idx) is None
            if len(factor.diag) == len(order):
                # a complete record is a factorisation of the block
                complete_indefinite += former is None
                k = len(order)
                lower = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
                for p, column in enumerate(factor.lower):
                    for q, l in column:
                        lower[q][p] = l
                diag = factor.diag
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
        assert len(factor.diag) == 3
        assert m.negative_definite_ldl() is None
        assert m.ldl([0]).inertia == (0, 1, 0)
        assert m.negative_definite_ldl([0]) == m.ldl([0])

    def test_record_stops_at_first_step_out_of_order(self):
        # row 0 pivots after its neighbour 1: nothing is recorded
        m = SymmetricMatrix([[0, 1, 0], [1, -1, 0], [0, 0, -2]])
        factor = m.ldl()
        assert factor.inertia == (1, 2, 0)
        assert factor.lower == () and factor.diag == ()
        # a zero row in order is a zero pivot with no multipliers
        m = SymmetricMatrix([[-1, 0, 0], [0, 0, 0], [0, 0, 4]])
        factor = m.ldl()
        assert factor.inertia == (1, 1, 1)
        assert factor.diag == (-1, 0, 4)
        assert factor.lower == ((), (), ())

    def test_null_vector_spans_the_kernel_of_a_fibre_block(self):
        # an extended D4 with the centre first: kernel (2, 1, 1, 1, 1)
        m = SymmetricMatrix.from_entries(
            [-2] * 5, [(0, j, 1) for j in range(1, 5)]
        )
        factor = m.ldl()
        assert factor.inertia == (0, 4, 1)
        x = factor.null_vector()
        assert x == [2, 1, 1, 1, 1]
        assert m.apply(x) == (0,) * 5
        assert factor.diag[-1] == 0 and all(d < 0 for d in factor.diag[:-1])

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
        assert cleared == SymmetricMatrix.diagonal([-2, -2])
        assert hash(cleared) == hash(SymmetricMatrix.diagonal([-2, -2]))

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
