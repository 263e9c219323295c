"""Exact rational linear algebra for symmetric matrices.

Everything here is exact: scalars are :class:`fractions.Fraction`, there is
no floating point anywhere, and all decisions (solvability, inertia,
definiteness) are made by symmetric elimination.

Intersection matrices of curve configurations are sparse, so a matrix keeps
its diagonal and, per row, only the nonzero off-diagonal entries.  Building
one from entries, taking a principal block and the one elimination,
:meth:`SymmetricMatrix.ldl`, walk those entries.  A matrix is immutable,
so it keeps the factor of each block it eliminates, and every later query
on that block reads it back.  The elimination runs in integers: it
scales the block to an integer matrix A and keeps every Schur complement
entry as an integer minor of A over the minor of the pivots taken so far
(Sylvester's identity, as in Bareiss's fraction-free elimination), so no
update pays a gcd.  Its inertia, kernel vector and solves answer every
definiteness question, and they form a ``Fraction`` only for an output
entry: :meth:`LDL.solve_integral` gives a solution as integer numerators
over one denominator, which ``LDL.solve`` reads and ``mumford.contract``
sums the Schur complement and the pullbacks over.  ``solve`` and
``kernel_basis``, which no verdict uses, read the factor of M^2, which is
semidefinite with M's kernel.  The dense ``rows`` view is
built only when asked for (by ``repr``, by M^2 and by callers).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Collection, Iterable, KeysView, Mapping, Optional, Sequence

from .errors import InputError
from .record import Record

Rational = Fraction
_ZERO = Fraction(0)
_RATIONAL_STRING = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def as_rational(value) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts ints, Fractions and strings of the form ``-?[0-9]+(/[0-9]+)?``,
    like ``"2/3"`` or ``"-7"``.  Floats are rejected: they would silently
    destroy exactness.
    """
    if type(value) is Fraction:  # immutable, so the common case is free
        return value
    if isinstance(value, bool):
        raise InputError(f"expected a rational number, got boolean {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_STRING.fullmatch(value)
        if match:
            num, den = match.groups()
            try:
                return Fraction(int(num), int(den or 1))
            except (ValueError, ZeroDivisionError):  # q = 0, or too many digits
                pass
        raise InputError(f"cannot parse rational from {value!r}")
    if isinstance(value, float):
        raise InputError(
            f"float {value!r} is not exact; encode rationals as 'p/q' strings"
        )
    raise InputError(f"expected a rational number, got {type(value).__name__}")


def _primitive_integral(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to integer entries with content 1 and
    positive leading nonzero entry."""
    den = lcm(*[x.denominator for x in vec])
    return _primitive([x.numerator * (den // x.denominator) for x in vec])


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """An integer vector divided by its content, with positive leading
    nonzero entry."""
    g = gcd(*ints)
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return tuple([v // g for v in ints]) if g else tuple(ints)


class SymmetricMatrix:
    """Immutable symmetric matrix over the rationals.

    Stored sparsely: the diagonal, plus for every row a ``{column: value}``
    map of its nonzero off-diagonal entries.  :meth:`from_entries` builds
    one from a diagonal and off-diagonal entries in O(n + nnz); the dense
    ``rows`` view is built on first use.
    """

    __slots__ = ("_diag", "_off", "_rows", "_integral", "_factors")

    def __init__(self, rows: Sequence[Sequence]) -> None:
        n = len(rows)
        coerced = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise InputError(f"row {i} has length {len(row)}, expected {n}")
            coerced.append(tuple([as_rational(x) for x in row]))
        for i in range(n):
            for j in range(i + 1, n):
                if coerced[i][j] != coerced[j][i]:
                    raise InputError(
                        f"matrix is not symmetric at ({i},{j}): "
                        f"{coerced[i][j]} != {coerced[j][i]}"
                    )
        self._diag = tuple([row[i] for i, row in enumerate(coerced)])
        self._off = tuple([
            {j: x for j, x in enumerate(row) if x and j != i}
            for i, row in enumerate(coerced)
        ])
        self._rows = tuple(coerced)
        self._integral = None
        self._factors = {}

    @classmethod
    def _from_sparse(
        cls,
        diag: tuple[Fraction, ...],
        off: tuple[dict[int, Fraction], ...],
        integral: Optional[bool] = None,
    ) -> "SymmetricMatrix":
        """Adopt already symmetric storage with no zero off-diagonal entry;
        ``integral``, when the caller knows it, is what :meth:`_is_integral`
        would find."""
        matrix = cls.__new__(cls)
        matrix._diag = diag
        matrix._off = off
        matrix._rows = None
        matrix._integral = integral
        matrix._factors = {}
        return matrix

    @classmethod
    def from_entries(
        cls, diagonal: Sequence, entries: Iterable[tuple[int, int, object]] = ()
    ) -> "SymmetricMatrix":
        """The matrix with the given diagonal and off-diagonal entries
        (i, j, value), each setting both (i, j) and (j, i).

        Symmetric by construction, so nothing is compared pairwise: the
        cost is O(n + number of entries).  Unlisted entries are zero, and
        an entry listed twice keeps its last value.
        """
        diag = tuple([as_rational(x) for x in diagonal])
        n = len(diag)
        off: tuple[dict[int, Fraction], ...] = tuple([{} for _ in range(n)])
        for i, j, value in entries:
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"entry ({i},{j}) out of range for n={n}")
            if i == j:
                raise InputError(f"entry ({i},{j}) is on the diagonal")
            x = as_rational(value)
            if x:
                off[i][j] = off[j][i] = x
            else:
                off[i].pop(j, None)
                off[j].pop(i, None)
        return cls._from_sparse(diag, off)

    @classmethod
    def diagonal(cls, values: Sequence) -> "SymmetricMatrix":
        return cls.from_entries(values)

    @property
    def n(self) -> int:
        return len(self._diag)

    @property
    def diag(self) -> tuple[Fraction, ...]:
        return self._diag

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense view, built on first use."""
        if self._rows is None:
            n = len(self._diag)
            dense = []
            for i, (d, row) in enumerate(zip(self._diag, self._off)):
                r = [_ZERO] * n
                for j, x in row.items():
                    r[j] = x
                r[i] = d
                dense.append(tuple(r))
            self._rows = tuple(dense)
        return self._rows

    def _is_integral(self) -> bool:
        """Whether every entry is an integer, found on first use."""
        if self._integral is None:
            self._integral = all(x.denominator == 1 for x in self._diag) and all(
                x.denominator == 1 for row in self._off for x in row.values()
            )
        return self._integral

    def entry(self, i: int, j: int) -> Fraction:
        n = len(self._diag)
        if not 0 <= i < n:
            raise IndexError(f"row {i} out of range for n={n}")
        if not 0 <= j < n:
            raise IndexError(f"column {j} out of range for n={n}")
        return self._diag[i] if i == j else self._off[i].get(j, _ZERO)

    def off_diagonal(self, i: int) -> Mapping[int, Fraction]:
        """Read-only ``{column: value}`` map of the nonzero off-diagonal
        entries of row ``i``."""
        return MappingProxyType(self._off[i])

    def support(self, i: int) -> KeysView[int]:
        """Row ``i``'s nonzero off-diagonal columns: its read-only key view."""
        return self._off[i].keys()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymmetricMatrix)
            and self._diag == other._diag
            and self._off == other._off
        )

    def __hash__(self) -> int:
        return hash(
            (self._diag, tuple([tuple(sorted(row.items())) for row in self._off]))
        )

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"SymmetricMatrix[{body}]"

    def restrict(self, indices: Sequence[int]) -> "SymmetricMatrix":
        """Principal submatrix on ``indices`` (kept in the given order), in
        O(k + the off-diagonal entries of the k rows)."""
        idx = list(indices)
        for i in idx:
            if not 0 <= i < self.n:
                raise InputError(f"index {i} out of range for n={self.n}")
        position = {node: p for p, node in enumerate(idx)}
        if len(position) < len(idx):  # repeated indices: the dense way
            return SymmetricMatrix([[self.entry(i, j) for j in idx] for i in idx])
        off = tuple([
            {position[j]: x for j, x in self._off[i].items() if j in position}
            for i in idx
        ])
        return SymmetricMatrix._from_sparse(
            tuple([self._diag[i] for i in idx]), off
        )

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        if len(vec) != self.n:
            raise InputError(f"vector has length {len(vec)}, expected {self.n}")
        v = [as_rational(x) for x in vec]
        return tuple([
            sum((x * v[j] for j, x in row.items()), d * v[i])
            for i, (d, row) in enumerate(zip(self._diag, self._off))
        ])

    def pair(self, u: Sequence, v: Sequence) -> Fraction:
        """Bilinear form u^T M v."""
        mv = self.apply(v)
        return sum(
            (as_rational(x) * y for x, y in zip(u, mv, strict=True)),
            Fraction(0),
        )

    # -- elimination-based queries -------------------------------------

    def _square_factor(self) -> tuple["SymmetricMatrix", "LDL"]:
        """G = M^2 and its one elimination, in index order.  G is
        semidefinite with M's kernel, and in a semidefinite Schur complement
        a zero diagonal entry has a zero row, so the record is complete.
        Its zero pivots are the free columns of M's reduced row echelon
        form (those that depend on the columns before them), and
        :meth:`LDL.solve` sets the unknowns there to 0."""
        square = SymmetricMatrix([self.apply(row) for row in self.rows])
        return square, square._eliminate(range(self.n))

    def kernel_basis(self) -> tuple[tuple[int, ...], ...]:
        """Basis of the null space, read off the factor of M^2: for each
        free column f, the kernel vector that is 1 at f and 0 at the other
        free columns, as the reduced row echelon form gives it.

        Each basis vector is primitive integral with positive leading entry,
        ordered by its free column; the result is empty exactly when the
        matrix is nonsingular.
        """
        square, factor = self._square_factor()
        basis = []
        for f, top in enumerate(factor.pivots):
            if not top:
                v = factor.solve([-x for x in square.rows[f]])
                v[f] = Fraction(1)
                basis.append(_primitive_integral(v))
        return tuple(basis)

    def solve(self, b: Sequence) -> Optional[tuple[Fraction, ...]]:
        """Solve Mx = b exactly, reading the factor of M^2.

        Returns ``None`` when ``b`` is outside the column space.  When the
        system is underdetermined, returns the unique solution orthogonal to
        the kernel (the minimum-norm one), so the output is deterministic.
        As M is symmetric, that is the solution in the column space: M y
        for any y with M^2 y = b, which exists exactly when Mx = b is
        solvable.  The y taken is 0 at M's free columns.
        """
        if len(b) != self.n:
            raise InputError(f"rhs has length {len(b)}, expected {self.n}")
        rhs = tuple([as_rational(x) for x in b])
        x = self.apply(self._square_factor()[1].solve(rhs))
        return x if self.apply(x) == rhs else None

    def ldl(self, indices: Optional[Collection[int]] = None) -> "LDL":
        """The elimination of the principal block on the distinct
        ``indices`` (default: all) in one order, ``LDL.order``: those meeting
        the fewest others in the block first, ties by index, so a hub goes
        last and fills nothing in.  The matrix is immutable, so it keeps
        each factor, keyed by the block's set: any order reads it back."""
        block = range(len(self._diag)) if indices is None else indices
        key = frozenset(block)
        if len(key) < len(block):
            raise InputError("indices must be distinct")
        factor = self._factors.get(key)
        if factor is None:
            # two curves meet equally often; _eliminate refuses a bad index
            order = sorted(key)
            if len(order) > 2 and 0 <= order[0] and order[-1] < len(self._diag):
                order.sort(key=lambda i: len(key.intersection(self._off[i])))
            factor = self._factors[key] = self._eliminate(order)
        return factor

    def _eliminate(self, idx: Sequence[int]) -> "LDL":
        """The elimination of the block on ``idx`` in the given order,
        without the memo of :meth:`ldl`, in integers, updating only nonzero
        entries.  A one-curve block [d] is its own pivot, read off with no
        set-up.

        With s_p the lcm of the denominators in row p of the block M, and g
        the content of S M S (1 when every s_p is), A = S M S / g is an
        integer matrix congruent to a positive multiple of M, so it has M's
        inertia (Sylvester's law).  Scaling row by row keeps A's minors
        about as long as M's, where one lcm for the whole block would
        lengthen every row by the denominators of all the others.

        Once a nonsingular principal set K is eliminated, the Schur
        complement's entry (i, j) is det A[K+i, K+j] / det A[K] (Sylvester's
        identity; Bareiss), so each entry is kept as that integer numerator
        with the minor det A[K] it is over.  A step updates only the entries
        it changes, and every other one is lifted to the current minor when
        read: both are exact divisions, as the results are minors of A.

        The inertia does not depend on the pivot order (Sylvester's law), so
        position p is eliminated in order: on itself if its diagonal entry
        is nonzero, else after a neighbour with a nonzero one, else with its
        first neighbour q as a hyperbolic 2x2 block [[0,t],[t,0]], which
        contributes (1,1,0); the update then runs over supp(u) x supp(v)
        only, u and v the rows of p and q off the block.  A zero row is a
        zero eigenvalue no later step changes.  While every step is an
        in-order pivot or zero row, the record of :class:`LDL` is kept; a
        negative definite block keeps it all (Sylvester's criterion).
        """
        n = len(self._diag)
        for i in idx:
            if not 0 <= i < n:
                raise InputError(f"index {i} out of range for n={n}")
        if len(idx) == 1:
            d = self._diag[idx[0]]
            s = d.denominator
            top = d.numerator * s
            content = _content((s,), (top,))
            return LDL(
                tuple(idx), (int(top > 0), int(top < 0), int(not top)),
                (s,), content, (1,), (top // content,), ((),),
            )
        position = {node: p for p, node in enumerate(idx)}
        if len(position) < len(idx):
            raise InputError("indices must be distinct")
        # entry numerators, each kept with the minor it is over; None marks
        # an eliminated diagonal entry
        num, off, scales, content = _scaled_block(self, idx, position)
        over = [1] * len(idx)
        minor = 1  # det A[K]
        columns: list[tuple[tuple[int, int], ...]] = []
        pivots: list[int] = []
        minors: list[int] = []
        in_order = True
        plus = minus = 0
        for p0 in range(len(idx)):
            while num[p0] is not None:
                pivot = p0 if num[p0] else next((q for q in off[p0] if num[q]), None)
                if pivot is not None:
                    top = _lift(num[pivot], over[pivot], minor)
                    num[pivot] = None
                    if (top > 0) == (minor > 0):
                        plus += 1
                    else:
                        minus += 1
                    col = sorted(_take(off, pivot, minor).items())
                    for a, (q, nq) in enumerate(col):
                        x = _lift(num[q], over[q], minor)
                        num[q] = (top * x - nq * nq) // minor
                        over[q] = top
                        row = off[q]
                        for r, nr in col[a + 1:]:
                            x = _lift(*row.get(r, (0, minor)), minor)
                            _put(off, q, r, (top * x - nq * nr) // minor, top)
                    in_order = in_order and pivot == p0
                    if in_order:
                        columns.append(tuple(col))
                        pivots.append(top)
                        minors.append(minor)
                    minor = top
                    continue
                num[p0] = None
                if not off[p0]:
                    if in_order:
                        columns.append(())
                        pivots.append(0)
                        minors.append(minor)
                    break
                in_order = False
                up = _take(off, p0, minor)
                q0 = next(iter(up))
                t = up.pop(q0)
                num[q0] = None
                plus += 1
                minus += 1
                uq = _take(off, q0, minor)
                # det A[K+p+q] = -t^2 / det A[K]; entry (r, s) becomes
                # t (u_r v_s + v_r u_s - t N_rs) / det A[K]^2
                square = minor * minor
                step = -(t * t) // minor
                for r, ur in up.items():
                    for s, vs in uq.items():
                        if r == s:
                            x = _lift(num[r], over[r], minor)
                            num[r] = t * (2 * ur * vs - t * x) // square
                            over[r] = step
                        elif not (s < r and s in up and r in uq):  # once a pair
                            x = _lift(*off[r].get(s, (0, minor)), minor)
                            cross = ur * vs + uq.get(r, 0) * up.get(s, 0)
                            _put(off, r, s, t * (cross - t * x) // square, step)
                minor = step
        return LDL(
            tuple(idx), (plus, minus, len(idx) - plus - minus), tuple(scales),
            content, tuple(minors), tuple(pivots), tuple(columns),
        )

    def negative_definite_ldl(
        self, indices: Optional[Collection[int]] = None
    ) -> Optional["LDL"]:
        """The :meth:`ldl` factor of the principal block on ``indices``, or
        ``None`` when the block is not negative definite."""
        factor = self.ldl(indices)
        return factor if factor.inertia[1] == len(factor.order) else None

    def inertia(self) -> tuple[int, int, int]:
        """Counts of (positive, negative, zero) eigenvalues, by :meth:`ldl`."""
        return self.ldl().inertia

    def is_negative_definite(self) -> bool:
        """True iff all eigenvalues are negative, read off the L D L^T
        factorisation; the empty matrix counts as negative definite."""
        return self.negative_definite_ldl() is not None


def _scaled_block(matrix: SymmetricMatrix, idx: list[int], position: dict):
    """The integer block A = S M S / g of :meth:`SymmetricMatrix._eliminate`:
    its diagonal, its rows of (numerator, 1), S and g (1 when S is).  When
    the whole matrix is integral (it finds that once), A is the block
    itself and no denominator is read."""
    if matrix._is_integral():
        num = [matrix._diag[node].numerator for node in idx]
        off = [
            {
                position[j]: (x.numerator, 1)
                for j, x in matrix._off[node].items()
                if j in position
            }
            for node in idx
        ]
        return num, off, [1] * len(idx), 1
    diag = [matrix._diag[node] for node in idx]
    off = [
        {position[j]: x for j, x in matrix._off[node].items() if j in position}
        for node in idx
    ]
    scales = [
        lcm(d.denominator, *[x.denominator for x in row.values()])
        for d, row in zip(diag, off)
    ]
    num = [d.numerator * (s * s // d.denominator) for d, s in zip(diag, scales)]
    off = [
        {q: x.numerator * (s * scales[q] // x.denominator) for q, x in row.items()}
        for s, row in zip(scales, off)
    ]
    content = _content(scales, [*num, *[v for row in off for v in row.values()]])
    num = [v // content for v in num]
    off = [{q: (v // content, 1) for q, v in row.items()} for row in off]
    return num, off, scales, content


def _content(scales: Sequence[int], entries: Sequence[int]) -> int:
    """The g of A = S M S / g, given S and the entries of S M S: their
    content, or 1 when S is (an integral block is kept as it is)."""
    return gcd(*entries) if max(scales, default=1) > 1 else 1


def _take(
    off: list[dict[int, tuple[int, int]]], i: int, minor: int
) -> dict[int, int]:
    """Remove row and column ``i`` from sparse symmetric storage and return
    the row's numerators over ``minor``."""
    row = off[i]
    off[i] = {}
    for j in row:
        del off[j][i]
    return {j: _lift(n, s, minor) for j, (n, s) in row.items()}


def _lift(n: int, over: int, minor: int) -> int:
    """The numerator ``n`` over the minor ``over``, read over ``minor``:
    an exact division, as the result is a minor of A too."""
    return n if over == minor else n * minor // over


def _put(off, i: int, j: int, value: int, minor: int) -> None:
    """Set the entry (i, j) and its mirror to ``value`` over ``minor``,
    dropping it when it is zero."""
    if value:
        off[i][j] = off[j][i] = (value, minor)
    else:
        off[i].pop(j, None)
        off[j].pop(i, None)


class LDL(Record):
    """The elimination of a principal block, from :meth:`SymmetricMatrix.ldl`.

    ``order`` lists the block's indices in the order eliminated; right-hand
    sides and solutions are indexed by position in it.  ``inertia`` counts
    the block's (positive, negative, zero) eigenvalues.  The rest is an
    integer record of the steps taken in order, which is the whole block M
    when every step was an in-order pivot or a zero row.  A = S M S / g is
    the integer block eliminated, with S the diagonal of ``scales`` and g
    the ``content``; with K the positions eliminated before p, ``minors[p]``
    is det A[K], ``pivots[p]`` is det A[K+p] (0 for a zero row) and
    ``columns[p]`` holds the nonzero (q, det A[K+q, K+p]) below it.
    """

    __slots__ = ("order", "inertia", "scales", "content", "minors", "pivots", "columns")

    def __init__(
        self, order: tuple[int, ...], inertia: tuple[int, int, int],
        scales: tuple[int, ...], content: int, minors: tuple[int, ...],
        pivots: tuple[int, ...], columns: tuple[tuple[tuple[int, int], ...], ...],
    ):
        self.order, self.inertia, self.scales = order, inertia, scales
        self.content, self.minors = content, minors
        self.pivots, self.columns = pivots, columns

    def solve(self, rhs: Sequence) -> list[Fraction]:
        """The x with M x = rhs: :meth:`solve_integral` on beta rhs, beta
        the lcm of its denominators, and one ``Fraction`` per nonzero x_p."""
        beta = lcm(*[v.denominator for v in rhs])
        b = [v.numerator * (beta // v.denominator) for v in rhs]
        nums, den = self.solve_integral(b)
        den *= beta
        return [Fraction(v, den) if v else _ZERO for v in nums]

    def solve_integral(self, b: Sequence[int]) -> tuple[list[int], int]:
        """Integer numerators X and a common denominator e with M (X / e) =
        b, for a complete record and an integer b, by fraction-free forward
        and back substitution: x is 0 at each zero pivot (a zero row, as in
        a semidefinite block) and solves the block on the rest.

        M x = b is A S^-1 x = S b / g.  The forward pass carries S b through
        the elimination as the minors det A[K+q, K+b] of [A | S b]; the back
        pass gives the Cramer numerators Z = det A[P] A[P, P]^-1 (S b)_P, P
        the nonzero pivots' places and det A[P] the last such pivot; and
        x = S Z / (g det A[P]).
        """
        w = [v * s for v, s in zip(b, self.scales)]
        over = [1] * len(w)
        pivots, minors, columns = self.pivots, self.minors, self.columns
        for p, column in enumerate(columns):
            if w[p]:
                minor = minors[p]
                wp = w[p] = _lift(w[p], over[p], minor)
                top = pivots[p]
                for q, nq in column:
                    w[q] = (top * _lift(w[q], over[q], minor) - nq * wp) // minor
                    over[q] = top
        det = (pivots[-1] or minors[-1]) if pivots else 1
        for p in range(len(w) - 1, -1, -1):  # w[q] becomes Z[q], q > p
            total = det * w[p]
            for q, nq in columns[p]:
                if w[q]:
                    total -= nq * w[q]
            w[p] = total // pivots[p] if pivots[p] else 0
        return [s * v for s, v in zip(self.scales, w)], self.content * det

    def null_vector(self) -> list[int]:
        """The primitive integral x with positive leading entry and L^T x a
        multiple of e_last.  When the record is complete and its last pivot
        is its only zero one, M x = L D L^T x = 0, so x spans the kernel.

        Back substitution in integers for the kernel y of A from y_last =
        minors[-1] = det A_RR, R the other positions: then y_R = -adj(A_RR)
        a_Rl is integral (Cramer), so every division is exact; x = S y.
        """
        y = [0] * len(self.order)
        y[-1] = self.minors[-1]
        for p in range(len(y) - 2, -1, -1):
            y[p] = -sum([n * y[q] for q, n in self.columns[p]]) // self.pivots[p]
        return list(_primitive([s * v for s, v in zip(self.scales, y)]))
