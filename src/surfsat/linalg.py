"""Exact rational linear algebra for symmetric matrices.

Everything here is exact: scalars are :class:`fractions.Fraction`, there is
no floating point anywhere, and all decisions (solvability, inertia,
definiteness) are made by symmetric elimination over Q.

Intersection matrices of curve configurations are sparse, so a matrix keeps
its diagonal and, per row, only the nonzero off-diagonal entries.  Building
one from entries, taking a principal block and the one elimination,
:meth:`SymmetricMatrix.ldl`, walk those entries; its inertia, L D L^T factor
and kernel vector answer every definiteness question.  The dense ``rows``
view is built only when asked for (by ``repr``, by the Gauss-Jordan
``solve`` and ``kernel_basis``, which no verdict uses, and by callers).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InputError

Rational = Fraction
_ZERO = Fraction(0)


def as_rational(value) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts ints, Fractions and strings like ``"2/3"`` or ``"-7"``.  Floats
    are rejected: they would silently destroy exactness.
    """
    if type(value) is Fraction:  # immutable, so the common case is free
        return value
    if isinstance(value, bool):
        raise InputError(f"expected a rational number, got boolean {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, float):
        raise InputError(
            f"float {value!r} is not exact; encode rationals as 'p/q' strings"
        )
    raise InputError(f"expected a rational number, got {type(value).__name__}")


def _primitive_integral(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to integer entries with content 1 and
    positive leading nonzero entry."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


class SymmetricMatrix:
    """Immutable symmetric matrix over the rationals.

    Stored sparsely: the diagonal, plus for every row a ``{column: value}``
    map of its nonzero off-diagonal entries.  :meth:`from_entries` builds
    one from a diagonal and off-diagonal entries in O(n + nnz); the dense
    ``rows`` view is built on first use.
    """

    __slots__ = ("_diag", "_off", "_rows")

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

    @classmethod
    def _from_sparse(
        cls, diag: tuple[Fraction, ...], off: tuple[dict[int, Fraction], ...]
    ) -> "SymmetricMatrix":
        """Adopt already symmetric storage with no zero off-diagonal entry."""
        matrix = cls.__new__(cls)
        matrix._diag = diag
        matrix._off = off
        matrix._rows = None
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

    def entry(self, i: int, j: int) -> Fraction:
        if i == j:
            return self._diag[i]
        if not 0 <= j < len(self._diag):
            raise IndexError(f"column {j} out of range for n={self.n}")
        return self._off[i].get(j, _ZERO)

    def off_diagonal(self, i: int) -> Mapping[int, Fraction]:
        """Read-only ``{column: value}`` map of the nonzero off-diagonal
        entries of row ``i``."""
        return MappingProxyType(self._off[i])

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

    def _rref(self, rhs: Optional[Sequence[Fraction]] = None):
        """Reduced row echelon form of [M | rhs]; returns (rows, pivots)."""
        n = self.n
        rows = [list(row) for row in self.rows]
        if rhs is not None:
            for i in range(n):
                rows[i].append(rhs[i])
        pivots: list[tuple[int, int]] = []
        r = 0
        for c in range(n):
            pr = next((i for i in range(r, n) if rows[i][c] != 0), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            pv = rows[r][c]
            rows[r] = [x / pv for x in rows[r]]
            for i in range(n):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append((r, c))
            r += 1
        return rows, pivots

    def kernel_basis(self) -> tuple[tuple[int, ...], ...]:
        """Basis of the null space, by Gauss-Jordan elimination.

        Each basis vector is primitive integral with positive leading entry,
        ordered by the free column it parametrises; the result is empty
        exactly when the matrix is nonsingular.
        """
        rows, pivots = self._rref()
        pivot_cols = {c for _, c in pivots}
        basis = []
        for f in range(self.n):
            if f in pivot_cols:
                continue
            v = [Fraction(0)] * self.n
            v[f] = Fraction(1)
            for pr, pc in pivots:
                v[pc] = -rows[pr][f]
            basis.append(_primitive_integral(v))
        return tuple(basis)

    def solve(self, b: Sequence) -> Optional[tuple[Fraction, ...]]:
        """Solve Mx = b exactly, by Gauss-Jordan elimination.

        Returns ``None`` when ``b`` is outside the column space.  When the
        system is underdetermined, returns the unique solution orthogonal to
        the kernel (the minimum-norm one), so the output is deterministic.
        As M is symmetric, that is the solution in the column space: M y
        for any y with M^2 y = b, which exists exactly when Mx = b is
        solvable.
        """
        if len(b) != self.n:
            raise InputError(f"rhs has length {len(b)}, expected {self.n}")
        square = SymmetricMatrix([self.apply(row) for row in self.rows])
        rows, pivots = square._rref([as_rational(x) for x in b])
        for i in range(len(pivots), self.n):
            if rows[i][self.n] != 0:
                return None
        y = [Fraction(0)] * self.n
        for pr, pc in pivots:
            y[pc] = rows[pr][self.n]
        return self.apply(y)

    def ldl(self, indices: Optional[Sequence[int]] = None) -> "LDL":
        """Eliminate the principal block on ``indices`` (default: all, in
        order).  A one-curve block [d] is its own pivot, read off with no
        set-up; a larger block goes to :meth:`_eliminate`.
        """
        idx = list(range(self.n)) if indices is None else list(indices)
        for i in idx:
            if not 0 <= i < self.n:
                raise InputError(f"index {i} out of range for n={self.n}")
        if len(idx) == 1:
            d = self._diag[idx[0]]
            sign = d.numerator
            return LDL(
                tuple(idx), ((),), (d,), (int(sign > 0), int(sign < 0), int(not sign))
            )
        return self._eliminate(idx)

    def _eliminate(self, idx: list[int]) -> "LDL":
        """:meth:`ldl` on the in-range indices ``idx``, of any length,
        updating only nonzero entries, so a chain has no fill.

        The inertia does not depend on the pivot order (Sylvester's law), so
        position p is eliminated in order: on itself if its diagonal entry
        is nonzero, else after a neighbour with a nonzero one, else with its
        first neighbour as a hyperbolic 2x2 block [[0,t],[t,0]], which
        contributes (1,1,0); with u, v its rows off the block, the update
        (u v^T + v u^T)/t runs over supp(u) x supp(v) only.  A zero row is
        a zero eigenvalue no later step changes.  While every step is an
        in-order pivot or zero row, its multipliers and pivot are recorded
        as L and D; a negative definite block records them all (Sylvester's
        criterion).
        """
        position = {node: p for p, node in enumerate(idx)}
        if len(position) < len(idx):
            raise InputError("indices must be distinct")
        diag = {p: self._diag[node] for p, node in enumerate(idx)}
        off = {
            p: {position[j]: x for j, x in self._off[node].items() if j in position}
            for p, node in enumerate(idx)
        }
        lower: list[tuple[tuple[int, Fraction], ...]] = []
        pivots: list[Fraction] = []
        in_order = True
        plus = minus = 0
        for p0 in range(len(idx)):
            while p0 in diag:
                pivot = p0 if diag[p0] else next((q for q in off[p0] if diag[q]), None)
                if pivot is not None:
                    d = diag.pop(pivot)
                    if d > 0:
                        plus += 1
                    else:
                        minus += 1
                    col = sorted(_detach(off, pivot).items())
                    multipliers = [(q, u / d) for q, u in col]
                    for a, (q, l) in enumerate(multipliers):
                        diag[q] -= l * col[a][1]
                        for r, w in col[a + 1:]:
                            _sub_off(off, q, r, l * w)
                    in_order = in_order and pivot == p0
                    if in_order:
                        lower.append(tuple(multipliers))
                        pivots.append(d)
                    continue
                del diag[p0]
                if not off[p0]:
                    if in_order:
                        lower.append(())
                        pivots.append(_ZERO)
                    break
                in_order = False
                q0, t = next(iter(off[p0].items()))
                del diag[q0]
                plus += 1
                minus += 1
                up = _detach(off, p0)
                del up[q0]
                uq = _detach(off, q0)
                for r, ur in up.items():
                    for s, vs in uq.items():
                        if r == s:
                            diag[r] -= 2 * ur * vs / t
                        else:
                            _sub_off(off, r, s, ur * vs / t)
        return LDL(
            tuple(idx), tuple(lower), tuple(pivots),
            (plus, minus, len(idx) - plus - minus),
        )

    def negative_definite_ldl(
        self, indices: Optional[Sequence[int]] = None
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


def _detach(off: dict[int, dict[int, Fraction]], i: int) -> dict[int, Fraction]:
    """Remove row and column ``i`` from sparse symmetric storage and return
    the row."""
    row = off.pop(i)
    for j in row:
        del off[j][i]
    return row


def _sub_off(off: dict[int, dict[int, Fraction]], i: int, j: int, value) -> None:
    """Subtract ``value`` from the off-diagonal entry (i, j) and its mirror,
    dropping the entry when it becomes zero."""
    if not value:
        return
    total = off[i].get(j, _ZERO) - value
    if total:
        off[i][j] = off[j][i] = total
    else:
        del off[i][j], off[j][i]


@dataclass(frozen=True)
class LDL:
    """The elimination of a principal block, from :meth:`SymmetricMatrix.ldl`.

    ``order`` lists the block's indices; right-hand sides and solutions are
    indexed by position in it.  ``inertia`` counts the block's (positive,
    negative, zero) eigenvalues.  ``lower[p]`` holds the nonzero multipliers
    (q, L[q][p]) below pivot p and ``diag`` the pivots, for the steps taken
    in order; when they cover every position, M = L D L^T.
    """

    order: tuple[int, ...]
    lower: tuple[tuple[tuple[int, Fraction], ...], ...]
    diag: tuple[Fraction, ...]
    inertia: tuple[int, int, int]

    def solve(self, rhs: Sequence[Fraction]) -> list[Fraction]:
        """The unique x with M x = rhs, by forward and back substitution."""
        x = list(rhs)
        for p, column in enumerate(self.lower):
            xp = x[p]
            if xp:
                for q, l in column:
                    x[q] -= l * xp
        for p, d in enumerate(self.diag):
            if x[p]:
                x[p] /= d
        for p in range(len(x) - 1, -1, -1):
            total = x[p]
            for q, l in self.lower[p]:
                if x[q]:
                    total -= l * x[q]
            x[p] = total
        return x

    def null_vector(self) -> list[Fraction]:
        """The x with L^T x = e_last, by back substitution.  When the factor
        is complete and its last pivot is its only zero one, M x = L D e_last
        = 0, so x spans the kernel."""
        x = [_ZERO] * len(self.order)
        x[-1] = Fraction(1)
        for p in range(len(x) - 2, -1, -1):
            x[p] = -sum((l * x[q] for q, l in self.lower[p]), _ZERO)
        return x
