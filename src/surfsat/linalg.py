"""Exact rational linear algebra for symmetric matrices.

Everything here is exact: scalars are :class:`fractions.Fraction`, there is
no floating point anywhere, and all decisions (solvability, inertia,
definiteness) are made by symmetric elimination over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import InputError

Rational = Fraction


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
    """Immutable symmetric matrix over the rationals."""

    __slots__ = ("_rows",)

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
        self._rows = tuple(coerced)

    @classmethod
    def diagonal(cls, values: Sequence) -> "SymmetricMatrix":
        n = len(values)
        return cls(
            [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, SymmetricMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self._rows
        )
        return f"SymmetricMatrix[{body}]"

    def restrict(self, indices: Sequence[int]) -> "SymmetricMatrix":
        """Principal submatrix on ``indices`` (kept in the given order)."""
        idx = list(indices)
        for i in idx:
            if not 0 <= i < self.n:
                raise InputError(f"index {i} out of range for n={self.n}")
        return SymmetricMatrix([[self._rows[i][j] for j in idx] for i in idx])

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        if len(vec) != self.n:
            raise InputError(f"vector has length {len(vec)}, expected {self.n}")
        v = [as_rational(x) for x in vec]
        return tuple(
            sum((self._rows[i][j] * v[j] for j in range(self.n)), Fraction(0))
            for i in range(self.n)
        )

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
        rows = [list(self._rows[i]) for i in range(n)]
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

    def _kernel_from_rref(self, rows, pivots) -> tuple[tuple[int, ...], ...]:
        """Null space read off a reduced row echelon form of M (possibly
        augmented): one vector per free column, in column order."""
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

    def kernel_basis(self) -> tuple[tuple[int, ...], ...]:
        """Basis of the null space.

        Each basis vector is primitive integral with positive leading entry,
        ordered by the free column it parametrises; the result is empty
        exactly when the matrix is nonsingular.
        """
        return self._kernel_from_rref(*self._rref())

    def solve(self, b: Sequence) -> Optional[tuple[Fraction, ...]]:
        """Solve Mx = b exactly.

        Returns ``None`` when ``b`` is outside the column space.  When the
        system is underdetermined, returns the unique solution orthogonal to
        the kernel (the minimum-norm one), so the output is deterministic.
        The kernel comes from the same elimination, and only when M is
        singular.
        """
        if len(b) != self.n:
            raise InputError(f"rhs has length {len(b)}, expected {self.n}")
        rhs = [as_rational(x) for x in b]
        rows, pivots = self._rref(rhs)
        rank = len(pivots)
        for i in range(rank, self.n):
            if rows[i][self.n] != 0:
                return None
        x = [Fraction(0)] * self.n
        for pr, pc in pivots:
            x[pc] = rows[pr][self.n]
        if rank < self.n:
            kernel = self._kernel_from_rref(rows, pivots)
            gram = SymmetricMatrix(
                [
                    [sum(u[i] * v[i] for i in range(self.n)) for v in kernel]
                    for u in kernel
                ]
            )
            proj = [
                sum(v[i] * x[i] for i in range(self.n)) for v in kernel
            ]
            coeffs = gram.solve(proj)
            assert coeffs is not None  # kernel Gram is positive definite
            for c, v in zip(coeffs, kernel):
                for i in range(self.n):
                    x[i] -= c * v[i]
        return tuple(x)

    def negative_definite_ldl(
        self, indices: Optional[Sequence[int]] = None
    ) -> Optional["LDL"]:
        """Factorise the principal block on ``indices`` (default: all, in
        order) as L D L^T without pivoting, or return ``None`` when the block
        is not negative definite.

        Zero entries are skipped, so a chain eliminates with no fill.  By
        Sylvester's criterion the block is negative definite exactly when
        every pivot is negative, so the elimination stops at the first
        pivot >= 0.
        """
        idx = list(range(self.n)) if indices is None else list(indices)
        for i in idx:
            if not 0 <= i < self.n:
                raise InputError(f"index {i} out of range for n={self.n}")
        position = {node: p for p, node in enumerate(idx)}
        diag = []
        upper: list[dict[int, Fraction]] = []
        for p, node in enumerate(idx):
            row = self._rows[node]
            diag.append(row[node])
            upper.append({position[j]: row[j] for j in idx[p + 1:] if row[j]})
        lower = []
        for p, d in enumerate(diag):
            if d >= 0:
                return None
            col = sorted(upper[p].items())
            multipliers = []
            for a, (q, v) in enumerate(col):
                l = v / d
                multipliers.append((q, l))
                diag[q] -= l * v
                row_q = upper[q]
                for r, w in col[a + 1:]:
                    value = row_q.get(r, 0) - l * w
                    if value:
                        row_q[r] = value
                    else:
                        row_q.pop(r, None)
            lower.append(tuple(multipliers))
        return LDL(tuple(idx), tuple(lower), tuple(diag))

    def inertia(self) -> tuple[int, int, int]:
        """Counts of (positive, negative, zero) eigenvalues.

        Computed by exact symmetric elimination (Sylvester's law of inertia)
        with full symmetric pivoting on the largest diagonal entry.  When
        every remaining diagonal entry vanishes but the block is nonzero, an
        off-diagonal entry t gives a hyperbolic 2x2 block [[0,t],[t,0]] that
        contributes (1,1,0) and is eliminated by its own Schur complement.
        """
        n = self.n
        work = [[self._rows[i][j] for j in range(n)] for i in range(n)]
        active = list(range(n))
        plus = minus = zero = 0
        while active:
            pivot = None
            best = None
            for i in active:
                v = work[i][i]
                if v != 0 and (best is None or abs(v) > best):
                    best = abs(v)
                    pivot = i
            if pivot is not None:
                d = work[pivot][pivot]
                if d > 0:
                    plus += 1
                else:
                    minus += 1
                rest = [i for i in active if i != pivot]
                col = {i: work[i][pivot] for i in rest}
                for a, i in enumerate(rest):
                    if col[i] == 0:
                        continue
                    for j in rest[a:]:
                        if col[j] == 0:
                            continue
                        work[i][j] -= col[i] * col[j] / d
                        if i != j:
                            work[j][i] = work[i][j]
                active = rest
                continue
            block = None
            for a in range(len(active)):
                for b in range(a + 1, len(active)):
                    if work[active[a]][active[b]] != 0:
                        block = (active[a], active[b])
                        break
                if block:
                    break
            if block is None:
                zero += len(active)
                break
            i0, j0 = block
            t = work[i0][j0]
            plus += 1
            minus += 1
            rest = [i for i in active if i != i0 and i != j0]
            ui = {r: work[r][i0] for r in rest}
            uj = {r: work[r][j0] for r in rest}
            for a, r in enumerate(rest):
                for s in rest[a:]:
                    delta = (ui[r] * uj[s] + uj[r] * ui[s]) / t
                    if delta:
                        work[r][s] -= delta
                        if r != s:
                            work[s][r] = work[r][s]
            active = rest
        return (plus, minus, zero)

    def is_negative_definite(self) -> bool:
        """True iff all eigenvalues are negative, read off the L D L^T
        factorisation; the empty matrix counts as negative definite."""
        return self.negative_definite_ldl() is not None

    def is_negative_semidefinite(self) -> bool:
        plus, _, _ = self.inertia()
        return plus == 0


@dataclass(frozen=True)
class LDL:
    """M = L D L^T of a negative definite block, from
    :meth:`SymmetricMatrix.negative_definite_ldl`.

    ``order`` lists the factorised indices; right-hand sides and solutions
    are indexed by position in it.  ``lower[p]`` holds the nonzero
    multipliers (q, L[q][p]) below pivot p, ``diag`` the pivots.
    """

    order: tuple[int, ...]
    lower: tuple[tuple[tuple[int, Fraction], ...], ...]
    diag: tuple[Fraction, ...]

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
