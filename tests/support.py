"""Shared test helpers: independent brute-force oracles and random data.

Everything here is deliberately independent of the package's elimination
code: determinants come from cofactor expansion, inertia from principal
minors (leading-minor sign chains over permutations, with the
characteristic-polynomial sign-variation method as the general fallback),
connectivity from a fresh union-find, and torsion from plain repeated
addition.  Dense-row oracles read adjacency, disjointness, principal
blocks and the second-fibre witness off the dense Gram view, which the
package's sparse storage only builds on request; the claims oracle tries
every triple of claims with the dense disjointness test.  The Zariski oracle is
the exhaustive sub-support enumeration the package replaced by the kernel
certificate.  The fibre-type oracles are the dense inertia and
Gauss-Jordan kernel and, after it, the L D L^T of all but the last node
with one Schur scalar; one elimination of the whole subject replaced
both.  ``oracle_negative_definite_ldl`` is the stand-alone factorisation
the package folded into that elimination, and ``oracle_ldl`` is that
elimination as it was in ``Fraction`` arithmetic, before it ran on integer
minors; ``oracle_null_vector`` and ``oracle_ldl_solve`` read its factor
over Q.  The contraction oracle is
the per-pullback Gauss-Jordan solve the package replaced by one L D L^T
factorisation per component.  ``dense_inertia``, ``oracle_solve`` and
``oracle_kernel_basis`` are the package's former eliminations on the
dense rows, ``oracle_square_solve`` is its former ``solve`` (Gauss-Jordan
on [M^2 | b], then M y), and the saturation oracle is the per-reader negative
definiteness loop the package replaced by one classification per
boundary component.  The affinisation-after-plan oracle carries out the
whole saturation plan, contracting through the checked public
``contract`` and classifying the saturated boundary afresh, where the
package reads the verdict off the boundary record when it can.
``ldl_lower`` and ``ldl_diag`` read the rational L and D of M = L D L^T
off an ``LDL`` record, for the tests that compare it with ``oracle_ldl``.  The point-sum oracle is the
package's former obstruction test: the on-curve test evaluated in
``Fraction`` arithmetic and the weighted sum always formed over Q, where
the package reduces the sum modulo a few primes first and checks points
by integer cross-multiplication.  The blown-up-cubic oracle is the
package's former ``hironaka`` surface: a tower of blowups and the pairing
of every pair of classes, where the package writes the lattice, the classes
and the dual graph down in closed form.  The schema oracle is the former
``parse_document``, which formatted every field's path and called one
helper per field on the success path and read a rational string with
``Fraction(str)`` (``oracle_as_rational``), and the rendering oracle is the
former recursive ``render_human``; ``oracle_dense_json`` is the former
``cli._dense_json``, the dense JSON rows that ``mumford`` put in its report
in place of the sparse induced matrix.  The record oracles are the package's
29 result records as the frozen dataclasses they were, before they became
slotted classes on ``surfsat.record.Record``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, is_dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from surfsat import (
    ClassRecord,
    CompactifiedSurface,
    Configuration,
    Divisor,
    ECPoint,
    FalseFibreClaim,
    FibreTypeReport,
    FibreVerdict,
    PreconditionError,
    SymmetricMatrix,
    TorsionStatus,
    affinisation_dimension,
    blowup,
    classify_fibre_type,
    configuration_from_classes,
    contract,
    projective_plane,
    saturation_plan,
)
from surfsat.configuration import CurveNode
from surfsat.elliptic import WeierstrassCurve
from surfsat.errors import InputError
from surfsat.fibres import (
    GroupLawObstruction,
    ZariskiReport,
    ZariskiViolation,
)
from surfsat.linalg import _primitive_integral, as_rational
from surfsat.nslattice import _integral_vector
from surfsat.schema import (
    _CERTIFICATE_KINDS,
    _TOP_LEVEL_KEYS,
    SCHEMA_VERSION,
    Document,
    EllipticSection,
    rational_to_json,
)


# -- determinants and principal minors (cofactor expansion) ------------


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    sign = 1
    for j in range(n):
        if rows[0][j] != 0:
            minor = [
                [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
            ]
            total += sign * Fraction(rows[0][j]) * det_cofactor(minor)
        sign = -sign
    return total


def det_bareiss_int(rows) -> int:
    """Fraction-free integer determinant (independent of the package's
    symmetric elimination)."""
    m = [[int(x) for x in row] for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det_gauss(rows) -> Fraction:
    """Plain row-elimination determinant over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return det


def _det_auto(rows):
    if all(Fraction(x).denominator == 1 for row in rows for x in row):
        return Fraction(det_bareiss_int(rows))
    return det_gauss(rows)


def principal_minor(matrix: SymmetricMatrix, subset):
    rows = [[matrix.entry(i, j) for j in subset] for i in subset]
    return det_cofactor(rows)


def principal_minor_fast(matrix: SymmetricMatrix, subset):
    rows = [[matrix.entry(i, j) for j in subset] for i in subset]
    return _det_auto(rows)


def oracle_inertia_minors_fast(matrix: SymmetricMatrix):
    """Same principal-minor/Descartes oracle as oracle_inertia_charpoly,
    with elimination-based determinants for speed on bigger panels."""
    n = matrix.n
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        ek = Fraction(0)
        for subset in itertools.combinations(range(n), k):
            ek += principal_minor_fast(matrix, subset)
        coeffs.append((-1) ** k * ek)
    zeros = 0
    while zeros < n and coeffs[n - zeros] == 0:
        zeros += 1
    nonzero = [c for c in coeffs[: n - zeros + 1] if c != 0]
    plus = sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))
    return (plus, n - zeros - plus, zeros)


def oracle_negative_definite_fast(matrix: SymmetricMatrix) -> bool:
    """Sylvester: all leading principal minors of -M positive."""
    for k in range(1, matrix.n + 1):
        rows = [[-matrix.entry(i, j) for j in range(k)] for i in range(k)]
        if _det_auto(rows) <= 0:
            return False
    return True


def oracle_negative_semidefinite(matrix: SymmetricMatrix) -> bool:
    """M is negative semidefinite iff every principal minor of -M is >= 0."""
    n = matrix.n
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            rows = [[-matrix.entry(i, j) for j in subset] for i in subset]
            if det_cofactor(rows) < 0:
                return False
    return True


def oracle_negative_definite(matrix: SymmetricMatrix) -> bool:
    """Leading principal minors of -M all positive (Sylvester)."""
    for k in range(1, matrix.n + 1):
        rows = [[-matrix.entry(i, j) for j in range(k)] for i in range(k)]
        if det_cofactor(rows) <= 0:
            return False
    return True


# -- inertia oracles ----------------------------------------------------


def charpoly_signs(matrix: SymmetricMatrix):
    """Coefficients of det(tI - M) via sums of principal minors."""
    n = matrix.n
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        ek = Fraction(0)
        for subset in itertools.combinations(range(n), k):
            ek += principal_minor(matrix, subset)
        coeffs.append((-1) ** k * ek)
    return coeffs


def oracle_inertia_charpoly(matrix: SymmetricMatrix):
    """Inertia from Descartes' rule on the characteristic polynomial.

    All roots are real for a symmetric matrix, so the number of sign
    variations counts the positive eigenvalues exactly; trailing zero
    coefficients count the zero eigenvalues.
    """
    coeffs = charpoly_signs(matrix)
    n = matrix.n
    zeros = 0
    while zeros < n and coeffs[n - zeros] == 0:
        zeros += 1
    nonzero = [c for c in coeffs[: n - zeros + 1] if c != 0]
    plus = sum(
        1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0)
    )
    return (plus, n - zeros - plus, zeros)


def oracle_inertia_leading_minors(matrix: SymmetricMatrix):
    """Sign changes of leading principal minors, after a symmetric
    permutation making all pivots nonzero.

    Returns None when no ordering of the rows/columns gives nonzero leading
    minors through the rank (e.g. [[0,1],[1,0]]), in which case the
    characteristic-polynomial oracle still applies.
    """
    n = matrix.n
    rank = n - oracle_inertia_charpoly(matrix)[2]
    if rank == 0:
        return (0, 0, n)
    for perm in itertools.permutations(range(n)):
        minors = [Fraction(1)]
        ok = True
        for k in range(1, rank + 1):
            d = principal_minor(matrix, perm[:k])
            if d == 0:
                ok = False
                break
            minors.append(d)
        if not ok:
            continue
        changes = sum(
            1
            for a, b in zip(minors, minors[1:])
            if (a > 0) != (b > 0)
        )
        return (rank - changes, changes, n - rank)
    return None


def dense_inertia(matrix: SymmetricMatrix):
    """Inertia by dense symmetric elimination on the rows: full pivoting on
    the largest diagonal entry, with the hyperbolic 2x2 block when every
    remaining diagonal entry vanishes.  The package's elimination before it
    walked the sparse entries."""
    n = matrix.n
    work = [list(row) for row in matrix.rows]
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


def _gauss_jordan(matrix: SymmetricMatrix, rhs=None):
    """Reduced row echelon form of [M | rhs]; returns (rows, pivots) with
    pivots as (row, column) pairs."""
    n = matrix.n
    rows = [list(row) for row in matrix.rows]
    if rhs is not None:
        for i in range(n):
            rows[i].append(rhs[i])
    pivots = []
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


def _kernel_from_gauss_jordan(n, rows, pivots):
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(n):
        if f in pivot_cols:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for pr, pc in pivots:
            v[pc] = -rows[pr][f]
        basis.append(_primitive_integral(v))
    return tuple(basis)


def oracle_kernel_basis(matrix: SymmetricMatrix):
    """Null space by Gauss-Jordan on [M]: one primitive integral vector
    with positive leading entry per free column, in column order."""
    return _kernel_from_gauss_jordan(matrix.n, *_gauss_jordan(matrix))


def oracle_solve(matrix: SymmetricMatrix, b):
    """Mx = b by Gauss-Jordan on [M | b]; ``None`` when unsolvable, and for
    singular M the particular solution minus its projection on the kernel,
    found by solving the kernel's Gram matrix."""
    n = matrix.n
    rhs = [Fraction(x) for x in b]
    rows, pivots = _gauss_jordan(matrix, rhs)
    rank = len(pivots)
    for i in range(rank, n):
        if rows[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for pr, pc in pivots:
        x[pc] = rows[pr][n]
    if rank < n:
        kernel = _kernel_from_gauss_jordan(n, rows, pivots)
        gram = SymmetricMatrix(
            [[sum(u[i] * v[i] for i in range(n)) for v in kernel] for u in kernel]
        )
        proj = [sum(v[i] * x[i] for i in range(n)) for v in kernel]
        coeffs = oracle_solve(gram, proj)
        assert coeffs is not None  # kernel Gram is positive definite
        for c, v in zip(coeffs, kernel):
            for i in range(n):
                x[i] -= c * v[i]
    return tuple(x)


def oracle_square_solve(matrix: SymmetricMatrix, b):
    """The package's former ``solve``: Gauss-Jordan on [M^2 | b], y 0 on
    the free columns, and M y; ``None`` when the system is unsolvable."""
    n = matrix.n
    square = SymmetricMatrix([matrix.apply(row) for row in matrix.rows])
    rows, pivots = _gauss_jordan(square, [Fraction(x) for x in b])
    if any(rows[i][n] != 0 for i in range(len(pivots), n)):
        return None
    y = [Fraction(0)] * n
    for pr, pc in pivots:
        y[pc] = rows[pr][n]
    return matrix.apply(y)


def is_negative_semidefinite(matrix: SymmetricMatrix) -> bool:
    """No positive eigenvalue, by the dense elimination."""
    return dense_inertia(matrix)[0] == 0


# -- graph oracle --------------------------------------------------------


def oracle_components(config: Configuration, subset):
    """Connected components via union-find, independent of the BFS in the
    package."""
    nodes = sorted(subset)
    parent = {i: i for i in nodes}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in nodes:
        for b in nodes:
            if a < b and config.gram.entry(a, b) > 0:
                parent[find(a)] = find(b)
    groups = {}
    for i in nodes:
        groups.setdefault(find(i), set()).add(i)
    return sorted((frozenset(g) for g in groups.values()), key=min)


# -- dense-row oracles ----------------------------------------------------


def dense_adjacent(config: Configuration, i, j) -> bool:
    """Adjacency read off the dense Gram rows."""
    return i != j and config.gram.rows[i][j] > 0


def dense_disjoint(config: Configuration, a, b) -> bool:
    """No shared node and no positive dense Gram entry across the sets."""
    rows = config.gram.rows
    if set(a) & set(b):
        return False
    return all(rows[i][j] <= 0 for i in a for j in b)


def oracle_disjoint_triple(claims, config: Configuration):
    """The package's former claims check: the first pairwise disjoint
    triple of ``itertools.combinations`` over the distinct claims, sorted
    by subject, tested on the dense Gram; ``None`` when there is none."""
    unique = {}
    for claim in claims:
        unique.setdefault(claim.subject, claim)
    distinct = sorted(unique.values(), key=lambda c: sorted(c.subject))
    for triple in itertools.combinations(distinct, 3):
        if all(
            dense_disjoint(config, a.subject, b.subject)
            for a, b in itertools.combinations(triple, 2)
        ):
            return triple
    return None


def dense_restrict(matrix: SymmetricMatrix, indices):
    """Dense rows of the principal submatrix on ``indices``, in order."""
    rows = matrix.rows
    return tuple(tuple(rows[i][j] for j in indices) for i in indices)


def oracle_second_fibre_witness(surface):
    """The drop-one loop the package shortcuts: one negative definiteness
    test per inner curve, inner curves found by dense adjacency."""
    config = surface.ambient
    inner = [
        i
        for i in sorted(surface.interior_curves)
        if not any(dense_adjacent(config, i, b) for b in surface.boundary)
    ]
    for drop in inner:
        rest = [i for i in inner if i != drop]
        block = SymmetricMatrix(dense_restrict(config.gram, rest))
        if rest and not oracle_negative_definite_fast(block):
            names = config.names(rest)
            return (
                f"supplied interior curves contain two different divisors "
                f"that are not negative definite (e.g. {names} and all inner "
                "curves); a trivial-affinisation surface allows at most one"
            )
    return None


# -- contraction oracle ---------------------------------------------------


def oracle_pullback(config: Configuration, exceptional, strict) -> Divisor:
    """Mumford's pullback by one Gauss-Jordan solve (``oracle_solve``, not
    the L D L^T factorisation) per component of E and divisor, with
    right-hand sides from the divisor pairing."""
    total = strict
    for component in oracle_components(config, exceptional):
        nodes = sorted(component)
        rhs = [-config.intersection_number(strict, Divisor.of(j)) for j in nodes]
        if all(v == 0 for v in rhs):
            continue
        coeffs = oracle_solve(config.gram_on(nodes), rhs)
        assert coeffs is not None  # negative definite => nonsingular
        total = total + Divisor(dict(zip(nodes, coeffs)))
    return total


def oracle_contract(config: Configuration, exceptional):
    """Remaining node ids, the induced Gram rows and the pullbacks of the
    remaining curves, each Gram entry paired as pullback(a) . b."""
    remaining = [i for i in range(config.n) if i not in exceptional]
    pullbacks = [
        oracle_pullback(config, exceptional, Divisor.of(i)) for i in remaining
    ]
    rows = [
        [config.intersection_number(pb, Divisor.of(b)) for b in remaining]
        for pb in pullbacks
    ]
    return remaining, rows, pullbacks


# -- fibre-type oracle ----------------------------------------------------


def oracle_classify_fibre_type(config: Configuration, subject):
    """Fibre type by the dense inertia of the whole subject and, when it is
    singular, the Gauss-Jordan kernel basis: the verdict and kernel the
    package now reads off one elimination of the subject.  Returns
    (verdict, kernel vector in sorted node order or None, kernel
    dimension)."""
    nodes = sorted(set(subject))
    if not config.is_connected(nodes):
        return FibreVerdict.DISCONNECTED, None, None
    gram = config.gram_on(nodes)
    plus, _, zero = dense_inertia(gram)
    if plus > 0:
        return FibreVerdict.NOT_SEMIDEFINITE, None, None
    if zero == 0:
        return FibreVerdict.NEGATIVE_DEFINITE, None, None
    basis = oracle_kernel_basis(gram)
    return FibreVerdict.FIBRE_TYPE, basis[0], len(basis)


def oracle_negative_definite_ldl(matrix: SymmetricMatrix, indices=None):
    """The package's former negative definite factorisation: L D L^T of the
    principal block on ``indices`` without pivoting, on the upper triangle
    only, stopping at the first pivot >= 0.  Returns (order, lower, diag)
    in the layout of ``LDL``, or ``None`` when the block is not negative
    definite."""
    idx = list(range(matrix.n)) if indices is None else list(indices)
    position = {node: p for p, node in enumerate(idx)}
    diag = [matrix.entry(node, node) for node in idx]
    upper = []
    for p, node in enumerate(idx):
        row = {}
        for j, x in matrix.off_diagonal(node).items():
            q = position.get(j)
            if q is not None and q > p:
                row[q] = x
        upper.append(row)
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
    return tuple(idx), tuple(lower), tuple(diag)


def oracle_ldl(matrix: SymmetricMatrix, indices=None):
    """The package's former ``ldl``: the same pivot order (in order, a
    neighbour's pivot, the hyperbolic 2x2 step, zero rows) on dict storage
    of ``Fraction`` entries, each update paying a gcd.  Returns (order,
    lower, diag, inertia) in the layout of ``LDL``'s views."""
    idx = list(range(matrix.n)) if indices is None else list(indices)
    position = {node: p for p, node in enumerate(idx)}
    if len(position) < len(idx):
        raise InputError("indices must be distinct")
    diag = {p: matrix.entry(node, node) for p, node in enumerate(idx)}
    off = {
        p: {
            position[j]: x
            for j, x in matrix.off_diagonal(node).items()
            if j in position
        }
        for p, node in enumerate(idx)
    }

    def detach(i):
        row = off.pop(i)
        for j in row:
            del off[j][i]
        return row

    def sub_off(i, j, value):
        if not value:
            return
        total = off[i].get(j, Fraction(0)) - value
        if total:
            off[i][j] = off[j][i] = total
        else:
            del off[i][j], off[j][i]

    lower, pivots = [], []
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
                col = sorted(detach(pivot).items())
                multipliers = [(q, u / d) for q, u in col]
                for a, (q, l) in enumerate(multipliers):
                    diag[q] -= l * col[a][1]
                    for r, w in col[a + 1:]:
                        sub_off(q, r, l * w)
                in_order = in_order and pivot == p0
                if in_order:
                    lower.append(tuple(multipliers))
                    pivots.append(d)
                continue
            del diag[p0]
            if not off[p0]:
                if in_order:
                    lower.append(())
                    pivots.append(Fraction(0))
                break
            in_order = False
            q0, t = next(iter(off[p0].items()))
            del diag[q0]
            plus += 1
            minus += 1
            up = detach(p0)
            del up[q0]
            uq = detach(q0)
            for r, ur in up.items():
                for s, vs in uq.items():
                    if r == s:
                        diag[r] -= 2 * ur * vs / t
                    else:
                        sub_off(r, s, ur * vs / t)
    inertia = (plus, minus, len(idx) - plus - minus)
    return tuple(idx), tuple(lower), tuple(pivots), inertia


def ldl_lower(factor):
    """The rational L of M = L D L^T read off an ``LDL`` record: for each
    pivot p, the nonzero multipliers (q, L[q][p]) below it.  With M = g
    S^-1 A S^-1, L = S^-1 L_A S."""
    s = factor.scales
    return tuple([
        tuple([(q, Fraction(n * s[p], top * s[q])) for q, n in column])
        for p, (column, top) in enumerate(zip(factor.columns, factor.pivots))
    ])


def ldl_diag(factor):
    """The rational D of M = L D L^T read off an ``LDL`` record, D = g
    S^-2 D_A: the pivots of M."""
    return tuple([
        Fraction(factor.content * top, minor * s * s)
        for top, minor, s in zip(factor.pivots, factor.minors, factor.scales)
    ])


def oracle_null_vector(lower):
    """The former ``LDL.null_vector``: x with L^T x = e_last, by back
    substitution over Q."""
    x = [Fraction(0)] * len(lower)
    x[-1] = Fraction(1)
    for p in range(len(x) - 2, -1, -1):
        x[p] = -sum((l * x[q] for q, l in lower[p]), Fraction(0))
    return x


def oracle_ldl_solve(lower, diag, rhs):
    """Forward substitution, the pivots, back substitution."""
    x = list(rhs)
    for p, column in enumerate(lower):
        for q, l in column:
            x[q] -= l * x[p]
    x = [v / d for v, d in zip(x, diag)]
    for p in range(len(x) - 1, -1, -1):
        x[p] -= sum((l * x[q] for q, l in lower[p]), Fraction(0))
    return x


def oracle_classify_connected(config: Configuration, nodes) -> FibreTypeReport:
    """The package's former classification of a sorted, connected node
    list: one L D L^T of the nodes minus the last, ``R``, and one Schur
    scalar.  R is negative definite unless the subject is not negative
    semidefinite (Zariski's lemma); then x = -M_RR^-1 m_Rl, and the sign of
    s = m_ll + m_lR x decides, with kernel (x, 1) when s = 0."""
    subject = frozenset(nodes)
    *rest, last = nodes
    factor = oracle_negative_definite_ldl(config.gram, rest)
    if factor is None:
        return FibreTypeReport(subject, FibreVerdict.NOT_SEMIDEFINITE)
    _, lower, diag = factor
    column = [config.gram.entry(i, last) for i in rest]
    x = oracle_ldl_solve(lower, diag, [-m for m in column])
    schur = config.gram.entry(last, last) + sum(m * v for m, v in zip(column, x))
    if schur < 0:
        return FibreTypeReport(subject, FibreVerdict.NEGATIVE_DEFINITE)
    if schur > 0:
        return FibreTypeReport(subject, FibreVerdict.NOT_SEMIDEFINITE)
    kernel = Divisor(dict(zip(nodes, _primitive_integral([*x, Fraction(1)]))))
    return FibreTypeReport(subject, FibreVerdict.FIBRE_TYPE, kernel)


# -- saturation oracle ---------------------------------------------------


def oracle_saturation_partition(surface):
    """(negative definite, other) boundary components, one negative
    definiteness test of each component's Gram block: the loop every
    reader ran before the package classified each component once."""
    d_minus, d_plus = [], []
    for comp in surface.ambient.connected_components(surface.boundary):
        if surface.ambient.gram_on(comp).is_negative_definite():
            d_minus.append(comp)
        else:
            d_plus.append(comp)
    return tuple(d_minus), tuple(d_plus)


def oracle_apply_plan(surface, plan):
    """The saturation plan carried out in full: the checked ``contract``
    and a new surface whose boundary record is built afresh."""
    if not plan.d_minus:
        return CompactifiedSurface(
            surface.ambient, surface.boundary, 0, surface.false_fibre_claims,
            surface.fibration_asserted,
        )
    contracted = contract(surface.ambient, plan.d_minus)
    removed = frozenset().union(*plan.d_minus)
    new_id = {old: new for new, old in enumerate(contracted.ambient_ids)}
    return CompactifiedSurface(
        ambient=contracted.configuration,
        boundary=frozenset(new_id[i] for i in surface.boundary - removed),
        isolated_boundary_points=0,
        false_fibre_claims=tuple(
            FalseFibreClaim(
                frozenset(new_id[i] for i in claim.subject), claim.certificate
            )
            for claim in surface.false_fibre_claims
        ),
        fibration_asserted=surface.fibration_asserted,
    )


def oracle_affinisation_after_plan(surface):
    """The affinisation dimension of the saturation, always classified on
    the contracted surface: ``affinisation_dimension(apply_plan(s,
    saturation_plan(s)))`` as the CLI computed it before it read the
    verdict off the boundary record."""
    return affinisation_dimension(
        oracle_apply_plan(surface, saturation_plan(surface))
    )


# -- Zariski oracle -------------------------------------------------------


def oracle_validate_zariski(config: Configuration, subject) -> ZariskiReport:
    """Zariski's lemma by enumeration: after the fibre-type check, test the
    kernel for uniqueness and every nonempty proper sub-support for negative
    definiteness, 2^n - 2 eliminations in all.  Keep n small."""
    nodes = sorted(set(subject))
    report = classify_fibre_type(config, nodes)
    if report.verdict is not FibreVerdict.FIBRE_TYPE:
        return ZariskiReport(
            status="violations",
            violations=(ZariskiViolation(report.verdict.value, tuple(nodes)),),
            note="subject is not of fibre type",
        )
    violations = []
    _, _, zero = config.gram_on(nodes).inertia()
    if zero != 1:
        violations.append(ZariskiViolation("kernel-not-unique", tuple(nodes)))
    for size in range(1, len(nodes)):
        for combo in itertools.combinations(nodes, size):
            if not config.gram_on(combo).is_negative_definite():
                violations.append(
                    ZariskiViolation("proper-subset-not-negative-definite", combo)
                )
    violations.sort(key=lambda v: v.subset)
    if violations:
        return ZariskiReport(status="violations", violations=tuple(violations))
    return ZariskiReport(status="ok")


# -- torsion oracle -----------------------------------------------------


def oracle_is_torsion(curve, point) -> TorsionStatus:
    """Torsion by brute force: add the point to itself twelve times and
    stop at the first multiple of an admissible rational torsion order
    (1..10, 12) that is the identity.  No integrality screening."""
    admissible = set(range(1, 11)) | {12}
    running = ECPoint.infinity()
    for n in range(1, 13):
        running = _oracle_add(curve, running, point)
        if running.is_infinity and n in admissible:
            return TorsionStatus(True, n)
    return TorsionStatus(False)


def oracle_contains(curve, point) -> bool:
    """The curve equation evaluated as written, in ``Fraction`` arithmetic."""
    if point.is_infinity:
        return True
    x, y = point.x, point.y
    return (
        y * y + curve.a1 * x * y + curve.a3 * y
        == x ** 3 + curve.a2 * x * x + curve.a4 * x + curve.a6
    )


def _oracle_add(curve, p, q):
    """Chord-tangent addition in ``Fraction`` arithmetic, points unchecked."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x and p.y + q.y + curve.a1 * q.x + curve.a3 == 0:
        return ECPoint.infinity()
    if p.x == q.x:
        num = 3 * p.x * p.x + 2 * curve.a2 * p.x + curve.a4 - curve.a1 * p.y
        slope = num / (2 * p.y + curve.a1 * p.x + curve.a3)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    offset = p.y - slope * p.x
    x3 = slope * slope + curve.a1 * slope - curve.a2 - p.x - q.x
    return ECPoint.affine(x3, -(slope + curve.a1) * x3 - offset - curve.a3)


class _OracleOverBudget(Exception):
    pass


def oracle_exact_torsion(curve, points, budget) -> TorsionStatus:
    """The exact stage in ``Fraction`` arithmetic, the budget read off the
    reduced coordinates: the weighted sum of ``points`` by one joint
    double-and-add (the same points formed in the same order), then at
    most twelve multiples with the Nagell-Lutz exit 4x, 8y in Z on the
    integral model.  ``Undecided(bits>budget)`` as soon as a point formed
    (a multiple only once it passes the integrality test) has a numerator
    or denominator past ``budget`` bits."""
    coefficients = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
    u = lcm(*(c.denominator for c in coefficients))
    admissible = set(range(1, 11)) | {12}

    def formed(point):
        if not point.is_infinity and max(
            point.x.numerator.bit_length(),
            point.x.denominator.bit_length(),
            point.y.numerator.bit_length(),
            point.y.denominator.bit_length(),
        ) > budget:
            raise _OracleOverBudget
        return point

    try:
        total = ECPoint.infinity()
        for bit in reversed(range(max(m for _, m in points).bit_length())):
            total = formed(_oracle_add(curve, total, total))
            for point, mult in points:
                if mult >> bit & 1:
                    total = formed(_oracle_add(curve, total, point))
        running = ECPoint.infinity()
        for n in range(1, 13):
            running = _oracle_add(curve, running, total)
            if running.is_infinity:
                if n in admissible:
                    return TorsionStatus(True, n)
            elif (4 * u * u) % running.x.denominator or (
                8 * u ** 3
            ) % running.y.denominator:
                break
            else:
                formed(running)
    except _OracleOverBudget:
        return TorsionStatus(False, bound=budget)
    return TorsionStatus(False)


def oracle_reduced_order(curve, points, p):
    """The least k <= 12 with k S = O for the reduction S of sum m P at p,
    else None: each m P formed in F_p by its own double-and-add, with the
    coefficients reduced as written.  The identity is None."""
    a1, a2, a3, a4 = (
        c.numerator * pow(c.denominator, -1, p) % p
        for c in (curve.a1, curve.a2, curve.a3, curve.a4)
    )

    def add(first, second):
        if first is None:
            return second
        if second is None:
            return first
        x1, y1 = first
        x2, y2 = second
        if x1 == x2:
            den = (y1 + y2 + a1 * x1 + a3) % p
            if not den:
                return None
            slope = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * pow(den, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (slope * slope + a1 * slope - a2 - x1 - x2) % p
        return x3, (slope * (x1 - x3) - y1 - a1 * x3 - a3) % p

    total = None
    for point, mult in points:
        x, y = point.x, point.y
        doubling = (
            x.numerator * pow(x.denominator, -1, p) % p,
            y.numerator * pow(y.denominator, -1, p) % p,
        )
        while mult:
            if mult & 1:
                total = add(total, doubling)
            mult >>= 1
            if mult:
                doubling = add(doubling, doubling)
    running = total
    for k in range(1, 13):
        if running is None:
            return k
        running = add(running, total)
    return None


def oracle_sum_obstruction(curve, points):
    """``(found, total, torsion)`` for the weighted sum of ``points``: the
    sum formed over Q by double-and-add, then at most twelve multiples of
    it, stopping at an admissible torsion order (1..10, 12) or at the first
    multiple that fails the Nagell-Lutz integrality 4x, 8y in Z on the
    integral model."""
    if not points:
        raise PreconditionError("need at least one point")
    seen = []
    for point, mult in points:
        if point.is_infinity:
            raise PreconditionError("blown-up points must be affine")
        if not oracle_contains(curve, point):
            raise PreconditionError(
                f"{point!r} does not satisfy the curve equation"
            )
        if not isinstance(mult, int) or mult < 1:
            raise PreconditionError(
                f"multiplicity must be a positive integer, got {mult!r}"
            )
        if point in seen:
            raise PreconditionError(
                f"repeated point {point!r}; points must be distinct"
            )
        seen.append(point)
    total = ECPoint.infinity()
    for point, mult in points:
        multiple, doubling = ECPoint.infinity(), point
        while mult:
            if mult & 1:
                multiple = _oracle_add(curve, multiple, doubling)
            mult >>= 1
            if mult:
                doubling = _oracle_add(curve, doubling, doubling)
        total = _oracle_add(curve, total, multiple)
    coefficients = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
    u = lcm(*(c.denominator for c in coefficients))
    admissible = set(range(1, 11)) | {12}
    torsion = TorsionStatus(False)
    running = ECPoint.infinity()
    for n in range(1, 13):
        running = _oracle_add(curve, running, total)
        if running.is_infinity:
            if n in admissible:
                torsion = TorsionStatus(True, n)
                break
        elif (4 * u * u) % running.x.denominator or (
            8 * u ** 3
        ) % running.y.denominator:
            break
    return not torsion.torsion, total, torsion


def oracle_hironaka_surface(n):
    """``(lattice, cubic, exceptionals, configuration, C^2)`` for the plane
    blown up at n points of a cubic, by the package's former construction:
    n ``blowup`` calls that each pass the cubic once, the dual graph from
    all pairings of the classes, and C^2 from one more pairing."""
    lattice = projective_plane()
    cubic = ClassRecord("C", (3,), genus=1)
    exceptionals = []
    for i in range(n):
        listed = [(cubic, 1)] + [(e, 0) for e in exceptionals]
        result = blowup(lattice, listed, name=f"E{i + 1}")
        lattice = result.lattice
        cubic = result.classes[0]
        exceptionals = list(result.classes[1:]) + [result.exceptional]
    config = configuration_from_classes(lattice, [cubic] + exceptionals)
    return (
        lattice,
        cubic,
        tuple(exceptionals),
        config,
        lattice.self_intersection(cubic),
    )


# -- schema and rendering oracles ----------------------------------------


def _oracle_expect(data, type_, path):
    if not isinstance(data, type_) or isinstance(data, bool) and type_ is not bool:
        wanted = type_.__name__ if isinstance(type_, type) else str(type_)
        raise InputError(
            f"expected {wanted}, got {type(data).__name__}", path=path
        )
    return data


_ORACLE_RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def oracle_as_rational(value) -> Fraction:
    """The package's former ``as_rational``: a string that matches the
    pattern is converted by ``Fraction(str)``, which parses it again."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise InputError(f"expected a rational number, got boolean {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if _ORACLE_RATIONAL_STRING.fullmatch(value):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                pass
        raise InputError(f"cannot parse rational from {value!r}")
    if isinstance(value, float):
        raise InputError(
            f"float {value!r} is not exact; encode rationals as 'p/q' strings"
        )
    raise InputError(f"expected a rational number, got {type(value).__name__}")


def _oracle_rational(value, path) -> Fraction:
    try:
        return oracle_as_rational(value)
    except InputError as exc:
        raise InputError(str(exc), path=path) from exc


def _oracle_fields(entry, allowed, path):
    _oracle_expect(entry, dict, path=path)
    extra = set(entry) - allowed
    if extra:
        raise InputError(f"unknown keys {sorted(extra)}", path=path)
    return entry


def _oracle_count(value, least, what, path) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        sign = "positive" if least else "nonnegative"
        raise InputError(
            f"{what} must be a {sign} integer, got {value!r}".lstrip(), path=path
        )
    return value


def _oracle_curve(name, index_of, path) -> int:
    _oracle_expect(name, str, path=path)
    if name not in index_of:
        raise InputError(f"unknown curve {name!r}", path=path)
    return index_of[name]


def oracle_parse_document(data) -> Document:
    """The package's former ``parse_document``: one helper call and one
    formatted path string per field, whether or not the field is valid."""
    _oracle_expect(data, dict, path="$")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise InputError(
            f"unknown keys {sorted(unknown)}; expected a subset of "
            f"{sorted(_TOP_LEVEL_KEYS)}",
            path="$",
        )
    version = data.get("schema_version", SCHEMA_VERSION)
    # only the integer itself: True and 1.0 compare equal to 1
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InputError(
            f"unsupported schema_version {version!r} (this build reads "
            f"{SCHEMA_VERSION})",
            path="schema_version",
        )

    curves = _oracle_expect(data.get("curves", []), list, path="curves")
    nodes, diagonal = [], []
    index_of: dict[str, int] = {}
    for i, entry in enumerate(curves):
        path = f"curves[{i}]"
        _oracle_fields(entry, {"name", "genus", "self", "proper"}, path)
        name = _oracle_expect(entry.get("name"), str, path=f"{path}.name")
        genus = _oracle_count(entry.get("genus", 0), 0, "genus", f"{path}.genus")
        if "self" not in entry:
            raise InputError("missing self-intersection", path=f"{path}.self")
        diagonal.append(_oracle_rational(entry["self"], path=f"{path}.self"))
        proper = _oracle_expect(
            entry.get("proper", True), bool, path=f"{path}.proper"
        )
        if name in index_of:
            raise InputError(f"duplicate curve name {name!r}", path=f"{path}.name")
        index_of[name] = i
        nodes.append(CurveNode(i, name, genus=genus, proper=proper))

    inters = _oracle_expect(
        data.get("intersections", []), list, path="intersections"
    )
    triples = []
    seen_pairs = set()
    for k, entry in enumerate(inters):
        path = f"intersections[{k}]"
        _oracle_expect(entry, list, path=path)
        if len(entry) != 3:
            raise InputError("expected [i, j, value]", path=path)
        pair = []
        for pos, ref in enumerate(entry[:2]):
            at = f"{path}[{pos}]"
            if isinstance(ref, str):
                ref = _oracle_curve(ref, index_of, at)
            elif not isinstance(ref, int) or isinstance(ref, bool):
                raise InputError(
                    f"curve reference must be an index or name, got {ref!r}", path=at
                )
            elif not 0 <= ref < len(nodes):
                raise InputError(f"curve index {ref} out of range", path=at)
            pair.append(ref)
        value = _oracle_rational(entry[2], path=f"{path}[2]")
        if value < 0:
            raise InputError(
                "distinct curves cannot meet negatively", path=f"{path}[2]"
            )
        key = (min(pair), max(pair))
        if key in seen_pairs:
            raise InputError(
                f"pair ({nodes[key[0]].name!r}, {nodes[key[1]].name!r}) listed twice",
                path=path,
            )
        seen_pairs.add(key)
        triples.append((pair[0], pair[1], value))

    if any(i == j for i, j, _ in triples):
        raise InputError(
            "self-intersections belong in the curve entry, not in "
            "'intersections'",
            path="intersections",
        )
    config = Configuration(nodes, SymmetricMatrix.from_entries(diagonal, triples))

    boundary_names = _oracle_expect(data.get("boundary", []), list, path="boundary")
    boundary = {
        _oracle_curve(name, index_of, f"boundary[{k}]")
        for k, name in enumerate(boundary_names)
    }
    points = _oracle_count(
        data.get("isolated_boundary_points", 0), 0, "", "isolated_boundary_points"
    )

    claims = []
    raw_claims = _oracle_expect(
        data.get("false_fibre_claims", []), list, path="false_fibre_claims"
    )
    for k, entry in enumerate(raw_claims):
        path = f"false_fibre_claims[{k}]"
        _oracle_fields(entry, {"subject", "certificate"}, path)
        subject_names = _oracle_expect(
            entry.get("subject"), list, path=f"{path}.subject"
        )
        subject = frozenset(
            _oracle_curve(name, index_of, f"{path}.subject[{m}]")
            for m, name in enumerate(subject_names)
        )
        if not subject:
            raise InputError("subject must be nonempty", path=f"{path}.subject")
        cert_data = entry.get("certificate", "user-asserted")
        if isinstance(cert_data, str):
            cert_data = {"kind": cert_data}
        _oracle_expect(cert_data, dict, path=f"{path}.certificate")
        kind = cert_data.get("kind")
        if not isinstance(kind, str) or kind not in _CERTIFICATE_KINDS:
            raise InputError(
                f"unknown certificate kind {kind!r}; expected one of "
                f"{sorted(_CERTIFICATE_KINDS)}",
                path=f"{path}.certificate.kind",
            )
        _oracle_fields(
            cert_data,
            {"kind", "reference"} if kind == "group-law-obstruction" else {"kind"},
            f"{path}.certificate",
        )
        if kind == "group-law-obstruction":
            reference = cert_data.get("reference", "")
            _oracle_expect(reference, str, path=f"{path}.certificate.reference")
            certificate = GroupLawObstruction(reference=reference)
        else:
            certificate = _CERTIFICATE_KINDS[kind]()
        claims.append(FalseFibreClaim(subject, certificate))

    fibration = data.get("fibration_asserted", False)
    _oracle_expect(fibration, bool, path="fibration_asserted")

    elliptic = None
    if "elliptic" in data and data["elliptic"] is not None:
        section = _oracle_fields(data["elliptic"], {"curve", "points"}, "elliptic")
        curve_data = _oracle_fields(
            section.get("curve"), {"a1", "a2", "a3", "a4", "a6"}, "elliptic.curve"
        )
        coeffs = {
            key: _oracle_rational(
                curve_data.get(key, 0), path=f"elliptic.curve.{key}"
            )
            for key in ("a1", "a2", "a3", "a4", "a6")
        }
        try:
            curve = WeierstrassCurve(**coeffs)
        except InputError as exc:
            raise InputError(str(exc), path="elliptic.curve") from exc
        raw_points = _oracle_expect(
            section.get("points", []), list, path="elliptic.points"
        )
        ec_points = []
        for k, entry in enumerate(raw_points):
            path = f"elliptic.points[{k}]"
            _oracle_fields(entry, {"x", "y", "m"}, path)
            if "x" not in entry or "y" not in entry:
                raise InputError("point needs x and y", path=path)
            x = _oracle_rational(entry["x"], path=f"{path}.x")
            y = _oracle_rational(entry["y"], path=f"{path}.y")
            mult = _oracle_count(entry.get("m", 1), 1, "multiplicity", f"{path}.m")
            point = ECPoint.affine(x, y)
            if not curve.contains(point):
                raise InputError(
                    f"point ({x}, {y}) is not on the curve", path=path
                )
            ec_points.append((point, mult))
        elliptic = EllipticSection(curve=curve, points=tuple(ec_points))

    surface = CompactifiedSurface(
        ambient=config,
        boundary=frozenset(boundary),
        isolated_boundary_points=points,
        false_fibre_claims=tuple(claims),
        fibration_asserted=fibration,
    )
    return Document(surface=surface, elliptic=elliptic)


def _oracle_flatten(prefix: str, value, lines: list[str]) -> None:
    if isinstance(value, dict):
        if not value:
            lines.append(f"{prefix}: {{}}")
        for key in sorted(value):
            _oracle_flatten(f"{prefix}.{key}" if prefix else key, value[key], lines)
    elif isinstance(value, list):
        if not value:
            lines.append(f"{prefix}: []")
        elif all(not isinstance(v, (dict, list)) for v in value):
            lines.append(f"{prefix}: {', '.join(str(v) for v in value)}")
        else:
            for idx, item in enumerate(value):
                _oracle_flatten(f"{prefix}[{idx}]", item, lines)
    else:
        lines.append(f"{prefix}: {value}")


def oracle_render_human(report: dict) -> str:
    """The package's former human renderer: one recursive call, and one
    generator per scalar list, for every leaf of the report; an empty
    object below the top level prints as ``{}``, as an empty list prints
    as ``[]``."""
    lines: list[str] = []
    for key in ("command", "verdict"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    for key in sorted(report):
        if key not in ("command", "verdict"):
            _oracle_flatten(key, report[key], lines)
    return "\n".join(lines)


def oracle_dense_json(gram) -> list:
    """JSON rows of a matrix, converting only its nonzero entries."""
    out = []
    for i, d in enumerate(gram.diag):
        row = [0] * len(gram.diag)
        for j, x in gram.off_diagonal(i).items():
            row[j] = rational_to_json(x)
        row[i] = rational_to_json(d)
        out.append(row)
    return out


# -- record oracles --------------------------------------------------------
# The package's 29 result records as the frozen dataclasses they were, with
# the checks and coercions of their ``__post_init__`` and their own
# ``__repr__``/``__str__``; other methods are left out.  Each is named
# ``Oracle`` + the package's class name, and ``RECORD_ORACLES`` lists them.


@dataclass(frozen=True)
class OracleCurveNode:
    id: int
    name: str
    genus: int = 0
    proper: bool = True

    def __post_init__(self):
        if self.genus < 0:
            raise InputError(f"curve {self.name!r} has negative genus {self.genus}")


@dataclass(frozen=True)
class OracleLDL:
    order: tuple[int, ...]
    inertia: tuple[int, int, int]
    scales: tuple[int, ...]
    content: int
    minors: tuple[int, ...]
    pivots: tuple[int, ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class OracleFibreTypeReport:
    subject: frozenset[int]
    verdict: FibreVerdict
    kernel: Optional[Divisor] = None
    # positive eigenvalues of the Gram; None for a disconnected subject
    positive: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class OracleUserAsserted:
    """The user vouches that the divisor supports no fibre of a fibration."""


@dataclass(frozen=True)
class OracleNormalBundleNonTorsion:
    """A degree-zero, non-torsion normal bundle rules out supporting a fibre."""


@dataclass(frozen=True)
class OracleGroupLawObstruction:
    reference: str


@dataclass(frozen=True)
class OracleFalseFibreClaim:
    subject: frozenset[int]
    certificate: Certificate

    def __post_init__(self):
        object.__setattr__(self, "subject", frozenset(self.subject))


@dataclass(frozen=True)
class OracleZariskiViolation:
    kind: str
    subset: tuple[int, ...]


@dataclass(frozen=True)
class OracleZariskiReport:
    status: str  # "ok" | "violations"
    violations: tuple[ZariskiViolation, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class OracleProportionalityReport:
    proportional: bool
    ratio: Optional[Fraction] = None
    witness: Optional[Divisor] = None


@dataclass(frozen=True)
class OracleClaimsReport:
    ok: bool
    disjoint_triple: Optional[tuple[FalseFibreClaim, FalseFibreClaim, FalseFibreClaim]] = None


@dataclass(frozen=True)
class OracleContractionContext:
    ambient: Configuration
    exceptional: frozenset[int]

    def __post_init__(self):
        exceptional = frozenset(self.exceptional)
        object.__setattr__(self, "exceptional", exceptional)
        components = self.ambient.connected_components(exceptional)
        # E is block diagonal over its components, so it is negative
        # definite iff every component's factorisation succeeds
        if any(self.ambient.gram.negative_definite_ldl(c) is None for c in components):
            raise PreconditionError(
                "exceptional set "
                f"{self.ambient.names(exceptional)} is not negative definite; "
                "only negative definite curve sets are contractible"
            )
        object.__setattr__(self, "_components", components)


@dataclass(frozen=True)
class OracleSingularPoint:
    name: str
    contracted_nodes: frozenset[int]
    contracted_names: tuple[str, ...]


@dataclass(frozen=True)
class OracleContractedConfiguration:
    configuration: Configuration
    ambient_ids: tuple[int, ...]
    singular_points: tuple[SingularPoint, ...]
    # pullbacks[i] is the pullback of ambient curve ambient_ids[i]
    pullbacks: tuple[Divisor, ...]


@dataclass(frozen=True)
class OracleCompactifiedSurface:
    ambient: Configuration
    boundary: frozenset[int]
    isolated_boundary_points: int = 0
    false_fibre_claims: tuple[FalseFibreClaim, ...] = ()
    fibration_asserted: bool = False

    def __post_init__(self):
        object.__setattr__(self, "boundary", frozenset(self.boundary))
        object.__setattr__(
            self, "false_fibre_claims", tuple(self.false_fibre_claims)
        )
        for i in self.boundary:
            if not 0 <= i < self.ambient.n:
                raise PreconditionError(f"boundary node {i} does not exist")
        if self.isolated_boundary_points < 0:
            raise PreconditionError("isolated point count cannot be negative")
        improper = [n.name for n in self.ambient.nodes if not n.proper]
        if improper:
            raise PreconditionError(
                f"ambient curves must all be proper; got improper {improper}"
            )


@dataclass(frozen=True)
class OracleSaturationVerdict:
    saturated: bool
    offending_components: tuple[frozenset[int], ...]
    isolated_points: int
    criterion: str = "no-negative-definite-component"


@dataclass(frozen=True)
class OracleSaturationPlan:
    d_minus: tuple[frozenset[int], ...]
    d_plus: tuple[frozenset[int], ...]
    points_to_remove: int
    resulting_boundary_ok: bool


@dataclass(frozen=True)
class OracleAffDimReport:
    verdict: AffDim
    reasons: tuple[tuple[str, str], ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class OracleSchemeSaturationReport:
    verdict: SchemeSaturationVerdict
    contractible: tuple[frozenset[int], ...] = ()
    unknown: tuple[frozenset[int], ...] = ()
    note: str = ""


@dataclass(frozen=True)
class OracleClassRecord:
    name: str
    vector: tuple[int, ...]
    genus: int = 0

    def __post_init__(self):
        if self.genus < 0:
            raise InputError(f"class {self.name!r} has negative genus")
        object.__setattr__(
            self, "vector", _integral_vector(self.vector, f"class {self.name!r}")
        )


@dataclass(frozen=True)
class OracleNSLattice:
    basis_names: tuple[str, ...]
    gram: SymmetricMatrix
    canonical: tuple[int, ...]

    def __post_init__(self):
        if self.gram.n != len(self.basis_names):
            raise InputError("gram dimension does not match basis size")
        if len(self.canonical) != len(self.basis_names):
            raise InputError("canonical class has wrong dimension")
        gram = self.gram
        if any(
            gram.entry(i, i).denominator != 1
            or any(x.denominator != 1 for x in gram.off_diagonal(i).values())
            for i in range(gram.n)
        ):
            raise InputError("lattice pairing must be integral")
        rank = self.gram.n
        if self.gram.inertia() != (1, rank - 1, 0):
            raise InputError(
                f"lattice pairing must have signature (1,{rank - 1}), got "
                f"inertia {self.gram.inertia()}"
            )
        object.__setattr__(
            self, "canonical", _integral_vector(self.canonical, "canonical class")
        )


@dataclass(frozen=True)
class OracleBlowupResult:
    lattice: NSLattice
    classes: tuple[ClassRecord, ...]
    exceptional: ClassRecord


@dataclass(frozen=True)
class OracleWeierstrassCurve:
    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)
    a3: Fraction = Fraction(0)
    a4: Fraction = Fraction(0)
    a6: Fraction = Fraction(0)

    def __post_init__(self):
        coefficients = []
        for name in ("a1", "a2", "a3", "a4", "a6"):
            value = as_rational(getattr(self, name))
            object.__setattr__(self, name, value)
            coefficients.append(value)
        u = lcm(*(c.denominator for c in coefficients))
        # the integral model's coefficients a_i u^i
        c1, c2, c3, c4, c6 = (
            c.numerator * (u // c.denominator) * u ** (power - 1)
            for c, power in zip(coefficients, (1, 2, 3, 4, 6))
        )
        b2 = c1 * c1 + 4 * c2
        b4 = 2 * c4 + c1 * c3
        b6 = c3 * c3 + 4 * c6
        b8 = c1 * c1 * c6 + 4 * c2 * c6 - c1 * c3 * c4 + c2 * c3 * c3 - c4 * c4
        delta = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if delta == 0:
            raise InputError("curve is singular (discriminant vanishes)")
        object.__setattr__(self, "_u", u)
        object.__setattr__(self, "_integral", (c1, c2, c3, c4, c6))
        object.__setattr__(self, "_integral_discriminant", delta)
        object.__setattr__(self, "_lifts", {})


@dataclass(frozen=True)
class OracleECPoint:
    x: Optional[Fraction] = None
    y: Optional[Fraction] = None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise InputError("affine point needs both coordinates")
        if self.x is not None:
            object.__setattr__(self, "x", as_rational(self.x))
            object.__setattr__(self, "y", as_rational(self.y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "ECPoint(infinity)"
        return f"ECPoint({self.x}, {self.y})"


@dataclass(frozen=True)
class OracleTorsionStatus:
    torsion: bool
    order: Optional[int] = None
    # the bit budget the exact stage ran past; set only when undecided
    bound: Optional[int] = None

    def __str__(self) -> str:
        if self.bound is not None:
            return f"Undecided(bits>{self.bound})"
        return f"Torsion({self.order})" if self.torsion else "NonTorsion"


@dataclass(frozen=True)
class OracleObstructionReport:
    found: bool
    torsion: TorsionStatus
    curve: WeierstrassCurve = field(repr=False, compare=False)
    points: tuple[tuple[ECPoint, int], ...] = field(repr=False, compare=False)


@dataclass(frozen=True)
class OracleHironakaReport:
    n: int
    lattice: NSLattice
    cubic_class: ClassRecord
    exceptional_classes: tuple[ClassRecord, ...]
    boundary_self_intersection: Fraction
    surface: CompactifiedSurface
    obstruction: ObstructionReport
    saturation: SaturationVerdict
    plan: SaturationPlan
    scheme_saturation: SchemeSaturationReport
    affinisation: AffDimReport
    claim: Optional[FalseFibreClaim]


@dataclass(frozen=True)
class OracleEllipticSection:
    curve: WeierstrassCurve
    points: tuple[tuple[ECPoint, int], ...]


@dataclass(frozen=True)
class OracleDocument:
    surface: CompactifiedSurface
    elliptic: Optional[EllipticSection] = None


RECORD_ORACLES = {
    name.removeprefix("Oracle"): cls
    for name, cls in list(globals().items())
    if name.startswith("Oracle") and isinstance(cls, type) and is_dataclass(cls)
}


# -- fibre shapes ----------------------------------------------------------


def windmill_claims_document(claims: int, hubs: int) -> dict:
    """A document with a genus-1 0-curve as boundary and ``claims``
    false-fibre claims on (-2)-triangles, claim k on the triangle of curves
    A_k and B_k through the hub curve H_(k mod hubs).  Claims through one
    hub meet, so there is a pairwise disjoint triple iff hubs >= 3."""
    curves = [{"name": "D", "genus": 1, "self": 0}]
    curves += [{"name": f"H{h}", "self": -2} for h in range(hubs)]
    meets = []
    for k in range(claims):
        a = len(curves)
        curves += [{"name": f"A{k}", "self": -2}, {"name": f"B{k}", "self": -2}]
        meets += [[1 + k % hubs, a, 1], [1 + k % hubs, a + 1, 1], [a, a + 1, 1]]
    return {
        "curves": curves,
        "intersections": meets,
        "boundary": ["D"],
        "false_fibre_claims": [
            {
                "subject": [f"H{k % hubs}", f"A{k}", f"B{k}"],
                "certificate": "user-asserted",
            }
            for k in range(claims)
        ],
    }


def cycle(k):
    """Cycle of k rational (-2)-curves (k=2 meets in two points)."""
    if k == 1:
        return Configuration.build([("A0", 0)])
    if k == 2:
        return Configuration.build([("A0", -2), ("A1", -2)], [(0, 1, 2)])
    edges = [(i, (i + 1) % k, 1) for i in range(k)]
    return Configuration.build([(f"A{i}", -2) for i in range(k)], edges)


def tree(arms):
    """Star of (-2)-curves: a centre with chains of the given lengths."""
    curves = [("Z", -2)]
    edges = []
    for a, length in enumerate(arms):
        prev = 0
        for step in range(length):
            curves.append((f"T{a}_{step}", -2))
            edges.append((prev, len(curves) - 1, 1))
            prev = len(curves) - 1
    return Configuration.build(curves, edges)


def d_tilde(n):
    """Extended D_n: a chain of n - 3 (-2)-curves with two legs at each end."""
    chain = n - 3
    curves = [(f"C{i}", -2) for i in range(chain)] + [
        (f"L{i}", -2) for i in range(4)
    ]
    edges = [(i, i + 1, 1) for i in range(chain - 1)]
    edges += [(0, chain, 1), (0, chain + 1, 1)]
    edges += [(chain - 1, chain + 2, 1), (chain - 1, chain + 3, 1)]
    return Configuration.build(curves, edges)


def extended_dynkin():
    """Extended A, D and E diagrams of (-2)-curves."""
    return [cycle(k) for k in (2, 3, 5)] + [d_tilde(n) for n in (4, 6)] + [
        tree(arms) for arms in ((2, 2, 2), (3, 3, 1), (5, 2, 1))
    ]


# -- random data ---------------------------------------------------------


def random_symmetric_int(rng, n, lo=-2, hi=2) -> SymmetricMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return SymmetricMatrix(rows)


def random_symmetric_rational(rng, n, max_num=4, max_den=3) -> SymmetricMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
            rows[i][j] = rows[j][i] = value
    return SymmetricMatrix(rows)


def random_hyperbolic_gram(rng, rank):
    """Integral Gram matrix U^T diag(1, -1, ..., -1) U for a random
    unimodular integer U (rank >= 2), so signature (1, rank - 1) by
    Sylvester's law of inertia, and usually far from diagonal."""
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(3 * rank):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    d = [1] + [-1] * (rank - 1)
    rows = [
        [sum(u[k][a] * d[k] * u[k][b] for k in range(rank)) for b in range(rank)]
        for a in range(rank)
    ]
    return SymmetricMatrix(rows)


def random_configuration(rng, n, diag_lo=-4, diag_hi=4, edge_hi=2) -> Configuration:
    """Random dual graph: integer self-intersections, off-diagonals >= 0."""
    curves = [(f"C{i}", rng.randint(diag_lo, diag_hi)) for i in range(n)]
    inters = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                value = rng.randint(1, edge_hi)
                inters.append((i, j, value))
    return Configuration.build(curves, inters)


def random_negative_definite_configuration(rng, k, edge_hi=2) -> Configuration:
    """Strictly diagonally dominant with negative diagonal, off-diag >= 0,
    hence negative definite by Gershgorin."""
    edges = {}
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.5:
                edges[(i, j)] = rng.randint(1, edge_hi)
    curves = []
    for i in range(k):
        row_sum = sum(v for (a, b), v in edges.items() if i in (a, b))
        curves.append((f"E{i}", -(row_sum + rng.randint(1, 3))))
    return Configuration.build(curves, [(i, j, v) for (i, j), v in edges.items()])


def _random_tree_edges(rng, k):
    return [(rng.randrange(i), i) for i in range(1, k)]


def random_contraction_setup(rng):
    """A configuration with a negative definite set E of one to three
    components and a few further curves meeting it.

    Components are (-2)/(-3) chains, trees of (-2)/(-3)-curves, or
    diagonally dominant blocks with fractional self-intersections; node
    ids are shuffled, so components interleave and are not eliminated in
    chain order.  Returns (configuration, E, remaining node ids).
    """
    while True:
        blocks = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 7)
            kind = rng.choice(("chain", "tree", "fractional"))
            if kind == "chain":
                edges = [(i, i + 1) for i in range(k - 1)]
            else:
                edges = _random_tree_edges(rng, k)
            if kind == "fractional":
                degree = [sum(i in e for e in edges) for i in range(k)]
                diag = [
                    -degree[i] - Fraction(rng.randint(1, 5), rng.randint(1, 4))
                    for i in range(k)
                ]
            else:
                diag = [rng.choice((-2, -3)) for _ in range(k)]
            blocks.append((diag, edges))
        n_exc = sum(len(diag) for diag, _ in blocks)
        m = rng.randint(1, 4)
        ids = list(range(n_exc + m))
        rng.shuffle(ids)
        exc_ids, rest_ids = ids[:n_exc], ids[n_exc:]
        diag_of = {}
        inters = []
        offset = 0
        for diag, edges in blocks:
            nodes = exc_ids[offset:offset + len(diag)]
            offset += len(diag)
            diag_of.update(zip(nodes, diag))
            inters += [(nodes[a], nodes[b], 1) for a, b in edges]
        for r in rest_ids:
            diag_of[r] = rng.choice((-3, -2, -1, 0, 1, 2, Fraction(-1, 2)))
            inters += [
                (r, e, rng.choice((1, 1, 2, Fraction(1, 2))))
                for e in exc_ids
                if rng.random() < 0.3
            ]
        for a in range(m):
            for b in range(a + 1, m):
                if rng.random() < 0.3:
                    inters.append((rest_ids[a], rest_ids[b], rng.randint(1, 2)))
        curves = [(f"N{i}", diag_of[i]) for i in range(n_exc + m)]
        config = Configuration.build(curves, inters)
        exceptional = frozenset(exc_ids)
        if oracle_negative_definite_fast(config.gram_on(exceptional)):
            return config, exceptional, sorted(rest_ids)
