"""Rational pullback along the contraction of negative definite curves.

Contracting a negative definite set E = {E_1, .., E_k} of proper curves
produces a normal surface whose intersection theory is computed upstairs:
a divisor D away from E pulls back to D + sum(a_i E_i) with the unique
rational coefficients making the pullback orthogonal to every E_i, and the
product of two divisors downstairs is the product of their pullbacks.

Each connected component of E is factorised once as L D L^T, which also
decides its negative definiteness; every pullback is then a forward and
back substitution against Gram rows, and the contracted Gram is the Schur
complement M_RR - M_RE M_EE^-1 M_ER.  :func:`contract` keeps only the
record that grows with the document: each part's factor, each remaining
curve's sparse integer column into each part, and the remaining ids.  A
remaining curve's induced row and its pullback are read off that record one
curve at a time, from one solve per part it meets, as integer numerators
over one denominator (``ContractedConfiguration._read``); the CLI prints
each row as it reads it, and ``Fraction``s are formed only when a caller
reads the result's ``configuration`` or ``pullbacks``.  The Gram keeps the
factor of every block it eliminates, so a part the boundary record has
classified is not eliminated again.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .configuration import Configuration, CurveNode, Divisor
from .errors import PreconditionError
from .linalg import SymmetricMatrix
from .record import Record

_ONE = Fraction(1)


class ContractionContext(Record):
    __slots__ = ("ambient", "exceptional", "_components")

    def __init__(self, ambient: Configuration, exceptional: Iterable[int]):
        exceptional = frozenset(exceptional)
        components = ambient.connected_components(exceptional)
        # E is block diagonal over its components, so it is negative
        # definite iff every component's factorisation succeeds
        if any(ambient.gram.negative_definite_ldl(c) is None for c in components):
            raise PreconditionError(
                "exceptional set "
                f"{ambient.names(exceptional)} is not negative definite; "
                "only negative definite curve sets are contractible"
            )
        self.ambient, self.exceptional = ambient, exceptional
        self._components = components


def pullback(ctx: ContractionContext, strict: Divisor) -> Divisor:
    """Extend ``strict`` by exceptional multiples orthogonal to all of E.

    Each component of E contributes M_EE^-1 applied to minus the Gram
    rows of ``strict``, read off the component's one factorisation;
    components that do not meet the divisor keep coefficient zero.
    """
    overlap = strict.support() & ctx.exceptional
    if overlap:
        raise PreconditionError(
            f"divisor is supported on exceptional curves "
            f"{ctx.ambient.names(overlap)}; pass its strict part instead"
        )
    coeffs = strict.coefficients
    for i in coeffs:
        if not 0 <= i < ctx.ambient.n:
            raise PreconditionError(f"divisor references unknown node {i}")
    gram = ctx.ambient.gram
    total = dict(coeffs)
    for comp in ctx._components:
        factor = gram.ldl(comp)  # read back from the Gram's memo
        position = {node: p for p, node in enumerate(factor.order)}
        rhs = [0] * len(position)
        for i, c in coeffs.items():
            for j, v in gram.off_diagonal(i).items():
                p = position.get(j)
                if p is not None:
                    rhs[p] -= c * v
        if any(rhs):
            total.update(zip(factor.order, factor.solve(rhs)))
    return Divisor(total)  # drops the zero coefficients


class SingularPoint(Record):
    """Marker for the point a contracted part maps to."""

    __slots__ = ("name", "contracted_nodes", "contracted_names")

    def __init__(
        self, name: str, contracted_nodes: frozenset[int],
        contracted_names: tuple[str, ...],
    ):
        self.name, self.contracted_nodes = name, contracted_nodes
        self.contracted_names = contracted_names


class ContractedConfiguration(Record):
    """The contracted surface.  :func:`contract`'s result holds its record
    in ``_exact`` and forms both ``Fraction`` fields on the first read of
    either, through :meth:`_read`."""

    # pullbacks[i] is the pullback of ambient curve ambient_ids[i]
    __slots__ = ("configuration", "ambient_ids", "singular_points", "pullbacks",
                 "_exact")

    def __init__(
        self, configuration: Configuration, ambient_ids: tuple[int, ...],
        singular_points: tuple[SingularPoint, ...], pullbacks: tuple[Divisor, ...],
    ):
        self.configuration, self.ambient_ids = configuration, ambient_ids
        self.singular_points, self.pullbacks = singular_points, pullbacks

    def __getattr__(self, name):
        # only an unset slot gets here: a field contract left to this read
        if name not in ("configuration", "pullbacks"):
            raise AttributeError(name)
        diag, off, pullbacks = [], [], []
        for a, (row, den, terms) in enumerate(self._read()):
            diag.append(Fraction(row.pop(a), den))
            off.append({b: Fraction(x, den) for b, x in row.items()})
            coeffs = {self.ambient_ids[a]: _ONE}
            for order, nums, over in terms:
                coeffs.update(zip(order, [Fraction(x, over) for x in nums]))
            pullbacks.append(Divisor._unchecked(coeffs))
        induced = SymmetricMatrix._from_sparse(tuple(diag), tuple(off))
        # ids 0..n-1, inherited names and genera, off-diagonal entries > 0
        config = self._exact[0]
        nodes = [config.nodes[old] for old in self.ambient_ids]
        nodes = [CurveNode(i, c.name, c.genus, c.proper) for i, c in enumerate(nodes)]
        self.configuration = Configuration._unchecked(nodes, induced)
        self.pullbacks = tuple(pullbacks)
        return getattr(self, name)

    def _read(self):
        """Each remaining curve's induced row and pullback, in id order,
        read off the record one curve at a time: ``(row, den, terms)``, with
        ``row`` the ``{new id: numerator}`` map over ``den`` of the row's
        diagonal and of each entry that the Gram or a part makes nonzero,
        and ``terms`` the pullback's ``(part order, numerators,
        denominator)`` on each part the curve meets.

        With u_b = q M_Eb the integer column of curve b into a part E (q
        the Gram's common denominator), the part's solve X_a / e of
        M_EE x = -u_a gives the pullback coefficients X_a / (e q), and the
        Schur complement entry S_ab = M_ab + X_a . u_b / (e q^2): one
        multiply-add per nonzero entry of u_b.  -M_EE is an irreducible
        nonsingular M-matrix, so X_a / e > 0 and an entry only grows: every
        pullback coefficient on E and every induced entry is positive.
        Each row is summed over one denominator, unreduced: each reader
        reduces an entry once."""
        config, scale, blocks, columns = self._exact
        gram = config.gram
        new_id = {old: new for new, old in enumerate(self.ambient_ids)}
        for a, old in enumerate(self.ambient_ids):
            solved = []
            den = scale * scale
            for k, u in columns[a]:
                factor, entries = blocks[k]
                rhs = [0] * len(factor.order)
                for p, v in u:
                    rhs[p] = -v
                nums, e = factor.solve_integral(rhs)
                solved.append((nums, e, entries, factor.order))
                den *= e
            d = gram.diag[old]
            row = {a: d.numerator * (den // d.denominator)}
            for j, x in gram.off_diagonal(old).items():
                if j in new_id:
                    row[new_id[j]] = x.numerator * (den // x.denominator)
            terms = []
            for nums, e, entries, order in solved:
                times = den // (e * scale * scale)
                scaled = nums if times == 1 else [x * times for x in nums]
                for b, p, v in entries:
                    # u_b is most often one entry 1, and S_ab then X_a[p]
                    x = scaled[p] if v == 1 else scaled[p] * v
                    row[b] = row[b] + x if b in row else x
                terms.append((order, nums, e * scale))
            yield row, den, terms


def contract(
    config: Configuration, parts: Sequence[Iterable[int]]
) -> ContractedConfiguration:
    """Contract disjoint negative definite connected node sets.

    Returns the configuration of the remaining curves under the induced
    product, with one singular-point marker per contracted part and the
    pullback of every remaining curve.  Each part is factorised once: the
    factorisation is its negative definiteness check, and it yields the
    pullbacks and the induced Gram as a Schur complement.
    """
    normalized = [frozenset(part) for part in parts]
    owner: dict[int, int] = {}
    factors = []
    for k, part in enumerate(normalized):
        if not part:
            raise PreconditionError("cannot contract an empty part")
        if not owner.keys().isdisjoint(part):
            raise PreconditionError("contracted parts must be pairwise disjoint")
        owner.update(dict.fromkeys(part, k))
        if not config.is_connected(part):
            raise PreconditionError(
                f"part {config.names(part)} is not connected"
            )
        factor = config.gram.negative_definite_ldl(part)
        if factor is None:
            raise PreconditionError(
                f"part {config.names(part)} is not negative definite, hence "
                "not contractible: connected components that are not negative "
                "definite are exactly the ones a saturated boundary keeps"
            )
        factors.append(factor)
    for a, part in enumerate(normalized):
        # the first meeting pair (a, b) in the order a < b
        met = [
            owner[j] for i in part for j in config.neighbours(i)
            if owner.get(j, a) > a
        ]
        if met:
            b = min(met)
            raise PreconditionError(
                f"parts {config.names(part)} and "
                f"{config.names(normalized[b])} meet; contract their "
                "union as a single connected part instead"
            )

    gram = config.gram
    remaining = [i for i in range(config.n) if i not in owner]
    new_id = {old: new for new, old in enumerate(remaining)}
    # the common denominator q of the Gram's entries, so q M is integral
    scale = 1 if gram._is_integral() else lcm(
        *[x.denominator for x in gram.diag],
        *[x.denominator for i in range(config.n) for x in gram.off_diagonal(i).values()],
    )
    # per part its factor and the nonzero entries (b, position, q M_Eb) of
    # the remaining columns u_b; per remaining curve a, each part k it
    # meets with u_a as (position, value) pairs
    blocks, columns = [], [[] for _ in remaining]
    for k, factor in enumerate(factors):
        entries = sorted([
            (new_id[j], p, x.numerator * (scale // x.denominator))
            for p, node in enumerate(factor.order)
            for j, x in gram.off_diagonal(node).items()
            if j in new_id
        ])
        for b, p, v in entries:  # by b, so a column's entries are adjacent
            if not columns[b] or columns[b][-1][0] != k:
                columns[b].append((k, []))
            columns[b][-1][1].append((p, v))
        blocks.append((factor, entries))
    result = ContractedConfiguration.__new__(ContractedConfiguration)
    result.ambient_ids = tuple(remaining)
    result.singular_points = tuple([
        SingularPoint(f"q{idx + 1}", part, config.names(part))
        for idx, part in enumerate(sorted(normalized, key=min))
    ])
    result._exact = (config, scale, blocks, columns)
    return result
