"""Rational pullback along the contraction of negative definite curves.

Contracting a negative definite set E = {E_1, .., E_k} of proper curves
produces a normal surface whose intersection theory is computed upstairs:
a divisor D away from E pulls back to D + sum(a_i E_i) with the unique
rational coefficients making the pullback orthogonal to every E_i, and the
product of two divisors downstairs is the product of their pullbacks.

Each connected component of E is factorised once as L D L^T, which also
decides its negative definiteness; every pullback is then a forward and
back substitution against Gram rows, and the contracted Gram is the Schur
complement M_RR - M_RE M_EE^-1 M_ER.  :func:`contract` keeps the Schur
complement and the pullbacks as integer numerators over each solve's
denominator and forms one ``Fraction`` per output entry.  The Gram keeps
the factor of every block it eliminates, so a part the boundary record has
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

    def components(self) -> tuple[frozenset[int], ...]:
        return self._components


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


def induced_product(ctx: ContractionContext, d1: Divisor, d2: Divisor) -> Fraction:
    """Intersection number on the contracted surface."""
    overlap = d2.support() & ctx.exceptional
    if overlap:
        raise PreconditionError(
            f"divisor is supported on exceptional curves "
            f"{ctx.ambient.names(overlap)}; pass its strict part instead"
        )
    p1 = pullback(ctx, d1)
    # Projection formula: the exceptional part of the second pullback pairs
    # to zero against p1, so pairing with the strict part suffices.
    return ctx.ambient.intersection_number(p1, d2)


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
    # pullbacks[i] is the pullback of ambient curve ambient_ids[i]
    __slots__ = ("configuration", "ambient_ids", "singular_points", "pullbacks")

    def __init__(
        self, configuration: Configuration, ambient_ids: tuple[int, ...],
        singular_points: tuple[SingularPoint, ...], pullbacks: tuple[Divisor, ...],
    ):
        self.configuration, self.ambient_ids = configuration, ambient_ids
        self.singular_points, self.pullbacks = singular_points, pullbacks


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
    diag = [gram.entry(old, old) for old in remaining]
    off = [
        {new_id[j]: v for j, v in gram.off_diagonal(old).items() if j in new_id}
        for old in remaining
    ]
    pullback_coeffs = [{old: _ONE} for old in remaining]
    # each changed Schur entry (a, b), b >= a, as sums[a][b] = (num, den)
    sums: dict[int, dict[int, tuple[int, int]]] = {}
    for factor in factors:
        position = {node: p for p, node in enumerate(factor.order)}
        # remaining curves meeting this component, with their nonzero Gram
        # entries on it by position
        touching: dict[int, dict[int, Fraction]] = {}
        for node in factor.order:
            for j, v in gram.off_diagonal(node).items():
                if j in new_id:
                    touching.setdefault(new_id[j], {})[position[node]] = v
        # M_Ea as integers u_a over their lcm l_a, and x_a = M_EE^-1 (-M_Ea)
        # as integer numerators X_a over e l_a, e the solve's denominator
        solved = []
        for a, entries in sorted(touching.items()):
            scale = lcm(*[v.denominator for v in entries.values()])
            u = {p: v.numerator * (scale // v.denominator) for p, v in entries.items()}
            rhs = [0] * len(position)
            for p, v in u.items():
                rhs[p] = -v
            nums, den = factor.solve_integral(rhs)
            solved.append((a, u, nums, den * scale, scale))
        for t, (a, _, nums, den, _) in enumerate(solved):
            coeffs = [Fraction(x, den) for x in nums]
            pullback_coeffs[a].update(zip(factor.order, coeffs))
            # Schur complement: pullback(a) . b = M_ab + X_a . u_b / (e l_a
            # l_b).  -M_EE is an irreducible nonsingular M-matrix, so x_a =
            # (-M_EE)^-1 M_Ea > 0 and the entry only grows: every pullback
            # coefficient on E and every induced entry is positive.
            row = sums.setdefault(a, {})
            for b, u, _, _, scale in solved[t:]:
                top = sum([nums[p] * v for p, v in u.items()])
                over = den * scale
                gram_ab = diag[a] if a == b else off[a].get(b, 0)
                n0, d0 = row.get(b) or gram_ab.as_integer_ratio()
                d = lcm(d0, over)
                row[b] = (n0 * (d // d0) + top * (d // over), d)
    for a, row in sums.items():
        diag[a] = Fraction(*row.pop(a))
        for b, (n, d) in row.items():
            off[a][b] = off[b][a] = Fraction(n, d)
    induced = SymmetricMatrix._from_sparse(tuple(diag), tuple(off))
    # ids 0..n-1, inherited names and genera, off-diagonal entries > 0
    nodes = [
        CurveNode(new, node.name, node.genus, node.proper)
        for new, node in enumerate([config.nodes[old] for old in remaining])
    ]
    markers = tuple(
        SingularPoint(
            name=f"q{idx + 1}",
            contracted_nodes=part,
            contracted_names=config.names(part),
        )
        for idx, part in enumerate(sorted(normalized, key=min))
    )
    return ContractedConfiguration(
        configuration=Configuration._unchecked(nodes, induced),
        ambient_ids=tuple(remaining),
        singular_points=markers,
        pullbacks=tuple(map(Divisor._unchecked, pullback_coeffs)),
    )
