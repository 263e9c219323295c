"""Rational pullback along the contraction of negative definite curves.

Contracting a negative definite set E = {E_1, .., E_k} of proper curves
produces a normal surface whose intersection theory is computed upstairs:
a divisor D away from E pulls back to D + sum(a_i E_i) with the unique
rational coefficients making the pullback orthogonal to every E_i, and the
product of two divisors downstairs is the product of their pullbacks.

Each connected component of E is factorised once as L D L^T, which also
decides its negative definiteness; every pullback is then a forward and
back substitution against Gram rows, and the contracted Gram is the Schur
complement M_RR - M_RE M_EE^-1 M_ER.  :func:`contract` keeps an integer
record: every induced entry as a (numerator, denominator) pair, and every
pullback coefficient as a numerator over its solve's denominator.  It forms
``Fraction``s only when a caller reads the result's ``configuration`` or
``pullbacks``; the CLI prints from the record.  The Gram keeps the factor
of every block it eliminates, so a part the boundary record has classified
is not eliminated again.
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
    """The contracted surface.  :func:`contract`'s result holds its integer
    record in ``_exact`` and forms each ``Fraction`` field on its first read."""

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
        config, diag, off, solves = self._exact
        if name == "pullbacks":
            pullbacks = [{old: _ONE} for old in self.ambient_ids]
            for coeffs, terms in zip(pullbacks, solves):
                for order, nums, den in terms:
                    coeffs.update(zip(order, [Fraction(x, den) for x in nums]))
            self.pullbacks = tuple(map(Divisor._unchecked, pullbacks))
            return self.pullbacks
        induced = SymmetricMatrix._from_sparse(
            tuple([Fraction(*x) for x in diag]),
            tuple([{j: Fraction(*x) for j, x in row.items()} for row in off]),
        )
        # ids 0..n-1, inherited names and genera, off-diagonal entries > 0
        nodes = [config.nodes[old] for old in self.ambient_ids]
        nodes = [CurveNode(i, c.name, c.genus, c.proper) for i, c in enumerate(nodes)]
        self.configuration = Configuration._unchecked(nodes, induced)
        return self.configuration


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
    # the induced Gram, each entry as a (numerator, denominator) pair
    diag = [gram.entry(old, old).as_integer_ratio() for old in remaining]
    off: list[dict[int, tuple[int, int]]] = [{} for _ in remaining]
    for a, old in enumerate(remaining):
        for j, v in gram.off_diagonal(old).items():
            if j in new_id:
                off[a][new_id[j]] = v.as_integer_ratio()
    # the pullback of remaining curve a is a plus, per part it meets, the
    # coefficients X / e on the part's curves: solves[a] holds (order, X, e)
    solves: list[list] = [[] for _ in remaining]
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
            solves[a].append((factor.order, nums, den * scale))
            solved.append((a, u, nums, den * scale, scale))
        for t, (a, _, nums, den, _) in enumerate(solved):
            # Schur complement: pullback(a) . b = M_ab + X_a . u_b / (e l_a
            # l_b).  -M_EE is an irreducible nonsingular M-matrix, so x_a =
            # (-M_EE)^-1 M_Ea > 0 and the entry only grows: every pullback
            # coefficient on E and every induced entry is positive.  Pairs
            # stay unreduced: each reader reduces an entry once.
            for b, u, _, _, scale in solved[t:]:
                top = sum([nums[p] * v for p, v in u.items()])
                over = den * scale
                n, d = diag[a] if a == b else off[a].get(b, (0, 1))
                entry = (n * over + top * d, d * over)
                if a == b:
                    diag[a] = entry
                else:
                    off[a][b] = off[b][a] = entry
    result = ContractedConfiguration.__new__(ContractedConfiguration)
    result.ambient_ids = tuple(remaining)
    result.singular_points = tuple([
        SingularPoint(f"q{idx + 1}", part, config.names(part))
        for idx, part in enumerate(sorted(normalized, key=min))
    ])
    result._exact = (config, diag, off, solves)
    return result
