"""Rational pullback along the contraction of negative definite curves.

Contracting a negative definite set E = {E_1, .., E_k} of proper curves
produces a normal surface whose intersection theory is computed upstairs:
a divisor D away from E pulls back to D + sum(a_i E_i) with the unique
rational coefficients making the pullback orthogonal to every E_i, and the
product of two divisors downstairs is the product of their pullbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .configuration import Configuration, CurveNode, Divisor
from .errors import PreconditionError
from .linalg import SymmetricMatrix


@dataclass(frozen=True)
class ContractionContext:
    ambient: Configuration
    exceptional: frozenset[int]

    def __post_init__(self):
        exceptional = frozenset(self.exceptional)
        object.__setattr__(self, "exceptional", exceptional)
        if exceptional and not self.ambient.gram_on(exceptional).is_negative_definite():
            raise PreconditionError(
                "exceptional set "
                f"{self.ambient.names(exceptional)} is not negative definite; "
                "only negative definite curve sets are contractible"
            )
        # every pullback reads the components of E: find them once
        object.__setattr__(
            self, "_components", self.ambient.connected_components(exceptional)
        )

    def components(self) -> tuple[frozenset[int], ...]:
        return self._components


def pullback(ctx: ContractionContext, strict: Divisor) -> Divisor:
    """Extend ``strict`` by exceptional multiples orthogonal to all of E.

    Solves one exact linear system per connected component of E; components
    that do not meet the divisor keep coefficient zero.
    """
    overlap = strict.support() & ctx.exceptional
    if overlap:
        raise PreconditionError(
            f"divisor is supported on exceptional curves "
            f"{ctx.ambient.names(overlap)}; pass its strict part instead"
        )
    total = strict
    for component in ctx.components():
        nodes = sorted(component)
        rhs = [
            -ctx.ambient.intersection_number(strict, Divisor.of(j))
            for j in nodes
        ]
        if all(v == 0 for v in rhs):
            continue
        coeffs = ctx.ambient.gram_on(nodes).solve(rhs)
        assert coeffs is not None  # negative definite => nonsingular
        total = total + Divisor(dict(zip(nodes, coeffs)))
    return total


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


@dataclass(frozen=True)
class SingularPoint:
    """Marker for the point a contracted part maps to."""

    name: str
    contracted_nodes: frozenset[int]
    contracted_names: tuple[str, ...]


@dataclass(frozen=True)
class ContractedConfiguration:
    configuration: Configuration
    ambient_ids: tuple[int, ...]
    singular_points: tuple[SingularPoint, ...]


def contract(
    config: Configuration, parts: Sequence[Iterable[int]]
) -> ContractedConfiguration:
    """Contract disjoint negative definite connected node sets.

    Returns the configuration of the remaining curves under the induced
    product, with one singular-point marker per contracted part.
    """
    normalized = [frozenset(part) for part in parts]
    seen: set[int] = set()
    for part in normalized:
        if not part:
            raise PreconditionError("cannot contract an empty part")
        if part & seen:
            raise PreconditionError("contracted parts must be pairwise disjoint")
        seen |= part
        if not config.is_connected(part):
            raise PreconditionError(
                f"part {config.names(part)} is not connected"
            )
        if not config.gram_on(part).is_negative_definite():
            raise PreconditionError(
                f"part {config.names(part)} is not negative definite, hence "
                "not contractible: connected components that are not negative "
                "definite are exactly the ones a saturated boundary keeps"
            )
    for a in range(len(normalized)):
        for b in range(a + 1, len(normalized)):
            if not config.disjoint(normalized[a], normalized[b]):
                raise PreconditionError(
                    f"parts {config.names(normalized[a])} and "
                    f"{config.names(normalized[b])} meet; contract their "
                    "union as a single connected part instead"
                )

    exceptional = frozenset(seen)
    ctx = ContractionContext(config, exceptional)
    remaining = [i for i in range(config.n) if i not in exceptional]
    pullbacks = [pullback(ctx, Divisor.of(i)) for i in remaining]
    k = len(remaining)
    rows = [[Fraction(0)] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            value = config.intersection_number(pullbacks[a], Divisor.of(remaining[b]))
            rows[a][b] = rows[b][a] = value
    nodes = [
        CurveNode(new, config.nodes[old].name, config.nodes[old].genus,
                  config.nodes[old].proper)
        for new, old in enumerate(remaining)
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
        configuration=Configuration(nodes, SymmetricMatrix(rows)),
        ambient_ids=tuple(remaining),
        singular_points=markers,
    )
