"""Weighted dual graphs of prime divisors and divisors supported on them.

A :class:`Configuration` is the dual graph of a set of irreducible curves on
a normal surface: one node per curve (with its geometric genus and a flag
for properness) and the symmetric matrix of pairwise intersection numbers.
Distinct prime divisors meet non-negatively, so off-diagonal entries must be
>= 0; diagonal entries (self-intersections) are unconstrained and may be
fractional on singular surfaces.

Boundary graphs are sparse, so the sign check reads only the nonzero
off-diagonal entries of the Gram, and the graph is read off the Gram's
sparse rows with no second copy: adjacency is a membership test,
components are a breadth-first search and disjointness a row
intersection, all in O(n + meetings).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, KeysView, Mapping, Optional, Sequence

from .errors import InputError, PreconditionError
from .linalg import SymmetricMatrix, as_rational
from .record import Record


class CurveNode(Record):
    __slots__ = ("id", "name", "genus", "proper")

    def __init__(self, id: int, name: str, genus: int = 0, proper: bool = True):
        if genus < 0:
            raise InputError(f"curve {name!r} has negative genus {genus}")
        self.id, self.name, self.genus, self.proper = id, name, genus, proper


class Divisor:
    """Formal rational combination of configuration curves.

    Stored sparsely; nodes with coefficient zero are dropped.  Supports
    addition, subtraction and scaling by rationals.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Optional[Mapping[int, object]] = None):
        coeffs = {}
        for node, value in (coefficients or {}).items():
            c = as_rational(value)
            if c != 0:
                coeffs[int(node)] = c
        self._coeffs = dict(sorted(coeffs.items()))

    @classmethod
    def _unchecked(cls, coefficients: dict[int, Fraction]) -> "Divisor":
        """The divisor, for a map of nonzero ``Fraction``s on nodes."""
        divisor = cls.__new__(cls)
        divisor._coeffs = dict(sorted(coefficients.items()))
        return divisor

    @classmethod
    def of(cls, node: int, coefficient=1) -> "Divisor":
        return cls({node: coefficient})

    @classmethod
    def reduced(cls, subset: Iterable[int]) -> "Divisor":
        """The reduced divisor: coefficient 1 on every node of ``subset``."""
        return cls({node: 1 for node in subset})

    @property
    def coefficients(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    def coefficient(self, node: int) -> Fraction:
        return self._coeffs.get(node, Fraction(0))

    def support(self) -> frozenset[int]:
        return frozenset(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "Divisor") -> "Divisor":
        coeffs = dict(self._coeffs)
        for node, c in other._coeffs.items():
            coeffs[node] = coeffs.get(node, Fraction(0)) + c
        return Divisor(coeffs)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Divisor":
        s = as_rational(scalar)
        return Divisor({node: s * c for node, c in self._coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(self._coeffs.items()))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Divisor(0)"
        parts = [f"{c}*[{n}]" for n, c in self._coeffs.items()]
        return "Divisor(" + " + ".join(parts) + ")"


class Configuration:
    """Dual graph: curve nodes plus their intersection matrix."""

    __slots__ = ("_nodes", "_gram")

    def __init__(self, nodes: Sequence[CurveNode], gram: SymmetricMatrix):
        nodes = tuple(nodes)
        if gram.n != len(nodes):
            raise InputError(
                f"gram has dimension {gram.n}, expected {len(nodes)} nodes"
            )
        ids = [node.id for node in nodes]
        if ids != list(range(len(nodes))):
            raise InputError(f"node ids must be 0..{len(nodes) - 1}, got {ids}")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise InputError("curve names must be unique")
        for i in range(len(nodes)):
            row = gram.off_diagonal(i)
            negative = [j for j, x in row.items() if x.numerator < 0]
            if negative:
                # the first offending pair in row-major order: a negative
                # entry left of the diagonal would have been met in an
                # earlier row
                j = min(negative)
                raise InputError(
                    f"distinct curves {names[i]!r} and {names[j]!r} have "
                    f"negative intersection {row[j]}"
                )
        self._nodes, self._gram = nodes, gram

    @classmethod
    def _unchecked(
        cls, nodes: Sequence[CurveNode], gram: SymmetricMatrix
    ) -> "Configuration":
        """The configuration, for nodes and a Gram the caller has checked:
        ids 0..n-1, unique names and no negative off-diagonal entry."""
        config = cls.__new__(cls)
        config._nodes, config._gram = tuple(nodes), gram
        return config

    @classmethod
    def build(cls, curves, intersections=()) -> "Configuration":
        """Convenience constructor.

        ``curves`` is a sequence of (name, self_intersection) pairs or
        (name, self_intersection, genus) triples; ``intersections`` lists
        (i, j, value) for the nonzero off-diagonal entries.  A pair listed
        twice keeps its last value.
        """
        nodes = []
        diag = []
        for idx, entry in enumerate(curves):
            name, self_int, *rest = entry
            genus = rest[0] if rest else 0
            nodes.append(CurveNode(idx, name, genus=genus))
            diag.append(as_rational(self_int))
        entries = []
        for i, j, value in intersections:
            if i == j:
                raise InputError(f"self-intersection of node {i} belongs in 'curves'")
            entries.append((i, j, as_rational(value)))
        return cls(nodes, SymmetricMatrix.from_entries(diag, entries))

    @property
    def nodes(self) -> tuple[CurveNode, ...]:
        return self._nodes

    @property
    def gram(self) -> SymmetricMatrix:
        return self._gram

    @property
    def n(self) -> int:
        return len(self._nodes)

    def node_ids(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def names(self, subset: Iterable[int]) -> tuple[str, ...]:
        return tuple(self._nodes[i].name for i in sorted(subset))

    def _check_subset(self, subset: Iterable[int]) -> list[int]:
        ids = sorted(set(subset))
        for i in ids:
            if not 0 <= i < self.n:
                raise PreconditionError(f"node {i} is not in the configuration")
        return ids

    def neighbours(self, i: int) -> KeysView[int]:
        """The curves that meet curve ``i``: a read-only set-like view of
        the Gram's row ``i``."""
        return self._gram.support(i)

    def connected_components(
        self, subset: Optional[Iterable[int]] = None
    ) -> tuple[frozenset[int], ...]:
        """Partition of ``subset`` (default: all nodes) under adjacency.

        Components are listed by their least node id.
        """
        ids = self._check_subset(subset if subset is not None else range(self.n))
        remaining = set(ids)
        support = self._gram.support
        components = []
        for start in ids:
            if start not in remaining:
                continue
            remaining.discard(start)
            comp = [start]
            for i in comp:  # breadth first: comp grows while it is walked
                found = support(i) & remaining
                remaining -= found
                comp.extend(found)
            components.append(frozenset(comp))
        return tuple(components)

    def is_connected(self, subset: Iterable[int]) -> bool:
        return len(self.connected_components(subset)) == 1

    def intersection_number(self, d1: Divisor, d2: Divisor) -> Fraction:
        """Bilinear extension of the Gram pairing to divisors."""
        total = Fraction(0)
        for i, ci in d1.coefficients.items():
            if not 0 <= i < self.n:
                raise PreconditionError(f"divisor references unknown node {i}")
            for j, cj in d2.coefficients.items():
                if not 0 <= j < self.n:
                    raise PreconditionError(f"divisor references unknown node {j}")
                total += ci * cj * self._gram.entry(i, j)
        return total

    def gram_on(self, subset: Iterable[int]) -> SymmetricMatrix:
        """Principal submatrix of the Gram matrix on ``subset`` (sorted)."""
        return self._gram.restrict(self._check_subset(subset))

    def disjoint(self, a: Iterable[int], b: Iterable[int]) -> bool:
        """No shared nodes and no positive pairing across the two sets."""
        sa = self._check_subset(a)
        sb = self._check_subset(b)
        set_b = set(sb)
        if not set_b.isdisjoint(sa):
            return False
        return all(self._gram.support(i).isdisjoint(set_b) for i in sa)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Configuration)
            and self._nodes == other._nodes
            and self._gram == other._gram
        )

    def __hash__(self) -> int:
        return hash((self._nodes, self._gram))

    def __repr__(self) -> str:
        return f"Configuration({', '.join(n.name for n in self._nodes)})"
