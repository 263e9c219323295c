"""Integral intersection lattices of smooth projective rational surfaces.

The model is always rooted at the projective plane: a rank-one lattice with
a degree generator of square +1 and canonical class -3, extended by point
blowups.  Each blowup appends an exceptional generator of square -1,
orthogonal to everything before it, and shifts the canonical class by it.
Tracked curve classes are carried along as strict transforms.

:func:`blowup` is the general tower.  The plane blown up at n distinct
points of a smooth cubic has a closed form (Hartshorne, Algebraic Geometry,
V.3.2 and V.3.3), which :func:`cubic_blowup` writes down in one step: the
lattice I_{1,n} with basis L, E1..En, K = -3L + sum Ei, the cubic's strict
transform C = 3L - sum Ei with C^2 = 9 - n and C.Ei = 1, and Ei.Ej = 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .configuration import Configuration, CurveNode
from .errors import InputError, PreconditionError
from .linalg import SymmetricMatrix, as_rational
from .record import Record


def _integral_vector(values: Sequence, what: str) -> tuple[int, ...]:
    """Exact integer coordinates: floats are refused by :func:`as_rational`
    and a non-integral rational raises, so nothing is truncated."""
    values = tuple(values)
    if all([type(v) is int for v in values]):  # exact ints, the common case
        return values
    coords = [as_rational(v) for v in values]
    for x in coords:
        if x.denominator != 1:
            raise InputError(f"{what} has non-integral coordinate {x}")
    return tuple([int(x) for x in coords])


class ClassRecord(Record):
    """A tracked curve class: integer coordinates in the lattice basis plus
    the stored geometric genus of the curve it names."""

    __slots__ = ("name", "vector", "genus")

    def __init__(self, name: str, vector: Sequence[int], genus: int = 0):
        if genus < 0:
            raise InputError(f"class {name!r} has negative genus")
        self.name, self.genus = name, genus
        self.vector = _integral_vector(vector, f"class {name!r}")


class NSLattice(Record):
    __slots__ = ("basis_names", "gram", "canonical", "__dict__")  # cached _sparse_rows

    def __init__(
        self, basis_names: tuple[str, ...], gram: SymmetricMatrix,
        canonical: Sequence[int],
    ):
        if gram.n != len(basis_names):
            raise InputError("gram dimension does not match basis size")
        if len(canonical) != len(basis_names):
            raise InputError("canonical class has wrong dimension")
        if any(
            gram.entry(i, i).denominator != 1
            or any(x.denominator != 1 for x in gram.off_diagonal(i).values())
            for i in range(gram.n)
        ):
            raise InputError("lattice pairing must be integral")
        rank = gram.n
        if gram.inertia() != (1, rank - 1, 0):
            raise InputError(
                f"lattice pairing must have signature (1,{rank - 1}), got "
                f"inertia {gram.inertia()}"
            )
        self.basis_names, self.gram = basis_names, gram
        self.canonical = _integral_vector(canonical, "canonical class")

    @property
    def rank(self) -> int:
        return self.gram.n

    def _vec(self, c: Union[ClassRecord, Sequence[int]]) -> Sequence:
        if isinstance(c, ClassRecord):
            v = c.vector
        else:
            v = [as_rational(x) for x in c]
        if len(v) != self.rank:
            raise PreconditionError(
                f"class vector has dimension {len(v)}, lattice rank is {self.rank}"
            )
        return v

    @cached_property
    def _sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Nonzero Gram entries of each row as (column, int) pairs; built on
        the first pairing, so the lattices of a blowup tower that are never
        paired do not pay for it."""
        gram = self.gram
        return tuple([
            tuple([(i, int(gram.entry(i, i)))] + [
                (j, int(x)) for j, x in gram.off_diagonal(i).items()
            ])
            for i in range(gram.n)
        ])

    def _pair(self, u: Sequence, v: Sequence):
        """u^T G v over the nonzero Gram entries; exact int arithmetic for
        integer vectors."""
        total = 0
        for ui, row in zip(u, self._sparse_rows):
            if ui:
                total += ui * sum(g * v[j] for j, g in row)
        return total

    def pair(self, c1, c2) -> Fraction:
        return Fraction(self._pair(self._vec(c1), self._vec(c2)))

    def self_intersection(self, c) -> Fraction:
        v = self._vec(c)
        return Fraction(self._pair(v, v))


class BlowupResult(Record):
    __slots__ = ("lattice", "classes", "exceptional")

    def __init__(
        self, lattice: NSLattice, classes: tuple[ClassRecord, ...],
        exceptional: ClassRecord,
    ):
        self.lattice, self.classes, self.exceptional = lattice, classes, exceptional


def projective_plane() -> NSLattice:
    """Rank-one lattice of the plane: L^2 = 1, canonical class -3L."""
    return NSLattice(("L",), SymmetricMatrix([[1]]), (-3,))


def blowup(
    lattice: NSLattice,
    passing: Sequence[tuple[ClassRecord, int]],
    name: str | None = None,
) -> BlowupResult:
    """Blow up a point, listing each tracked class with its multiplicity
    at the centre.

    The returned classes are the strict transforms C - mE in the order they
    were listed; classes with multiplicity 0 are merely re-expressed in the
    extended basis.
    """
    rank = lattice.rank
    exc_name = name if name is not None else f"E{rank}"
    if exc_name in lattice.basis_names:
        raise InputError(f"basis name {exc_name!r} already in use")
    for record, mult in passing:
        if not isinstance(mult, int) or mult < 0:
            raise PreconditionError(
                f"multiplicity of {record.name!r} must be a nonnegative "
                f"integer, got {mult!r}"
            )
        lattice._vec(record)  # dimension check

    # The new generator is an orthogonal (-1)-class, so the Gram stays
    # integral and signature (1, r - 1) becomes (1, r) by construction: the
    # lattice is built without the checks of NSLattice.__init__.
    old = lattice.gram
    gram = SymmetricMatrix.from_entries(
        [old.entry(i, i) for i in range(rank)] + [-1],
        [(i, j, x) for i in range(rank) for j, x in old.off_diagonal(i).items()],
    )
    new_lattice = _unchecked_lattice(
        lattice.basis_names + (exc_name,), gram, lattice.canonical + (1,)
    )
    updated = tuple(
        ClassRecord(record.name, record.vector + (-mult,), record.genus)
        for record, mult in passing
    )
    exceptional = ClassRecord(exc_name, (0,) * rank + (1,), genus=0)
    return BlowupResult(new_lattice, updated, exceptional)


def _unchecked_lattice(
    basis_names: tuple[str, ...], gram: SymmetricMatrix, canonical: tuple[int, ...]
) -> NSLattice:
    """A lattice whose Gram is integral of signature (1, r - 1) by
    construction, built without the checks of NSLattice.__init__."""
    lattice = NSLattice.__new__(NSLattice)
    lattice.basis_names, lattice.gram, lattice.canonical = basis_names, gram, canonical
    return lattice


def cubic_blowup(
    n: int,
) -> tuple[NSLattice, ClassRecord, tuple[ClassRecord, ...], Configuration]:
    """The plane blown up at n >= 1 distinct points of a smooth cubic, in
    closed form: the lattice, the cubic's strict transform C (genus 1), the
    exceptional classes E1..En and the dual graph of C, E1, ..., En.

    Equal to n :func:`blowup` calls that each pass the cubic once, followed
    by :func:`configuration_from_classes`, without replaying the tower or
    pairing any two classes.
    """
    names = tuple([f"E{i}" for i in range(1, n + 1)])
    # Fraction entries pass as_rational unchanged
    one, minus_ones = Fraction(1), [Fraction(-1)] * n
    lattice = _unchecked_lattice(
        ("L",) + names,
        SymmetricMatrix.from_entries([one] + minus_ones),
        (-3,) + (1,) * n,
    )
    cubic = ClassRecord("C", (3,) + (-1,) * n, genus=1)
    zeros = (0,) * n
    exceptionals = tuple([
        ClassRecord(name, zeros[:i] + (1,) + zeros[i:])
        for i, name in enumerate(names, 1)
    ])
    nodes = [CurveNode(0, "C", genus=1)] + [
        CurveNode(i, name) for i, name in enumerate(names, 1)
    ]
    config = Configuration(
        nodes,
        SymmetricMatrix.from_entries(
            [Fraction(9 - n)] + minus_ones, [(0, i, one) for i in range(1, n + 1)]
        ),
    )
    return lattice, cubic, exceptionals, config


def adjunction_genus(lattice: NSLattice, c) -> Fraction:
    """Arithmetic genus of a curve class: half its pairing with itself plus
    the canonical class, plus one."""
    v = lattice._vec(c)
    return Fraction(lattice._pair(v, v) + lattice._pair(v, lattice.canonical), 2) + 1


def configuration_from_classes(
    lattice: NSLattice, records: Sequence[ClassRecord]
) -> Configuration:
    """Dual graph of the listed classes under the lattice pairing.

    Distinct irreducible curves meet non-negatively, so any negative
    off-diagonal pairing means the records cannot be distinct prime
    divisors; the offending pair is reported.
    """
    n = len(records)
    diag = []
    entries = []
    for i in range(n):
        diag.append(lattice.self_intersection(records[i]))
        for j in range(i + 1, n):
            value = lattice.pair(records[i], records[j])
            if value < 0:
                raise InputError(
                    f"classes {records[i].name!r} and {records[j].name!r} "
                    f"pair negatively ({value}); they cannot both be "
                    "irreducible curves in one configuration"
                )
            entries.append((i, j, value))
    nodes = [
        CurveNode(i, rec.name, genus=rec.genus, proper=True)
        for i, rec in enumerate(records)
    ]
    return Configuration(nodes, SymmetricMatrix.from_entries(diag, entries))
