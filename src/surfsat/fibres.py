"""Fibre-type divisors, their kernel divisors, and false-fibre bookkeeping.

A connected, negative semidefinite but not negative definite set of proper
curves numerically looks like a fibre of a fibration ("fibre type").  Such a
set carries a canonical kernel divisor: the primitive effective integral
divisor with full support pairing to zero with every component, unique up to
multiples.  Whether the set actually supports a fibre cannot be decided from
the numbers alone, so "false fibre" status is tracked through explicit
certificates, never inferred.  One pass checks every rule a claim subject
must meet: its verdict, at most two disjoint claims, and its place on the
kept boundary.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence, Union

from .configuration import Configuration, Divisor
from .errors import PreconditionError
from .record import Record


class FibreVerdict(Enum):
    FIBRE_TYPE = "fibre-type"
    NEGATIVE_DEFINITE = "negative-definite"
    NOT_SEMIDEFINITE = "not-negative-semidefinite"
    DISCONNECTED = "disconnected"


class FibreTypeReport(Record):
    # positive eigenvalues of the Gram; None for a disconnected subject
    __slots__ = ("subject", "verdict", "kernel", "positive")
    _compared = __slots__[:3]

    def __init__(
        self, subject: frozenset[int], verdict: FibreVerdict,
        kernel: Optional[Divisor] = None, positive: Optional[int] = None,
    ):
        self.subject, self.verdict, self.kernel = subject, verdict, kernel
        self.positive = positive


class UserAsserted(Record):
    """The user vouches that the divisor supports no fibre of a fibration."""

    __slots__ = ()


class NormalBundleNonTorsion(Record):
    """A degree-zero, non-torsion normal bundle rules out supporting a fibre."""

    __slots__ = ()


class GroupLawObstruction(Record):
    """A non-torsion weighted point sum on a cubic rules out the divisor
    classes any fibre through those points would need."""

    __slots__ = ("reference",)

    def __init__(self, reference: str):
        self.reference = reference


Certificate = Union[UserAsserted, NormalBundleNonTorsion, GroupLawObstruction]


class FalseFibreClaim(Record):
    __slots__ = ("subject", "certificate")

    def __init__(self, subject: Iterable[int], certificate: Certificate):
        self.subject, self.certificate = frozenset(subject), certificate


def classify_fibre_type(
    config: Configuration, subject: Iterable[int]
) -> FibreTypeReport:
    """Decide whether ``subject`` is of fibre type, and compute its kernel.

    The verdict distinguishes the three ways the definition can fail:
    disconnected, negative definite, or not negative semidefinite.

    One elimination of the subject's Gram decides it, by its inertia: a
    positive eigenvalue means not negative semidefinite, no zero one means
    negative definite, and otherwise the subject is of fibre type.
    """
    nodes = frozenset(config._check_subset(subject))
    if not nodes:
        raise PreconditionError("subject must be a nonempty set of curves")
    improper = [i for i in nodes if not config.nodes[i].proper]
    if improper:
        raise PreconditionError(
            f"curves {config.names(improper)} are not proper; fibre type is "
            "defined for proper curves only"
        )
    if not config.is_connected(nodes):
        return FibreTypeReport(nodes, FibreVerdict.DISCONNECTED)
    return _classify_connected(config, nodes)


def _classify_connected(config: Configuration, subject: frozenset) -> FibreTypeReport:
    """:func:`classify_fibre_type` on a nonempty, connected set of proper
    curves, such as a boundary component."""
    factor = config.gram.ldl(subject)
    plus, _, zero = factor.inertia
    if plus:
        return FibreTypeReport(subject, FibreVerdict.NOT_SEMIDEFINITE, positive=plus)
    if not zero:
        return FibreTypeReport(subject, FibreVerdict.NEGATIVE_DEFINITE, positive=0)
    # Negative semidefinite and singular, so by Perron-Frobenius (the
    # off-diagonal entries are >= 0) the kernel is a line spanned by a
    # positive vector, and every proper sub-support is negative definite
    # (Zariski's lemma, see validate_zariski): only the last pivot is zero.
    kernel = Divisor(dict(zip(factor.order, factor.null_vector())))
    return FibreTypeReport(subject, FibreVerdict.FIBRE_TYPE, kernel, positive=0)


class ZariskiViolation(Record):
    __slots__ = ("kind", "subset")

    def __init__(self, kind: str, subset: tuple[int, ...]):
        self.kind, self.subset = kind, subset


class ZariskiReport(Record):
    """``status`` is "ok" for a fibre-type subject: its kernel is a line and,
    by Zariski's lemma, its proper sub-supports are negative definite (see
    :func:`validate_zariski`); otherwise "violations", naming the failed
    fibre-type condition."""

    __slots__ = ("status", "violations", "note")

    def __init__(
        self, status: str, violations: tuple[ZariskiViolation, ...] = (), note=""
    ):
        self.status, self.violations, self.note = status, violations, note


def validate_zariski(config: Configuration, subject: Iterable[int]) -> ZariskiReport:
    """Check that every nonempty proper sub-support of ``subject`` is
    negative definite and its kernel is a line: Zariski's lemma (Barth-
    Hulek-Peters-Van de Ven, *Compact Complex Surfaces*, III.8.2) read off
    one classification, enumerating nothing."""
    report = classify_fibre_type(config, subject)
    if report.verdict is not FibreVerdict.FIBRE_TYPE:
        return ZariskiReport(
            status="violations",
            violations=(
                ZariskiViolation(report.verdict.value, tuple(sorted(report.subject))),
            ),
            note="subject is not of fibre type",
        )
    # A fibre-type verdict means the Gram M of the subject is negative
    # semidefinite (NSD) and singular; since the subject is connected and
    # its off-diagonal entries are >= 0, Perron-Frobenius makes the kernel
    # a line spanned by a strictly positive vector.  Suppose a proper
    # sub-support S were not negative definite.  Its block is NSD, so some
    # w != 0 supported on S has w^T M w = 0.  As M is NSD, that forces
    # M w = 0, so w is a multiple of the full-support kernel vector, which
    # is impossible because S is proper.
    return ZariskiReport(status="ok")


class ClaimsReport(Record):
    __slots__ = ("ok", "disjoint_triple")  # three pairwise disjoint claims

    def __init__(self, ok: bool, disjoint_triple: Optional[tuple] = None):
        self.ok, self.disjoint_triple = ok, disjoint_triple


def validate_false_fibre_claims(
    claims: Sequence[FalseFibreClaim], config: Configuration
) -> ClaimsReport:
    """Reject any three pairwise disjoint false-fibre claims.

    At most two pairwise disjoint false fibres can coexist on a surface, so
    a disjoint triple proves the input inconsistent.  Claims sharing a
    subject count once.
    """
    return _check_claims(claims, config, {}, {})


def _closure(config: Configuration, subject: frozenset, contracted: Mapping):
    """``subject`` with every contracted part that meets it (``contracted``
    maps each curve of a part to the part)."""
    closure = set(subject)
    for i in subject if contracted else ():
        for j in config.neighbours(i):
            if j in contracted and j not in closure:
                closure |= contracted[j]
    return frozenset(closure)


def _check_claims(
    claims: Sequence[FalseFibreClaim],
    config: Configuration,
    reports: Mapping[frozenset[int], FibreTypeReport],
    contracted: Mapping,
) -> ClaimsReport:
    """:func:`validate_false_fibre_claims` where the parts in ``contracted``
    are contracted and ``reports`` classifies the kept boundary components.

    Each subject not in ``reports`` is read off its closure C once: C is
    connected iff the subject is there, and contracting is a congruence, so
    the inertias add (Haynsworth) and C's verdict is the subject's.  After
    the triple, a subject other than a kept component must miss them; they
    meet no contracted part, so they miss its reach, C and the curves
    meeting C, iff they miss the subject and the curves meeting it.
    """
    # the first claim on each subject, with its reach, in input order
    first: dict[frozenset[int], tuple[FalseFibreClaim, frozenset[int]]] = {}
    for claim in claims:
        if claim.subject in first:
            continue
        nodes = frozenset(config._check_subset(claim.subject))
        closure = _closure(config, nodes, contracted)
        report = reports.get(claim.subject) or classify_fibre_type(config, closure)
        if report.verdict is not FibreVerdict.FIBRE_TYPE:
            raise PreconditionError(
                f"false-fibre claim on {config.names(claim.subject)} is "
                f"{report.verdict.value}; only fibre-type divisors can be "
                "false fibres"
            )
        first[claim.subject] = claim, closure.union(*map(config.neighbours, closure))
    distinct = sorted(first.values(), key=lambda pair: sorted(pair[0].subject))
    # two subjects are disjoint when one misses the other's reach (no subject
    # holds a contracted curve); apart[i] holds the later claims apart from
    # claim i, and the walk meets triples in lexicographic order
    apart = [
        {j for j, (c, _) in enumerate(distinct[i + 1:], i + 1)
         if r.isdisjoint(c.subject)}
        for i, (_, r) in enumerate(distinct)
    ]
    for i, later in enumerate(apart):
        for j in sorted(later):
            common = later & apart[j]
            if common:
                triple = tuple(distinct[k][0] for k in (i, j, min(common)))
                return ClaimsReport(ok=False, disjoint_triple=triple)
    kept = frozenset().union(*reports)
    for subject, (_, r) in first.items():
        if subject in reports:
            continue
        if subject & kept:
            raise PreconditionError(
                f"claim subject {config.names(subject)} overlaps the boundary "
                "without being one of its connected components"
            )
        if not r.isdisjoint(kept):
            raise PreconditionError(
                f"claim subject {config.names(subject)} meets the boundary, so "
                "it is not a divisor inside the surface"
            )
    return ClaimsReport(ok=True)
