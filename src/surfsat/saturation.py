"""Saturation of open surfaces and the dimension of their affinisations.

An open surface presented as (proper ambient configuration, boundary) is
saturated exactly when the boundary has no isolated points and no negative
definite connected component.  When it is not, the saturation plan contracts
the negative definite components and drops the isolated points; the
affinisation is invariant under this, so any surface is classified as its
saturation, with the contracted parts E read off the record.  A surface
classifies each boundary component once and keeps that record, the one
entry of its instance dictionary, beside its slotted fields.

The classifier never builds the saturation (only ``mumford`` contracts):
contracting a negative definite E is a congruence, M[T + E] ~ M[E] (+) S_T,
so the inertias add (Haynsworth, *Linear Algebra Appl.* 1, 1968).  A set T
of remaining curves is read off its closure, T with every contracted part
that meets it: its components, verdict, kernel and neighbours there are
those of the closure's block of the original Gram.  Kept components meet
no contracted part, so they keep their blocks and reports.

The affinisation dimension is 2, 1 or 0.  The boundary numbers decide 2
outright, and 0 for an empty boundary, read off the kept components alone;
they can never separate 1 from 0, so the 0 verdict requires a false-fibre
certificate for every boundary component, and the 1 verdict a fibration
assertion or enough supplied interior curves to force a second fibre
witness.  Everything else is reported honestly as one-or-zero.  Inner
curves that span a positive direction beside a fibre-type boundary are
refused (Hodge index theorem).
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .configuration import Configuration
from .errors import DataInconsistencyError, PreconditionError
from .fibres import (
    FalseFibreClaim,
    FibreTypeReport,
    FibreVerdict,
    _check_claims,
    _classify_connected,
    _closure,
)
from .mumford import contract
from .record import Record


class CompactifiedSurface(Record):
    """An open surface given by a compactification.

    ``ambient`` lists every supplied proper curve; ``boundary`` is the set of
    curve ids removed from the proper surface, and ``isolated_boundary_points``
    counts removed points.  Curves not in the boundary are the supplied
    interior curves.  False-fibre claims may concern boundary components or
    divisors inside the surface.
    """

    __slots__ = (
        "ambient", "boundary", "isolated_boundary_points", "false_fibre_claims",
        "fibration_asserted", "__dict__",  # the cached component_reports
    )

    def __init__(
        self, ambient: Configuration, boundary: Iterable[int],
        isolated_boundary_points: int = 0,
        false_fibre_claims: Sequence[FalseFibreClaim] = (),
        fibration_asserted: bool = False,
    ):
        self.ambient, self.boundary = ambient, frozenset(boundary)
        self.isolated_boundary_points = isolated_boundary_points
        self.false_fibre_claims = tuple(false_fibre_claims)
        self.fibration_asserted = fibration_asserted
        for i in self.boundary:
            if not 0 <= i < ambient.n:
                raise PreconditionError(f"boundary node {i} does not exist")
        if isolated_boundary_points < 0:
            raise PreconditionError("isolated point count cannot be negative")
        improper = [n.name for n in ambient.nodes if not n.proper]
        if improper:
            raise PreconditionError(
                f"ambient curves must all be proper; got improper {improper}"
            )

    @property
    def interior_curves(self) -> frozenset[int]:
        return self.ambient.node_ids() - self.boundary

    @cached_property
    def component_reports(self) -> tuple[FibreTypeReport, ...]:
        """One classification per boundary component, in
        ``connected_components`` order: the record every verdict reads."""
        return tuple(
            _classify_connected(self.ambient, comp)
            for comp in self.ambient.connected_components(self.boundary)
        )

    def boundary_components(self) -> tuple[frozenset[int], ...]:
        return tuple(report.subject for report in self.component_reports)


class SaturationVerdict(Record):
    __slots__ = ("saturated", "offending_components", "isolated_points", "criterion")

    def __init__(
        self, saturated: bool, offending_components: tuple[frozenset[int], ...],
        isolated_points: int, criterion: str = "no-negative-definite-component",
    ):
        self.saturated, self.offending_components = saturated, offending_components
        self.isolated_points, self.criterion = isolated_points, criterion


def is_saturated(surface: CompactifiedSurface) -> SaturationVerdict:
    """A surface is saturated iff nothing on the boundary is contractible:
    no isolated points, no negative definite connected component.  An empty
    boundary (a proper surface) is saturated."""
    offending = tuple(
        report.subject
        for report in surface.component_reports
        if report.verdict is FibreVerdict.NEGATIVE_DEFINITE
    )
    return SaturationVerdict(
        saturated=not offending and surface.isolated_boundary_points == 0,
        offending_components=offending,
        isolated_points=surface.isolated_boundary_points,
    )


class SaturationPlan(Record):
    __slots__ = ("d_minus", "d_plus", "points_to_remove", "resulting_boundary_ok")

    def __init__(
        self, d_minus: tuple[frozenset[int], ...], d_plus: tuple[frozenset[int], ...],
        points_to_remove: int, resulting_boundary_ok: bool,
    ):
        self.d_minus, self.d_plus = d_minus, d_plus
        self.points_to_remove = points_to_remove
        self.resulting_boundary_ok = resulting_boundary_ok


def _reject_contracted_claims(
    surface: CompactifiedSurface, d_minus: tuple[frozenset[int], ...]
) -> None:
    """Refuse false-fibre claims that meet a component to be contracted."""
    removed = frozenset().union(*d_minus)
    for claim in surface.false_fibre_claims:
        if claim.subject & removed:
            raise PreconditionError(
                "false-fibre claim on "
                f"{surface.ambient.names(claim.subject)} overlaps a "
                "contracted component; a fibre-type divisor can never lie in "
                "a negative definite one, so this input is inconsistent"
            )


def saturation_plan(surface: CompactifiedSurface) -> SaturationPlan:
    """Contract every negative definite boundary component, keep the rest,
    and forget the isolated boundary points.

    ``resulting_boundary_ok`` holds without contracting: no kept curve meets
    a contracted component, so its pullback is itself and the Gram, the
    adjacency and the non-definiteness of the kept components survive.
    Claims that meet a contracted component are rejected, as in
    :func:`apply_plan`.
    """
    d_minus = is_saturated(surface).offending_components
    _reject_contracted_claims(surface, d_minus)
    return SaturationPlan(
        d_minus=d_minus,
        d_plus=tuple(
            report.subject
            for report in surface.component_reports
            if report.verdict is not FibreVerdict.NEGATIVE_DEFINITE
        ),
        points_to_remove=surface.isolated_boundary_points,
        resulting_boundary_ok=True,
    )


def apply_plan(
    surface: CompactifiedSurface, plan: Optional[SaturationPlan] = None
) -> CompactifiedSurface:
    """Carry out a saturation plan with :func:`~surfsat.mumford.contract`,
    re-indexing the curves and claims; no verdict reads this surface."""
    if plan is None:
        plan = saturation_plan(surface)
    if not plan.d_minus:
        if surface.isolated_boundary_points == 0:
            return surface
        return CompactifiedSurface(
            surface.ambient, surface.boundary, 0, surface.false_fibre_claims,
            surface.fibration_asserted,
        )
    _reject_contracted_claims(surface, plan.d_minus)
    contracted = contract(surface.ambient, plan.d_minus)
    removed = frozenset().union(*plan.d_minus)
    new_id = {old: new for new, old in enumerate(contracted.ambient_ids)}
    claims = tuple([
        FalseFibreClaim(
            frozenset(new_id[i] for i in claim.subject), claim.certificate
        )
        for claim in surface.false_fibre_claims
    ])
    return CompactifiedSurface(
        ambient=contracted.configuration,
        boundary=frozenset(
            new_id[i] for i in surface.boundary if i not in removed
        ),
        isolated_boundary_points=0,
        false_fibre_claims=claims,
        fibration_asserted=surface.fibration_asserted,
    )


class AffDim(Enum):
    TWO = "two"
    ONE = "one"
    ZERO = "zero"
    ONE_OR_ZERO = "one-or-zero"


class AffDimReport(Record):
    __slots__ = ("verdict", "reasons")

    def __init__(self, verdict: AffDim, reasons: tuple[tuple[str, str], ...] = ()):
        self.verdict, self.reasons = verdict, reasons

    def criteria(self) -> tuple[str, ...]:
        return tuple(tag for tag, _ in self.reasons)


def _boundary_claims(surface: CompactifiedSurface, components: Collection):
    """The first claim on each of the kept boundary ``components``, by
    component; a subject that straddles or meets one is rejected."""
    kept = frozenset().union(*components)
    boundary_claims: dict[frozenset[int], FalseFibreClaim] = {}
    for claim in surface.false_fibre_claims:
        if claim.subject in components:
            boundary_claims.setdefault(claim.subject, claim)
        elif claim.subject & kept:
            raise PreconditionError(
                f"claim subject {surface.ambient.names(claim.subject)} "
                "overlaps the boundary without being one of its connected "
                "components"
            )
        else:
            for i in claim.subject:
                if not surface.ambient.neighbours(i).isdisjoint(kept):
                    raise PreconditionError(
                        f"claim subject {surface.ambient.names(claim.subject)} "
                        "meets the boundary, so it is not a divisor inside "
                        "the surface"
                    )
    return boundary_claims


def _inner_nodes(surface: CompactifiedSurface, kept) -> list[int]:
    """Interior curves that miss the ``kept`` boundary: the only curves that
    can support a divisor contained in the open surface."""
    return [
        i
        for i in sorted(surface.interior_curves)
        if surface.ambient.neighbours(i).isdisjoint(kept)
    ]


def _second_fibre_witness(
    surface: CompactifiedSurface, contracted: Optional[Mapping] = None
) -> Optional[str]:
    """Detect, among the supplied curves, two different divisors inside the
    surface that are not negative definite; with ``contracted``, on the
    surface where its boundary parts are contracted.

    Precondition: the kept boundary is nonempty and each of its components
    is of fibre type, as when :func:`_decided_by_boundary` settles nothing.
    Such a component carries an effective F != 0 with F^2 = 0, and an inner
    divisor v meets no boundary curve, so v.F = 0; by the Hodge index
    theorem v^2 > 0 would force F to be numerically trivial.  So an inner
    component with a positive direction is inconsistent data, and each
    other one is negative definite or of fibre type, with a kernel of rank
    1 (Perron-Frobenius).  Two fibre-type components are two such divisors;
    a single one C is the only one iff every inner curve lies in C, as
    dropping a curve of C leaves it negative definite (Zariski's lemma).
    An inner component T is read off its closure T + E, whose block has the
    same positive and zero counts (Haynsworth).
    """
    contracted = contracted or {}
    inner = _inner_nodes(surface, surface.boundary.difference(contracted))
    config = surface.ambient
    blocks = config.connected_components(_closure(config, frozenset(inner), contracted))
    pieces = [(block.difference(contracted), block) for block in blocks]
    fibres = []
    for comp, block in sorted(pieces, key=lambda pair: min(pair[0])):
        plus, minus, _ = config.gram.ldl(block).inertia
        if plus:
            raise DataInconsistencyError(
                f"the inner component of {len(comp)} curve(s) containing "
                f"{config.nodes[min(comp)].name!r} has a positive "
                "direction beside a fibre-type boundary, which the Hodge "
                "index theorem forbids"
            )
        if minus < len(block):
            fibres.append(comp)
    if len(fibres) > 1:
        drop = inner[0]
    elif not fibres or len(fibres[0]) == len(inner):
        return None
    else:
        drop = next(i for i in inner if i not in fibres[0])
    names = config.names([i for i in inner if i != drop])
    return (
        f"supplied interior curves contain two different divisors "
        f"that are not negative definite (e.g. {names} and all inner "
        "curves); a trivial-affinisation surface allows at most one"
    )


def _decided_by_boundary(reports: Sequence[FibreTypeReport]) -> Optional[AffDimReport]:
    """The verdict a saturated boundary's component reports settle alone:
    zero for no component, two for a positive direction, else None."""
    if not reports:
        reason = "empty boundary: only constant functions"
        return AffDimReport(AffDim.ZERO, (("proper-surface", reason),))
    plus = sum(report.positive for report in reports)
    if plus > 0:
        reason = f"boundary pairing has {plus} positive direction(s)"
        return AffDimReport(AffDim.TWO, (("not-negative-semidefinite", reason),))
    return None


def affinisation_dimension(surface: CompactifiedSurface) -> AffDimReport:
    """Classify the dimension of the affinisation of the saturation of
    ``surface``, which is that of ``surface`` itself (affinisations agree
    across big open embeddings).  The saturation plan's contracted parts E
    are read off the record and never built: each curve set is read off
    its closure (see the module docstring).  Interior-based refinements are
    relative to the supplied curves.
    """
    removed = set(saturation_plan(surface).d_minus)
    reports = [r for r in surface.component_reports if r.subject not in removed]
    decided = _decided_by_boundary(reports)
    if decided:
        return decided
    contracted = {i: part for part in removed for i in part}
    by_subject = {report.subject: report for report in reports}
    components = tuple(by_subject)
    base_reason = (
        "fibre-type-boundary",
        f"every boundary component ({len(components)}) is of fibre type",
    )

    claims_check = _check_claims(
        surface.false_fibre_claims, surface.ambient, by_subject, contracted
    )
    if not claims_check.ok:
        triple = claims_check.disjoint_triple
        assert triple is not None
        raise DataInconsistencyError(
            "three pairwise disjoint false-fibre claims: "
            + ", ".join(
                "+".join(surface.ambient.names(c.subject)) for c in triple
            )
            + "; at most two disjoint false fibres can exist"
        )
    boundary_claims = _boundary_claims(surface, by_subject)
    uncovered = [comp for comp in components if comp not in boundary_claims]

    one_reasons: list[tuple[str, str]] = []
    if surface.fibration_asserted:
        one_reasons.append(
            ("fibration-asserted", "the user asserts the boundary supports fibres")
        )
    if len(components) >= 3:
        one_reasons.append(
            (
                "three-disjoint-fibre-type-components",
                "three or more disjoint fibre-type components cannot all be "
                "false fibres",
            )
        )
    witness = _second_fibre_witness(surface, contracted)
    if witness is not None:
        one_reasons.append(("second-fibre-type-divisor", witness))

    if not uncovered:
        if one_reasons:
            raise DataInconsistencyError(
                "the boundary is fully certified as false fibres, yet the "
                f"data also witnesses a fibration ({one_reasons[0][0]}); "
                "these verdicts exclude each other"
            )
        certs = ", ".join(
            "+".join(surface.ambient.names(comp))
            + f": {type(boundary_claims[comp].certificate).__name__}"
            for comp in components
        )
        return AffDimReport(
            AffDim.ZERO,
            (base_reason, ("disjoint-false-fibres", certs)),
        )
    if one_reasons:
        return AffDimReport(AffDim.ONE, (base_reason, *one_reasons))
    missing = "; ".join(
        "+".join(surface.ambient.names(comp)) for comp in uncovered
    )
    return AffDimReport(
        AffDim.ONE_OR_ZERO,
        (
            base_reason,
            (
                "missing-certificates",
                f"no false-fibre certificate for: {missing} (relative to "
                "supplied curves; the numbers alone cannot decide)",
            ),
        ),
    )


class SchemeContractibility(Enum):
    SCHEME_CONTRACTIBLE = "scheme-contractible"
    NOT_SCHEME_CONTRACTIBLE = "not-scheme-contractible"
    UNKNOWN = "unknown"


class SchemeSaturationVerdict(Enum):
    SCHEME_SATURATED = "scheme-saturated"
    NOT_SCHEME_SATURATED = "not-scheme-saturated"
    UNKNOWN = "unknown"


class SchemeSaturationReport(Record):
    __slots__ = ("verdict", "contractible", "unknown", "note")

    def __init__(
        self, verdict: SchemeSaturationVerdict,
        contractible: tuple[frozenset[int], ...] = (),
        unknown: tuple[frozenset[int], ...] = (), note: str = "",
    ):
        self.verdict, self.contractible = verdict, contractible
        self.unknown, self.note = unknown, note


def scheme_saturation_check(
    surface: CompactifiedSurface,
    contractibility_oracle: Mapping[frozenset[int], SchemeContractibility],
) -> SchemeSaturationReport:
    """Decide saturation within the category of schemes.

    Negative definite boundary components can always be contracted to
    algebraic-space points but not necessarily to scheme points, so each
    needs an oracle entry.  A component the oracle marks scheme-contractible
    defeats scheme-saturation; unknown entries (or isolated boundary points,
    whose scheme nature the configuration cannot see) leave the verdict
    unknown.
    """
    neg_def = is_saturated(surface).offending_components
    missing = [comp for comp in neg_def if comp not in contractibility_oracle]
    if missing:
        raise PreconditionError(
            "contractibility oracle lacks entries for negative definite "
            f"components: {[surface.ambient.names(c) for c in missing]}"
        )
    contractible = tuple(
        comp
        for comp in neg_def
        if contractibility_oracle[comp]
        is SchemeContractibility.SCHEME_CONTRACTIBLE
    )
    unknown = tuple(
        comp
        for comp in neg_def
        if contractibility_oracle[comp] is SchemeContractibility.UNKNOWN
    )
    if contractible:
        return SchemeSaturationReport(
            SchemeSaturationVerdict.NOT_SCHEME_SATURATED,
            contractible=contractible,
        )
    if unknown:
        return SchemeSaturationReport(
            SchemeSaturationVerdict.UNKNOWN,
            unknown=unknown,
            note="some components have undecided scheme contractibility",
        )
    if surface.isolated_boundary_points > 0:
        return SchemeSaturationReport(
            SchemeSaturationVerdict.UNKNOWN,
            note=(
                "isolated boundary points: whether they admit schematic "
                "neighbourhoods is not visible in the intersection data"
            ),
        )
    return SchemeSaturationReport(SchemeSaturationVerdict.SCHEME_SATURATED)
