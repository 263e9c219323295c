"""Command line interface.

Every command reads the same JSON document (see :mod:`surfsat.schema`) and
emits either a stable line-oriented human report or JSON with stable keys.
Exit codes: 0 for a definite verdict, 2 for honest indefinite verdicts
(one-or-zero, unknown, inconclusive), 1 for input errors or inconsistent
data.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional

from .elliptic import hironaka_build, sum_obstruction
from .errors import DataInconsistencyError, InputError, PreconditionError
from .fibres import (
    FibreVerdict,
    GroupLawObstruction,
    validate_false_fibre_claims,
)
from .saturation import (
    _affinisation_after_plan,
    _contract_components,
    is_saturated,
    saturation_plan,
)
from .schema import (
    Document,
    certificate_to_json,
    divisor_to_json,
    load_document,
    rational_to_json,
)

log = logging.getLogger("surfsat")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INDEFINITE = 2

_INDEFINITE = {"one-or-zero", "unknown", "inconclusive"}


def _names(config, subset) -> list[str]:
    return sorted(config.nodes[i].name for i in subset)


def _saturation_to_json(surface, verdict) -> dict:
    return {
        "saturated": verdict.saturated,
        "criterion": verdict.criterion,
        "offending_components": [
            _names(surface.ambient, comp) for comp in verdict.offending_components
        ],
        "isolated_boundary_points": verdict.isolated_points,
    }


def _plan_to_json(surface, plan) -> dict:
    return {
        "criterion": "contract-negative-definite-components",
        "contract": [_names(surface.ambient, comp) for comp in plan.d_minus],
        "keep": [_names(surface.ambient, comp) for comp in plan.d_plus],
        "points_to_remove": plan.points_to_remove,
        "resulting_boundary_ok": plan.resulting_boundary_ok,
    }


def _affdim_to_json(report) -> dict:
    return {
        "verdict": report.verdict.value,
        "reasons": [
            {"criterion": tag, "evidence": text} for tag, text in report.reasons
        ],
    }


def _fibre_component_to_json(config, report) -> dict:
    out = {
        "component": _names(config, report.subject),
        "criterion": "connected-negative-semidefinite-not-definite",
        "verdict": report.verdict.value,
    }
    if report.kernel is not None:
        out["kernel"] = divisor_to_json(config, report.kernel)
    if report.verdict is FibreVerdict.FIBRE_TYPE:
        # Zariski's lemma holds for every fibre-type subject (validate_zariski)
        out["zariski"] = {"status": "ok", "violations": []}
    return out


def cmd_saturate(doc: Document, args) -> dict:
    surface = doc.surface
    verdict = is_saturated(surface)
    return {
        "command": "saturate",
        "verdict": "saturated" if verdict.saturated else "not-saturated",
        "saturation": _saturation_to_json(surface, verdict),
        "plan": _plan_to_json(surface, saturation_plan(surface)),
    }


def cmd_affdim(doc: Document, args) -> dict:
    surface = doc.surface
    out = {"command": "affdim"}
    plan = saturation_plan(surface)
    if not is_saturated(surface).saturated:
        out["note"] = (
            "input is not saturated; the saturation plan was applied first "
            "(the classification is invariant under it)"
        )
        out["plan"] = _plan_to_json(surface, plan)
    out.update(_affdim_to_json(_affinisation_after_plan(surface, plan)))
    return out


def cmd_fibre(doc: Document, args) -> dict:
    surface = doc.surface
    if not surface.component_reports:
        raise InputError("no boundary components to classify", path="boundary")
    return {
        "command": "fibre",
        "verdict": "classified",
        "components": [
            _fibre_component_to_json(surface.ambient, report)
            for report in surface.component_reports
        ],
    }


def cmd_mumford(doc: Document, args) -> dict:
    surface = doc.surface
    config = surface.ambient
    parts = is_saturated(surface).offending_components
    out = {
        "command": "mumford",
        "criterion": "pullback-orthogonal-to-exceptional",
    }
    if not parts:
        out["verdict"] = "nothing-to-contract"
        return out
    result, _ = _contract_components(surface, parts)
    pullbacks = {
        config.nodes[old].name: divisor_to_json(config, pb)
        for old, pb in zip(result.ambient_ids, result.pullbacks)
    }
    contracted = result.configuration
    out.update(
        {
            "verdict": "contracted",
            "contracted_components": [_names(config, p) for p in parts],
            "pullbacks": pullbacks,
            "induced_matrix": {
                "curves": [node.name for node in contracted.nodes],
                "entries": _dense_json(contracted.gram),
            },
            "singular_points": [
                {"name": s.name, "contracted": list(s.contracted_names)}
                for s in result.singular_points
            ],
        }
    )
    return out


def _dense_json(gram) -> list:
    """JSON rows of a matrix, converting only its nonzero entries."""
    out = []
    for i in range(gram.n):
        row = [0] * gram.n
        for j, x in gram.off_diagonal(i).items():
            row[j] = rational_to_json(x)
        row[i] = rational_to_json(gram.entry(i, i))
        out.append(row)
    return out


def cmd_hironaka(doc: Document, args) -> dict:
    if doc.elliptic is None:
        raise InputError(
            "the hironaka command needs an 'elliptic' section", path="elliptic"
        )
    report = hironaka_build(
        doc.elliptic.curve,
        doc.elliptic.points,
        fibration_asserted=doc.surface.fibration_asserted,
    )
    surface = report.surface
    out = {
        "command": "hironaka",
        "n": report.n,
        "criterion": "boundary-self-intersection-9-minus-n",
        "boundary_self_intersection": rational_to_json(
            report.boundary_self_intersection
        ),
        "obstruction": {
            "criterion": "nontorsion-weighted-point-sum",
            "verdict": report.obstruction.verdict,
            "torsion": str(report.obstruction.torsion),
        },
        "saturation": _saturation_to_json(surface, report.saturation),
        "plan": _plan_to_json(surface, report.plan),
        "scheme_saturation": {
            "criterion": "negative-definite-components-scheme-contractibility",
            "verdict": report.scheme_saturation.verdict.value,
        },
        "affinisation": _affdim_to_json(report.affinisation),
        "verdict": report.affinisation.verdict.value,
    }
    if report.claim is not None:
        out["false_fibre_claim"] = {
            "subject": _names(surface.ambient, report.claim.subject),
            "certificate": certificate_to_json(report.claim.certificate),
        }
    if report.scheme_saturation.verdict.value == "unknown":
        out["verdict"] = "unknown"
    return out


def cmd_analyze(doc: Document, args) -> dict:
    surface = doc.surface
    saturation = is_saturated(surface)
    plan = saturation_plan(surface)
    out = {
        "command": "analyze",
        "saturation": _saturation_to_json(surface, saturation),
        "plan": _plan_to_json(surface, plan),
    }
    if surface.component_reports:
        out["components"] = [
            _fibre_component_to_json(surface.ambient, report)
            for report in surface.component_reports
        ]
    if not saturation.saturated:
        out["note"] = "affinisation classified after applying the saturation plan"
    affdim = _affinisation_after_plan(surface, plan)
    out["affinisation"] = _affdim_to_json(affdim)
    out["verdict"] = affdim.verdict.value
    return out


def cmd_validate(doc: Document, args) -> dict:
    surface = doc.surface
    problems = []

    try:
        claims_report = validate_false_fibre_claims(
            surface.false_fibre_claims, surface.ambient
        )
        if not claims_report.ok:
            triple = claims_report.disjoint_triple
            problems.append(
                "three pairwise disjoint false-fibre claims: "
                + "; ".join(
                    str(_names(surface.ambient, c.subject)) for c in triple
                )
            )
    except (PreconditionError, DataInconsistencyError) as exc:
        problems.append(str(exc))

    if doc.elliptic is not None and doc.elliptic.points:
        obstruction = sum_obstruction(doc.elliptic.curve, doc.elliptic.points)
        for claim in surface.false_fibre_claims:
            if isinstance(claim.certificate, GroupLawObstruction):
                if not obstruction.found:
                    problems.append(
                        "group-law certificate on "
                        f"{_names(surface.ambient, claim.subject)} is not "
                        "reproducible: the supplied weighted point sum is "
                        f"{obstruction.torsion}"
                    )

    return {
        "command": "validate",
        "verdict": "consistent" if not problems else "inconsistent",
        "problems": problems,
    }


COMMANDS = {
    "analyze": cmd_analyze,
    "saturate": cmd_saturate,
    "affdim": cmd_affdim,
    "fibre": cmd_fibre,
    "mumford": cmd_mumford,
    "hironaka": cmd_hironaka,
    "validate": cmd_validate,
}


def _flatten(prefix: str, value, lines: list[str]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], lines)
    elif isinstance(value, list):
        if not value:
            lines.append(f"{prefix}: []")
        elif all(not isinstance(v, (dict, list)) for v in value):
            lines.append(f"{prefix}: {', '.join(str(v) for v in value)}")
        else:
            for idx, item in enumerate(value):
                _flatten(f"{prefix}[{idx}]", item, lines)
    else:
        lines.append(f"{prefix}: {value}")


def render_human(report: dict) -> str:
    lines: list[str] = []
    for key in ("command", "verdict"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    rest = {k: v for k, v in report.items() if k not in ("command", "verdict")}
    _flatten("", rest, lines)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfsat",
        description=(
            "Exact saturation, fibre-type and affinisation analysis of "
            "surface boundary configurations"
        ),
    )
    parser.add_argument(
        "command", choices=sorted(COMMANDS), help="analysis to run"
    )
    parser.add_argument("input", help="JSON input document")
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log intermediate steps"
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(logging.DEBUG if args.verbose else logging.WARNING)
    try:
        doc = load_document(args.input)
        log.debug(
            "parsed %d curves, boundary of %d",
            doc.surface.ambient.n,
            len(doc.surface.boundary),
        )
        report = COMMANDS[args.command](doc, args)
    except (InputError, PreconditionError, DataInconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render_human(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``).  Point stdout at the null
        # device so the interpreter's flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT

    if report.get("verdict") == "inconsistent":
        return EXIT_INPUT
    if report.get("verdict") in _INDEFINITE:
        return EXIT_INDEFINITE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
