"""Command line interface.

Every command reads the same JSON document (see :mod:`surfsat.schema`) and
emits either a stable line-oriented human report or JSON with stable keys.
A command returns a report dict; ``mumford``'s induced matrix stays in it as
the sparse Gram of the contracted surface until it is rendered, and each
renderer writes its dense rows, every zero entry one shared text.
Exit codes: 0 for a definite verdict, 2 for honest indefinite verdicts
(one-or-zero, unknown, inconclusive), 1 for usage errors, input errors or
inconsistent data.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from typing import TYPE_CHECKING, Optional

from .elliptic import hironaka_build, sum_obstruction
from .errors import DataInconsistencyError, InputError, PreconditionError
from .fibres import (
    FibreVerdict,
    GroupLawObstruction,
    validate_false_fibre_claims,
)
from .linalg import SymmetricMatrix
from .mumford import contract
from .saturation import affinisation_dimension, is_saturated, saturation_plan
from .schema import (
    Document,
    certificate_to_json,
    divisor_to_json,
    load_document,
    rational_to_json,
)

if TYPE_CHECKING:  # argparse is imported when a parser is built
    import argparse

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INDEFINITE = 2

_INDEFINITE = {"one-or-zero", "unknown", "inconclusive"}
_FORMATS = ("human", "json")


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


def cmd_saturate(doc: Document) -> dict:
    surface = doc.surface
    verdict = is_saturated(surface)
    return {
        "command": "saturate",
        "verdict": "saturated" if verdict.saturated else "not-saturated",
        "saturation": _saturation_to_json(surface, verdict),
        "plan": _plan_to_json(surface, saturation_plan(surface)),
    }


def cmd_affdim(doc: Document) -> dict:
    surface = doc.surface
    out = {"command": "affdim"}
    if not is_saturated(surface).saturated:
        out["note"] = (
            "input is not saturated; the saturation plan was applied first "
            "(the classification is invariant under it)"
        )
        out["plan"] = _plan_to_json(surface, saturation_plan(surface))
    out.update(_affdim_to_json(affinisation_dimension(surface)))
    return out


def cmd_fibre(doc: Document) -> dict:
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


def cmd_mumford(doc: Document) -> dict:
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
    result = contract(config, parts)
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
                "entries": contracted.gram,
            },
            "singular_points": [
                {"name": s.name, "contracted": list(s.contracted_names)}
                for s in result.singular_points
            ],
        }
    )
    return out


def cmd_hironaka(doc: Document) -> dict:
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


def cmd_analyze(doc: Document) -> dict:
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
    affdim = affinisation_dimension(surface)
    out["affinisation"] = _affdim_to_json(affdim)
    out["verdict"] = affdim.verdict.value
    return out


def cmd_validate(doc: Document) -> dict:
    surface = doc.surface
    problems = []

    config = surface.ambient
    plus = sum(config.gram.ldl(c).inertia[0] for c in config.connected_components())
    if plus > 1:
        problems.append(
            f"the intersection form has {plus} positive directions; the "
            "Hodge index theorem allows at most one on a surface"
        )

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


def _dense_rows(gram, zero, convert):
    """Each row of ``gram`` as a list: ``zero``, one object shared by every
    zero entry, and ``convert(x)`` at each nonzero entry x."""
    n = gram.n
    for i, d in enumerate(gram.diag):
        row = [zero] * n
        for j, x in gram.off_diagonal(i).items():
            row[j] = convert(x)
        row[i] = convert(d)
        yield row


def _entry_text(x) -> str:
    """``str(rational_to_json(x))`` in one call."""
    num, den = x.as_integer_ratio()
    return f"{num}" if den == 1 else f"{num}/{den}"


def _json_entry(x) -> str:
    """``json.dumps(rational_to_json(x))`` in one call."""
    num, den = x.as_integer_ratio()
    return f"{num}" if den == 1 else f'"{num}/{den}"'


def _flatten(prefix: str, value, lines: list[str]) -> None:
    """Append the lines of ``value``, a dict or a list holding a dict or a
    list, under ``prefix``: a dict key by key in sorted order, a list item
    by item.  Each item is sorted out where it is met: a scalar, an empty
    list (``[]``), an empty dict (``{}``) and a list of scalars take one
    line each, and only the other dicts and lists recurse.  A
    ``SymmetricMatrix`` (``mumford``'s induced matrix, sparse until here)
    takes one line per row, as its dense rows would: each row is a list in
    which every zero entry is one shared ``"0"`` and only the nonzero
    entries are converted, joined once, and an empty matrix reads ``[]``."""
    if isinstance(value, dict):
        items = [
            (f"{prefix}.{key}" if prefix else key, value[key])
            for key in sorted(value)
        ]
    else:
        items = [(f"{prefix}[{idx}]", item) for idx, item in enumerate(value)]
    for path, item in items:
        if isinstance(item, dict):
            if item:
                _flatten(path, item, lines)
            else:
                lines.append(f"{path}: {{}}")
        elif isinstance(item, list):
            if {dict, list}.isdisjoint(map(type, item)):
                lines.append(f"{path}: {', '.join(map(str, item)) if item else '[]'}")
            else:
                _flatten(path, item, lines)
        elif isinstance(item, SymmetricMatrix):
            if item.n:
                rows = _dense_rows(item, "0", _entry_text)
                lines.extend(
                    f"{path}[{i}]: {', '.join(row)}" for i, row in enumerate(rows)
                )
            else:
                lines.append(f"{path}: []")
        else:
            lines.append(f"{path}: {item}")


def render_human(report: dict) -> str:
    lines: list[str] = []
    for key in ("command", "verdict"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    rest = {k: v for k, v in report.items() if k not in ("command", "verdict")}
    _flatten("", rest, lines)
    return "\n".join(lines)


def render_json(report: dict) -> str:
    """``report`` as JSON with stable keys, indented by two spaces.

    ``mumford``'s induced matrix is written from its sparse rows, as
    ``json.dumps`` would write its dense rows at that depth: the report is
    dumped with NaN in place of the rows, split there, and joined once with
    the rows' text between.  No other value of a report is a float, and a
    quote inside a JSON string is escaped, so ``"entries": NaN`` occurs
    once, where it was put."""
    matrix = report.get("induced_matrix")
    if matrix is None:
        return json.dumps(report, indent=2, sort_keys=True)
    nan = {**matrix, "entries": float("nan")}
    text = json.dumps({**report, "induced_matrix": nan}, indent=2, sort_keys=True)
    head, tail = text.split('"entries": NaN', 1)
    # a row sits at depth 3 of the report and its entries at depth 4; each
    # row comes after a comma, and the first row's comma is dropped
    rows = [
        ",\n      [\n        " + ",\n        ".join(row) + "\n      ]"
        for row in _dense_rows(matrix["entries"], "0", _json_entry)
    ]
    if not rows:
        return f'{head}"entries": []{tail}'
    rows[0] = rows[0][1:]
    return "".join([head, '"entries": [', *rows, "\n    ]", tail])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by every
    later :func:`main` call in the process; it holds no per-call state.
    It is the only source of help and usage text; :func:`main` asks it only
    for an argv that :func:`_plain_argv` does not read."""
    import argparse

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
        choices=_FORMATS,
        default="human",
        help="output format (default: human)",
    )
    return parser


def _plain_argv(argv) -> Optional[tuple[str, str, str]]:
    """(command, input, format) for ``COMMAND INPUT`` and ``COMMAND INPUT
    --format FMT`` with a known command and format and an INPUT that does
    not start with ``-``, which the parser would read the same way; None
    for any other argv, which goes to the parser."""
    if len(argv) == 2:
        (command, path), fmt = argv, "human"
    elif len(argv) == 4 and argv[2] == "--format":
        command, path, _, fmt = argv
    else:
        return None
    if command in COMMANDS and fmt in _FORMATS and not path.startswith("-"):
        return command, path, fmt
    return None


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    plain = _plain_argv(argv)
    if plain is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse has printed the help (status 0) or the usage error; a
            # usage error is an input error, not an indefinite verdict
            return EXIT_OK if exc.code == 0 else EXIT_INPUT
        plain = args.command, args.input, args.format
    command, path, fmt = plain
    try:
        doc = load_document(path)
        report = COMMANDS[command](doc)
        text = render_json(report) if fmt == "json" else render_human(report)
    except (InputError, PreconditionError, DataInconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        print(
            "error: a number in the result has more than "
            f"{sys.get_int_max_str_digits()} digits, the interpreter's limit "
            "for converting integers to text",
            file=sys.stderr,
        )
        return EXIT_INPUT

    try:
        print(text)
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
