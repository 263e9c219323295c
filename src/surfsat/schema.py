"""JSON document schema: one format feeds every command.

Rationals are encoded as integers or strings like ``"2/3"``; floats are
rejected to keep all arithmetic exact.  Curves are referenced by name in the
``boundary`` and claim subjects; intersection entries use curve indices
or names.
Unlisted intersection pairs default to zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .configuration import Configuration, CurveNode, Divisor
from .elliptic import ECPoint, WeierstrassCurve
from .errors import InputError
from .fibres import (
    FalseFibreClaim,
    GroupLawObstruction,
    NormalBundleNonTorsion,
    UserAsserted,
)
from .linalg import SymmetricMatrix, as_rational
from .saturation import CompactifiedSurface

SCHEMA_VERSION = 1

_TOP_LEVEL_KEYS = {
    "schema_version",
    "curves",
    "intersections",
    "boundary",
    "isolated_boundary_points",
    "false_fibre_claims",
    "fibration_asserted",
    "elliptic",
}

_CERTIFICATE_KINDS = {
    "user-asserted": UserAsserted,
    "normal-bundle-nontorsion": NormalBundleNonTorsion,
    "group-law-obstruction": GroupLawObstruction,
}


@dataclass(frozen=True)
class EllipticSection:
    curve: WeierstrassCurve
    points: tuple[tuple[ECPoint, int], ...]


@dataclass(frozen=True)
class Document:
    surface: CompactifiedSurface
    elliptic: Optional[EllipticSection] = None


def _expect(data, type_, path):
    if not isinstance(data, type_) or isinstance(data, bool) and type_ is not bool:
        wanted = type_.__name__ if isinstance(type_, type) else str(type_)
        raise InputError(
            f"expected {wanted}, got {type(data).__name__}", path=path
        )
    return data


def _rational(value, path) -> Fraction:
    try:
        return as_rational(value)
    except InputError as exc:
        raise InputError(str(exc), path=path) from exc


def _fields(entry, allowed, path):
    """``entry`` as an object whose keys all lie in ``allowed``."""
    _expect(entry, dict, path=path)
    extra = set(entry) - allowed
    if extra:
        raise InputError(f"unknown keys {sorted(extra)}", path=path)
    return entry


def _count(value, least, what, path) -> int:
    """``value`` as a non-boolean integer of at least ``least`` (0 or 1)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        sign = "positive" if least else "nonnegative"
        raise InputError(
            f"{what} must be a {sign} integer, got {value!r}".lstrip(), path=path
        )
    return value


def _curve(name, index_of, path) -> int:
    """The index of the curve called ``name``."""
    _expect(name, str, path=path)
    if name not in index_of:
        raise InputError(f"unknown curve {name!r}", path=path)
    return index_of[name]


def parse_document(data) -> Document:
    """Validate and convert a parsed JSON object to domain values.

    Violations are reported with the path of the offending field.
    """
    _expect(data, dict, path="$")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise InputError(
            f"unknown keys {sorted(unknown)}; expected a subset of "
            f"{sorted(_TOP_LEVEL_KEYS)}",
            path="$",
        )
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InputError(
            f"unsupported schema_version {version!r} (this build reads "
            f"{SCHEMA_VERSION})",
            path="schema_version",
        )

    curves = _expect(data.get("curves", []), list, path="curves")
    nodes, diagonal = [], []
    index_of: dict[str, int] = {}
    for i, entry in enumerate(curves):
        path = f"curves[{i}]"
        _fields(entry, {"name", "genus", "self", "proper"}, path)
        name = _expect(entry.get("name"), str, path=f"{path}.name")
        genus = _count(entry.get("genus", 0), 0, "genus", f"{path}.genus")
        if "self" not in entry:
            raise InputError("missing self-intersection", path=f"{path}.self")
        diagonal.append(_rational(entry["self"], path=f"{path}.self"))
        proper = _expect(entry.get("proper", True), bool, path=f"{path}.proper")
        if name in index_of:
            raise InputError(f"duplicate curve name {name!r}", path=f"{path}.name")
        index_of[name] = i
        nodes.append(CurveNode(i, name, genus=genus, proper=proper))

    inters = _expect(data.get("intersections", []), list, path="intersections")
    triples = []
    seen_pairs = set()
    for k, entry in enumerate(inters):
        path = f"intersections[{k}]"
        _expect(entry, list, path=path)
        if len(entry) != 3:
            raise InputError("expected [i, j, value]", path=path)
        pair = []
        for pos, ref in enumerate(entry[:2]):
            at = f"{path}[{pos}]"
            if isinstance(ref, str):
                ref = _curve(ref, index_of, at)
            elif not isinstance(ref, int) or isinstance(ref, bool):
                raise InputError(
                    f"curve reference must be an index or name, got {ref!r}", path=at
                )
            elif not 0 <= ref < len(nodes):
                raise InputError(f"curve index {ref} out of range", path=at)
            pair.append(ref)
        value = _rational(entry[2], path=f"{path}[2]")
        if value < 0:
            raise InputError(
                "distinct curves cannot meet negatively", path=f"{path}[2]"
            )
        key = (min(pair), max(pair))
        if key in seen_pairs:
            raise InputError(
                f"pair ({nodes[key[0]].name!r}, {nodes[key[1]].name!r}) listed twice",
                path=path,
            )
        seen_pairs.add(key)
        triples.append((pair[0], pair[1], value))

    if any(i == j for i, j, _ in triples):
        raise InputError(
            "self-intersections belong in the curve entry, not in "
            "'intersections'",
            path="intersections",
        )
    config = Configuration(nodes, SymmetricMatrix.from_entries(diagonal, triples))

    boundary_names = _expect(data.get("boundary", []), list, path="boundary")
    boundary = {
        _curve(name, index_of, f"boundary[{k}]")
        for k, name in enumerate(boundary_names)
    }
    points = _count(
        data.get("isolated_boundary_points", 0), 0, "", "isolated_boundary_points"
    )

    claims = []
    raw_claims = _expect(
        data.get("false_fibre_claims", []), list, path="false_fibre_claims"
    )
    for k, entry in enumerate(raw_claims):
        path = f"false_fibre_claims[{k}]"
        _fields(entry, {"subject", "certificate"}, path)
        subject_names = _expect(entry.get("subject"), list, path=f"{path}.subject")
        subject = frozenset(
            _curve(name, index_of, f"{path}.subject[{m}]")
            for m, name in enumerate(subject_names)
        )
        if not subject:
            raise InputError("subject must be nonempty", path=f"{path}.subject")
        cert_data = entry.get("certificate", "user-asserted")
        if isinstance(cert_data, str):
            cert_data = {"kind": cert_data}
        _expect(cert_data, dict, path=f"{path}.certificate")
        kind = cert_data.get("kind")
        if not isinstance(kind, str) or kind not in _CERTIFICATE_KINDS:
            raise InputError(
                f"unknown certificate kind {kind!r}; expected one of "
                f"{sorted(_CERTIFICATE_KINDS)}",
                path=f"{path}.certificate.kind",
            )
        if kind == "group-law-obstruction":
            reference = cert_data.get("reference", "")
            _expect(reference, str, path=f"{path}.certificate.reference")
            certificate = GroupLawObstruction(reference=reference)
        else:
            certificate = _CERTIFICATE_KINDS[kind]()
        claims.append(FalseFibreClaim(subject, certificate))

    fibration = data.get("fibration_asserted", False)
    _expect(fibration, bool, path="fibration_asserted")

    elliptic = None
    if "elliptic" in data and data["elliptic"] is not None:
        section = _fields(data["elliptic"], {"curve", "points"}, "elliptic")
        curve_data = _fields(
            section.get("curve"), {"a1", "a2", "a3", "a4", "a6"}, "elliptic.curve"
        )
        coeffs = {
            key: _rational(curve_data.get(key, 0), path=f"elliptic.curve.{key}")
            for key in ("a1", "a2", "a3", "a4", "a6")
        }
        try:
            curve = WeierstrassCurve(**coeffs)
        except InputError as exc:
            raise InputError(str(exc), path="elliptic.curve") from exc
        raw_points = _expect(section.get("points", []), list, path="elliptic.points")
        ec_points = []
        for k, entry in enumerate(raw_points):
            path = f"elliptic.points[{k}]"
            _fields(entry, {"x", "y", "m"}, path)
            if "x" not in entry or "y" not in entry:
                raise InputError("point needs x and y", path=path)
            x = _rational(entry["x"], path=f"{path}.x")
            y = _rational(entry["y"], path=f"{path}.y")
            mult = _count(entry.get("m", 1), 1, "multiplicity", f"{path}.m")
            point = ECPoint.affine(x, y)
            if not curve.contains(point):
                raise InputError(
                    f"point ({x}, {y}) is not on the curve", path=path
                )
            ec_points.append((point, mult))
        elliptic = EllipticSection(curve=curve, points=tuple(ec_points))

    surface = CompactifiedSurface(
        ambient=config,
        boundary=frozenset(boundary),
        isolated_boundary_points=points,
        false_fibre_claims=tuple(claims),
        fibration_asserted=fibration,
    )
    return Document(surface=surface, elliptic=elliptic)


def load_document(path) -> Document:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return parse_document(data)


# -- serialization ------------------------------------------------------


def rational_to_json(value: Fraction):
    value = as_rational(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def certificate_to_json(certificate) -> dict:
    for kind, cls in _CERTIFICATE_KINDS.items():
        if isinstance(certificate, cls):
            out = {"kind": kind}
            if isinstance(certificate, GroupLawObstruction):
                out["reference"] = certificate.reference
            return out
    raise InputError(f"unknown certificate {certificate!r}")


def divisor_to_json(config: Configuration, divisor: Divisor) -> dict:
    return {
        config.nodes[i].name: rational_to_json(c)
        for i, c in divisor.coefficients.items()
    }


def document_to_json(doc: Document) -> dict:
    """Inverse of :func:`parse_document` up to normalisation."""
    surface = doc.surface
    config = surface.ambient
    curves = [
        {
            "name": node.name,
            "genus": node.genus,
            "self": rational_to_json(config.gram.entry(node.id, node.id)),
            "proper": node.proper,
        }
        for node in config.nodes
    ]
    intersections = [
        [i, j, rational_to_json(x)]
        for i in range(config.n)
        for j, x in sorted(config.gram.off_diagonal(i).items())
        if j > i
    ]
    out = {
        "schema_version": SCHEMA_VERSION,
        "curves": curves,
        "intersections": intersections,
        "boundary": sorted(config.nodes[i].name for i in surface.boundary),
        "isolated_boundary_points": surface.isolated_boundary_points,
        "false_fibre_claims": [
            {
                "subject": sorted(config.nodes[i].name for i in claim.subject),
                "certificate": certificate_to_json(claim.certificate),
            }
            for claim in surface.false_fibre_claims
        ],
        "fibration_asserted": surface.fibration_asserted,
    }
    if doc.elliptic is not None:
        curve = doc.elliptic.curve
        out["elliptic"] = {
            "curve": {
                key: rational_to_json(getattr(curve, key))
                for key in ("a1", "a2", "a3", "a4", "a6")
            },
            "points": [
                {
                    "x": rational_to_json(point.x),
                    "y": rational_to_json(point.y),
                    "m": mult,
                }
                for point, mult in doc.elliptic.points
            ],
        }
    return out
