"""JSON document schema: one format feeds every command.

Rationals are encoded as integers or strings like ``"2/3"``; floats are
rejected to keep all arithmetic exact.  Curves are referenced by name in the
``boundary`` and claim subjects; intersection entries use curve indices
or names.
Unlisted intersection pairs default to zero.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

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
from .record import Record
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


class EllipticSection(Record):
    __slots__ = ("curve", "points")

    def __init__(
        self, curve: WeierstrassCurve, points: tuple[tuple[ECPoint, int], ...]
    ):
        self.curve, self.points = curve, points


class Document(Record):
    __slots__ = ("surface", "elliptic")

    def __init__(self, surface: CompactifiedSurface, elliptic=None):
        self.surface, self.elliptic = surface, elliptic


_CURVE_KEYS = frozenset({"name", "genus", "self", "proper"})
_CLAIM_KEYS = frozenset({"subject", "certificate"})
_POINT_KEYS = frozenset({"x", "y", "m"})

# The helpers below report a violation.  ``parse_document`` checks the
# fields of each list entry inline and calls them only when a check fails,
# or, for ``_rational`` and ``_reference``, for a value that is not an int,
# so no path is formatted for a valid document.


def _expect(data, type_, path):
    if not isinstance(data, type_) or isinstance(data, bool) and type_ is not bool:
        wanted = type_.__name__ if isinstance(type_, type) else str(type_)
        raise InputError(
            f"expected {wanted}, got {type(data).__name__}", path=path
        )
    return data


class _Fractions(dict):
    """Each int's ``Fraction``, built on its first lookup: one parse shares
    one per distinct value."""

    def __missing__(self, value: int) -> Fraction:
        self[value] = fraction = Fraction(value)
        return fraction


def _rational(value, path, *args) -> Fraction:
    """``value`` as an exact rational; an error's path is ``path % args``."""
    try:
        return as_rational(value)
    except InputError as exc:
        raise InputError(str(exc), path=path % args if args else path) from exc


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


def _reference(ref, index_of, n, k, pos) -> int:
    """The curve that position ``pos`` of intersection entry ``k`` names,
    when ``ref`` is not an in-range index: a curve name, or an error."""
    if isinstance(ref, str) and ref in index_of:
        return index_of[ref]
    at = f"intersections[{k}][{pos}]"
    if isinstance(ref, str):
        return _curve(ref, index_of, at)
    if not isinstance(ref, int) or isinstance(ref, bool):
        raise InputError(
            f"curve reference must be an index or name, got {ref!r}", path=at
        )
    if not 0 <= ref < n:
        raise InputError(f"curve index {ref} out of range", path=at)
    return ref


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
    # only the integer itself: True and 1.0 compare equal to 1
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InputError(
            f"unsupported schema_version {version!r} (this build reads "
            f"{SCHEMA_VERSION})",
            path="schema_version",
        )

    curves = _expect(data.get("curves", []), list, path="curves")
    nodes, diagonal = [], []
    index_of: dict[str, int] = {}
    fraction = _Fractions()
    # whether every value read so far is an integer: the Gram's integrality
    integral = True
    for i, entry in enumerate(curves):
        if not isinstance(entry, dict) or not entry.keys() <= _CURVE_KEYS:
            _fields(entry, _CURVE_KEYS, f"curves[{i}]")
        name = entry.get("name")
        if type(name) is not str:
            name = _expect(name, str, f"curves[{i}].name")
        genus = entry.get("genus", 0)
        if type(genus) is not int or genus < 0:
            genus = _count(genus, 0, "genus", f"curves[{i}].genus")
        if "self" not in entry:
            raise InputError("missing self-intersection", path=f"curves[{i}].self")
        value = entry["self"]
        if type(value) is int:
            value = fraction[value]
        else:
            value = _rational(value, "curves[%d].self", i)
            integral = integral and value.denominator == 1
        diagonal.append(value)
        proper = entry.get("proper", True)
        if type(proper) is not bool:
            _expect(proper, bool, f"curves[{i}].proper")
        if name in index_of:
            raise InputError(
                f"duplicate curve name {name!r}", path=f"curves[{i}].name"
            )
        index_of[name] = i
        nodes.append(CurveNode(i, name, genus, proper))

    inters = _expect(data.get("intersections", []), list, path="intersections")
    n = len(nodes)
    off: tuple[dict[int, Fraction], ...] = tuple([{} for _ in range(n)])
    seen_pairs = set()
    on_diagonal = False
    for k, entry in enumerate(inters):
        if not isinstance(entry, list):
            _expect(entry, list, f"intersections[{k}]")
        if len(entry) != 3:
            raise InputError("expected [i, j, value]", path=f"intersections[{k}]")
        i, j, value = entry
        if type(i) is not int or not 0 <= i < n:
            i = _reference(i, index_of, n, k, 0)
        if type(j) is not int or not 0 <= j < n:
            j = _reference(j, index_of, n, k, 1)
        if type(value) is int:
            value = fraction[value]
        else:
            value = _rational(value, "intersections[%d][2]", k)
            integral = integral and value.denominator == 1
        if value.numerator < 0:
            raise InputError(
                "distinct curves cannot meet negatively",
                path=f"intersections[{k}][2]",
            )
        key = (i, j) if i < j else (j, i)
        if key in seen_pairs:
            raise InputError(
                f"pair ({nodes[key[0]].name!r}, {nodes[key[1]].name!r}) listed twice",
                path=f"intersections[{k}]",
            )
        seen_pairs.add(key)
        on_diagonal = on_diagonal or i == j
        if value:
            off[i][j] = off[j][i] = value

    if on_diagonal:
        raise InputError(
            "self-intersections belong in the curve entry, not in "
            "'intersections'",
            path="intersections",
        )
    # ids, names, genera, signs, ranges and repeated pairs are checked above
    config = Configuration._unchecked(
        nodes, SymmetricMatrix._from_sparse(tuple(diagonal), off, integral)
    )

    boundary_names = _expect(data.get("boundary", []), list, path="boundary")
    boundary = []
    for k, name in enumerate(boundary_names):
        index = index_of.get(name) if type(name) is str else None
        if index is None:
            index = _curve(name, index_of, f"boundary[{k}]")
        boundary.append(index)
    points = _count(
        data.get("isolated_boundary_points", 0), 0, "", "isolated_boundary_points"
    )

    claims = []
    raw_claims = _expect(
        data.get("false_fibre_claims", []), list, path="false_fibre_claims"
    )
    for k, entry in enumerate(raw_claims):
        if not isinstance(entry, dict) or not entry.keys() <= _CLAIM_KEYS:
            _fields(entry, _CLAIM_KEYS, f"false_fibre_claims[{k}]")
        subject_names = entry.get("subject")
        if not isinstance(subject_names, list):
            _expect(subject_names, list, f"false_fibre_claims[{k}].subject")
        subject = []
        for m, name in enumerate(subject_names):
            index = index_of.get(name) if type(name) is str else None
            if index is None:
                index = _curve(
                    name, index_of, f"false_fibre_claims[{k}].subject[{m}]"
                )
            subject.append(index)
        if not subject:
            raise InputError(
                "subject must be nonempty", path=f"false_fibre_claims[{k}].subject"
            )
        cert_data = entry.get("certificate", "user-asserted")
        if isinstance(cert_data, str):
            cert_data = {"kind": cert_data}
        if not isinstance(cert_data, dict):
            _expect(cert_data, dict, f"false_fibre_claims[{k}].certificate")
        kind = cert_data.get("kind")
        if not isinstance(kind, str) or kind not in _CERTIFICATE_KINDS:
            raise InputError(
                f"unknown certificate kind {kind!r}; expected one of "
                f"{sorted(_CERTIFICATE_KINDS)}",
                path=f"false_fibre_claims[{k}].certificate.kind",
            )
        group_law = kind == "group-law-obstruction"
        allowed = {"kind", "reference"} if group_law else {"kind"}
        if not cert_data.keys() <= allowed:
            _fields(cert_data, allowed, f"false_fibre_claims[{k}].certificate")
        if group_law:
            reference = cert_data.get("reference", "")
            if not isinstance(reference, str):
                _expect(
                    reference, str, f"false_fibre_claims[{k}].certificate.reference"
                )
            certificate = GroupLawObstruction(reference=reference)
        else:
            certificate = _CERTIFICATE_KINDS[kind]()
        claims.append(FalseFibreClaim(frozenset(subject), certificate))

    fibration = data.get("fibration_asserted", False)
    _expect(fibration, bool, path="fibration_asserted")

    elliptic = None
    if "elliptic" in data and data["elliptic"] is not None:
        section = _fields(data["elliptic"], {"curve", "points"}, "elliptic")
        curve_data = _fields(
            section.get("curve"), {"a1", "a2", "a3", "a4", "a6"}, "elliptic.curve"
        )
        coeffs = {
            key: _rational(curve_data.get(key, 0), "elliptic.curve.%s", key)
            for key in ("a1", "a2", "a3", "a4", "a6")
        }
        try:
            curve = WeierstrassCurve(**coeffs)
        except InputError as exc:
            raise InputError(str(exc), path="elliptic.curve") from exc
        raw_points = _expect(section.get("points", []), list, path="elliptic.points")
        ec_points = []
        for k, entry in enumerate(raw_points):
            if not isinstance(entry, dict) or not entry.keys() <= _POINT_KEYS:
                _fields(entry, _POINT_KEYS, f"elliptic.points[{k}]")
            if "x" not in entry or "y" not in entry:
                raise InputError("point needs x and y", path=f"elliptic.points[{k}]")
            x, y = entry["x"], entry["y"]
            if type(x) is int and type(y) is int:
                x, y = fraction[x], fraction[y]
            else:
                x = _rational(x, "elliptic.points[%d].x", k)
                y = _rational(y, "elliptic.points[%d].y", k)
            mult = entry.get("m", 1)
            if type(mult) is not int or mult < 1:
                mult = _count(mult, 1, "multiplicity", f"elliptic.points[{k}].m")
            point = ECPoint(x, y)
            if not curve.contains(point):
                raise InputError(
                    f"point ({x}, {y}) is not on the curve",
                    path=f"elliptic.points[{k}]",
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
        with open(os.fspath(path), encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:
        # ValueError: a NUL byte in the path, or text that is not UTF-8
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"invalid JSON in {path}: nested too deeply") from exc
    except ValueError as exc:  # the only other failure: an over-long integer
        raise InputError(
            f"cannot read {path}: an integer in it has more than "
            f"{sys.get_int_max_str_digits()} digits, the interpreter's limit "
            "for converting text to integers"
        ) from exc
    return parse_document(data)


# -- serialization ------------------------------------------------------


def rational_to_json(value: Fraction):
    """An int, or a ``"p/q"`` string, for an int or a ``Fraction``."""
    num, den = value.as_integer_ratio()
    return num if den == 1 else f"{num}/{den}"


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
