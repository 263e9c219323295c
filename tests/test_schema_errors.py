"""Every error ``parse_document`` and ``load_document`` report, verbatim.

Each row is a malformed document and the exact text of the
:class:`InputError` it raises: the path of the offending field and the
message.  Where one document breaks several rules, the row also pins which
check runs first.
"""

import pytest

from surfsat.errors import InputError
from surfsat.schema import load_document, parse_document

TOP_LEVEL = (
    "['boundary', 'curves', 'elliptic', 'false_fibre_claims', "
    "'fibration_asserted', 'intersections', 'isolated_boundary_points', "
    "'schema_version']"
)
KINDS = "['group-law-obstruction', 'normal-bundle-nontorsion', 'user-asserted']"
CUBIC = {"a3": 1, "a4": -1}  # y^2 + y = x^3 - x


def doc(**fields):
    """Two curves A and B plus ``fields``."""
    base = {"curves": [{"name": "A", "self": 0}, {"name": "B", "self": -1}]}
    base.update(fields)
    return base


def curve(**entry):
    return {"curves": [{"name": "A", "self": 0, **entry}]}


def claim(**entry):
    return doc(false_fibre_claims=[{"subject": ["A"], **entry}])


def point(**entry):
    return {"elliptic": {"curve": CUBIC, "points": [entry]}}


CASES = [
    # top level
    ([], "$: expected dict, got list"),
    ({"boundry": []}, f"$: unknown keys ['boundry']; expected a subset of {TOP_LEVEL}"),
    ({"schema_version": 2}, "schema_version: unsupported schema_version 2 (this build reads 1)"),
    ({"schema_version": "1"}, "schema_version: unsupported schema_version '1' (this build reads 1)"),
    # curves
    ({"curves": {}}, "curves: expected list, got dict"),
    ({"curves": ["A"]}, "curves[0]: expected dict, got str"),
    (curve(colour="red"), "curves[0]: unknown keys ['colour']"),
    ({"curves": [{"self": 0}]}, "curves[0].name: expected str, got NoneType"),
    ({"curves": [{"name": 3, "self": 0}]}, "curves[0].name: expected str, got int"),
    (curve(genus=-1), "curves[0].genus: genus must be a nonnegative integer, got -1"),
    (curve(genus=True), "curves[0].genus: genus must be a nonnegative integer, got True"),
    (curve(genus="1"), "curves[0].genus: genus must be a nonnegative integer, got '1'"),
    (curve(genus=1.0), "curves[0].genus: genus must be a nonnegative integer, got 1.0"),
    ({"curves": [{"name": "A"}]}, "curves[0].self: missing self-intersection"),
    (curve(self=0.5), "curves[0].self: float 0.5 is not exact; encode rationals as 'p/q' strings"),
    (curve(self="x"), "curves[0].self: cannot parse rational from 'x'"),
    (curve(proper=1), "curves[0].proper: expected bool, got int"),
    (
        {"curves": [{"name": "A", "self": 0}, {"name": "A", "self": 1}]},
        "curves[1].name: duplicate curve name 'A'",
    ),
    # the curve's own fields are checked before its name is compared
    (
        {"curves": [{"name": "A", "self": 0}, {"name": "A", "genus": -1, "self": 1}]},
        "curves[1].genus: genus must be a nonnegative integer, got -1",
    ),
    # intersections
    (doc(intersections={}), "intersections: expected list, got dict"),
    (doc(intersections=[(0, 1, 1)]), "intersections[0]: expected list, got tuple"),
    (doc(intersections=[[0, 1]]), "intersections[0]: expected [i, j, value]"),
    (doc(intersections=[[0, 1, 1, 1]]), "intersections[0]: expected [i, j, value]"),
    (doc(intersections=[["A", "C", 1]]), "intersections[0][1]: unknown curve 'C'"),
    (doc(intersections=[[2, 0, 1]]), "intersections[0][0]: curve index 2 out of range"),
    (doc(intersections=[[0, -1, 1]]), "intersections[0][1]: curve index -1 out of range"),
    (
        doc(intersections=[[True, 1, 1]]),
        "intersections[0][0]: curve reference must be an index or name, got True",
    ),
    (
        doc(intersections=[[0, 1.0, 1]]),
        "intersections[0][1]: curve reference must be an index or name, got 1.0",
    ),
    (
        doc(intersections=[[None, 1, 1]]),
        "intersections[0][0]: curve reference must be an index or name, got None",
    ),
    (
        doc(intersections=[[0, 1, 0.5]]),
        "intersections[0][2]: float 0.5 is not exact; encode rationals as 'p/q' strings",
    ),
    (doc(intersections=[[0, 1, "-1/2"]]), "intersections[0][2]: distinct curves cannot meet negatively"),
    (
        doc(intersections=[["A", "B", 1], [1, 0, 1]]),
        "intersections[1]: pair ('A', 'B') listed twice",
    ),
    (
        doc(intersections=[["B", 0, 1], ["A", "B", 2]]),
        "intersections[1]: pair ('A', 'B') listed twice",
    ),
    (
        doc(intersections=[["A", "A", 1]]),
        "intersections: self-intersections belong in the curve entry, not in 'intersections'",
    ),
    # every triple is read before a diagonal entry is reported
    (
        doc(intersections=[[0, 0, 1], [0, 5, 1]]),
        "intersections[1][1]: curve index 5 out of range",
    ),
    # boundary
    (doc(boundary="A"), "boundary: expected list, got str"),
    (doc(boundary=["A", 0]), "boundary[1]: expected str, got int"),
    (doc(boundary=["A", "C"]), "boundary[1]: unknown curve 'C'"),
    # isolated boundary points
    (doc(isolated_boundary_points=-1), "isolated_boundary_points: must be a nonnegative integer, got -1"),
    (doc(isolated_boundary_points=False), "isolated_boundary_points: must be a nonnegative integer, got False"),
    (doc(isolated_boundary_points="2"), "isolated_boundary_points: must be a nonnegative integer, got '2'"),
    # false-fibre claims
    (doc(false_fibre_claims={}), "false_fibre_claims: expected list, got dict"),
    (doc(false_fibre_claims=["A"]), "false_fibre_claims[0]: expected dict, got str"),
    (claim(note="x"), "false_fibre_claims[0]: unknown keys ['note']"),
    (doc(false_fibre_claims=[{}]), "false_fibre_claims[0].subject: expected list, got NoneType"),
    (claim(subject="A"), "false_fibre_claims[0].subject: expected list, got str"),
    (claim(subject=["A", 1]), "false_fibre_claims[0].subject[1]: expected str, got int"),
    (claim(subject=["C"]), "false_fibre_claims[0].subject[0]: unknown curve 'C'"),
    (claim(subject=[]), "false_fibre_claims[0].subject: subject must be nonempty"),
    (claim(certificate=5), "false_fibre_claims[0].certificate: expected dict, got int"),
    (
        claim(certificate="trust-me"),
        f"false_fibre_claims[0].certificate.kind: unknown certificate kind 'trust-me'; expected one of {KINDS}",
    ),
    (
        claim(certificate={}),
        f"false_fibre_claims[0].certificate.kind: unknown certificate kind None; expected one of {KINDS}",
    ),
    (
        claim(certificate={"kind": "group-law-obstruction", "reference": 7}),
        "false_fibre_claims[0].certificate.reference: expected str, got int",
    ),
    # fibration
    (doc(fibration_asserted="yes"), "fibration_asserted: expected bool, got str"),
    # elliptic section
    ({"elliptic": []}, "elliptic: expected dict, got list"),
    ({"elliptic": {"curve": CUBIC, "pts": []}}, "elliptic: unknown keys ['pts']"),
    ({"elliptic": {}}, "elliptic.curve: expected dict, got NoneType"),
    ({"elliptic": {"curve": {"a5": 1}}}, "elliptic.curve: unknown keys ['a5']"),
    (
        {"elliptic": {"curve": {"a4": 0.5}}},
        "elliptic.curve.a4: float 0.5 is not exact; encode rationals as 'p/q' strings",
    ),
    ({"elliptic": {"curve": {}}}, "elliptic.curve: curve is singular (discriminant vanishes)"),
    ({"elliptic": {"curve": CUBIC, "points": {}}}, "elliptic.points: expected list, got dict"),
    ({"elliptic": {"curve": CUBIC, "points": [[0, 0]]}}, "elliptic.points[0]: expected dict, got list"),
    (point(x=0, y=0, z=1), "elliptic.points[0]: unknown keys ['z']"),
    (point(x=0), "elliptic.points[0]: point needs x and y"),
    (point(y=0), "elliptic.points[0]: point needs x and y"),
    (
        point(x=0.5, y=0),
        "elliptic.points[0].x: float 0.5 is not exact; encode rationals as 'p/q' strings",
    ),
    (point(x=0, y=None), "elliptic.points[0].y: expected a rational number, got NoneType"),
    (point(x=0, y=0, m=0), "elliptic.points[0].m: multiplicity must be a positive integer, got 0"),
    (point(x=0, y=0, m=True), "elliptic.points[0].m: multiplicity must be a positive integer, got True"),
    (point(x=0, y=0, m="2"), "elliptic.points[0].m: multiplicity must be a positive integer, got '2'"),
    (point(x=5, y=5), "elliptic.points[0]: point (5, 5) is not on the curve"),
    # the multiplicity is checked before the point is placed on the curve
    (point(x=5, y=5, m=0), "elliptic.points[0].m: multiplicity must be a positive integer, got 0"),
]


@pytest.mark.parametrize("data, message", CASES, ids=[m for _, m in CASES])
def test_parse_document_error(data, message):
    with pytest.raises(InputError) as info:
        parse_document(data)
    assert str(info.value) == message


def test_unreadable_file(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(InputError) as info:
        load_document(path)
    assert str(info.value) == (
        f"cannot read {path}: [Errno 2] No such file or directory: '{path}'"
    )


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"curves": [}')
    with pytest.raises(InputError) as info:
        load_document(path)
    assert str(info.value) == (
        f"invalid JSON in {path}: Expecting value: line 1 column 13 (char 12)"
    )
