"""Byte-for-byte CLI output on three wide, sparse documents.

Many small disjoint boundary components, each met by one or two interior
curves, some with fractional self-intersections and meetings: ``mumford``
then prints large induced matrices whose off-diagonal entries come from the
Schur complement, and every command walks long neighbour lists.  The first
two documents have more than one positive direction, so the Hodge index
theorem refuses them; the third is drawn from classes on a blown-up plane,
obeys the theorem and reads ``one`` after its contraction.
``golden/cli_wide.json`` records stdout, stderr and exit code of every
command on every document in both output formats.  The documents are built
here from fixed seeds.  After an intended change of output, regenerate the
file with ``PYTHONPATH=src python tests/test_golden_wide.py`` and review the
diff.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from surfsat.cli import COMMANDS, main
from surfsat.saturation import _inner_nodes, saturation_plan
from surfsat.schema import parse_document

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_wide.json"
FORMATS = ("human", "json")
# document name -> (seed, blocks); a block holds four boundary components
DOCUMENTS = {"wide-a": (7, 5), "wide-b": (11, 16)}
# document name -> (seed, groups), for lattice_document
LATTICE_DOCUMENTS = {"wide-c": (13, 12)}


def wide_document(seed: int, blocks: int) -> dict:
    """Boundary components in shuffled order: (-2)-chains of length one to
    three (now and then a (-3)-curve) and genus-1 0-curves, each met by one
    or two interior curves, plus a few interior curves away from the
    boundary, two of them meeting."""
    rng = random.Random(seed)
    curves, meets, boundary = [], [], []

    def curve(name, self_int, genus=0, on_boundary=False):
        curves.append({"name": name, "genus": genus, "self": self_int})
        if on_boundary:
            boundary.append(name)
        return len(curves) - 1

    kinds = [0, 1, 2, 3] * blocks
    rng.shuffle(kinds)
    for c, length in enumerate(kinds):
        if length:
            ids = [
                curve(f"A{c}_{i}", rng.choice((-2, -2, -2, -3)), on_boundary=True)
                for i in range(length)
            ]
            meets += [[a, b, 1] for a, b in zip(ids, ids[1:])]
        else:
            ids = [curve(f"Z{c}", 0, genus=1, on_boundary=True)]
        for k in range(rng.choice((1, 1, 2))):
            interior = curve(f"I{c}_{k}", rng.choice((-1, -2, "-1/2", 1)))
            meets.append([rng.choice(ids), interior, rng.choice((1, 1, 2, "1/2"))])
    inner = [curve(f"F{k}", rng.choice((-1, -2, -3))) for k in range(blocks // 2 + 2)]
    meets.append([inner[0], inner[1], 1])
    return {
        "schema_version": 1,
        "curves": curves,
        "intersections": meets,
        "boundary": boundary,
    }


def lattice_document(seed: int, groups: int) -> dict:
    """Curves given by their classes a H + sum m_i E_i on the plane blown up
    at points p_1, p_2, ..., so that every intersection number is
    a a' - sum m_i m'_i.  That form has one positive direction, so the
    document obeys the Hodge index theorem.

    The kept boundary is fibres of the pencil of lines through p_1 (class
    H - E_1): one line F, and per fibre group a line through p_1 and p_k
    with E_k.  The contracted boundary is (-2)-chains E_a - E_b - ...  The
    interior holds the section E_1 and a line H, which meet the fibres; the
    last E of each chain group, which meets only its chain; and, per split
    group, a fibre L + chain + E_c with L = H - E_1 - E_a, whose inner
    curves L and E_c meet only through the contracted chain."""
    rng = random.Random(seed)
    curves, classes, boundary = [], [], []
    points = iter(range(2, 10**6))

    def curve(name, a, m, on_boundary=False):
        curves.append({"name": name, "genus": 0, "self": a * a - sum(
            v * v for v in m.values()
        )})
        classes.append((a, m))
        if on_boundary:
            boundary.append(name)

    def chain(c, length, start=None):
        """The (-2)-chain E_p0 - E_p1, E_p1 - E_p2, ...; its points."""
        ps = [start or next(points)] + [next(points) for _ in range(length)]
        for j, (a, b) in enumerate(zip(ps, ps[1:])):
            curve(f"D{c}_{j}", 0, {a: 1, b: -1}, on_boundary=True)
        return ps

    curve("F", 1, {1: -1}, on_boundary=True)
    curve("S", 0, {1: 1})
    curve("H", 1, {})
    kinds = ["fibre", "chain"] * groups + ["split"] * (groups // 4 + 1)
    rng.shuffle(kinds)
    for c, kind in enumerate(kinds):
        if kind == "fibre":
            k = next(points)
            curve(f"F{c}", 1, {1: -1, k: -1}, on_boundary=True)
            curve(f"X{c}", 0, {k: 1}, on_boundary=True)
        elif kind == "chain":
            curve(f"T{c}", 0, {chain(c, rng.randint(1, 3))[-1]: 1})
        else:
            a = next(points)
            curve(f"L{c}", 1, {1: -1, a: -1})
            curve(f"T{c}", 0, {chain(c, rng.randint(1, 3), a)[-1]: 1})
    meets = []
    for i, (a, m) in enumerate(classes):
        for j in range(i + 1, len(classes)):
            b, n = classes[j]
            value = a * b - sum(v * n.get(k, 0) for k, v in m.items())
            if value:
                meets.append([i, j, value])
    return {
        "schema_version": 1,
        "curves": curves,
        "intersections": meets,
        "boundary": boundary,
    }


def cases():
    return [
        (doc, command, fmt)
        for doc in sorted([*DOCUMENTS, *LATTICE_DOCUMENTS])
        for command in sorted(COMMANDS)
        for fmt in FORMATS
    ]


def key(doc, command, fmt) -> str:
    return f"{doc} {command} {fmt}"


def write_documents(directory: Path) -> None:
    for name, (seed, blocks) in DOCUMENTS.items():
        (directory / f"{name}.json").write_text(
            json.dumps(wide_document(seed, blocks))
        )
    for name, (seed, groups) in LATTICE_DOCUMENTS.items():
        (directory / f"{name}.json").write_text(
            json.dumps(lattice_document(seed, groups))
        )


def run_case(directory: Path, doc, command, fmt) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(directory / f"{doc}.json"), "--format", fmt])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("wide")
    write_documents(directory)
    return directory


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(key(*case) for case in cases())


def test_documents_are_wide():
    sizes = sorted(len(wide_document(*spec)["curves"]) for spec in DOCUMENTS.values())
    assert 50 <= sizes[0] <= 70 and 180 <= sizes[1] <= 220


def test_the_lattice_document_reads_one_after_a_contraction(golden):
    # the Hodge index theorem holds, so validate finds nothing, and the
    # verdict commands classify the saturation
    out = json.loads(golden["wide-c validate json"]["stdout"])
    assert out["verdict"] == "consistent"
    for command in ("affdim", "analyze"):
        out = json.loads(golden[f"wide-c {command} json"]["stdout"])
        assert out["verdict"] == "one" and out["plan"]["contract"]


def test_an_inner_component_meets_a_contracted_part():
    s = parse_document(lattice_document(*LATTICE_DOCUMENTS["wide-c"])).surface
    plan = saturation_plan(s)
    removed = frozenset().union(*plan.d_minus)
    inner = _inner_nodes(s, frozenset().union(*plan.d_plus))
    assert 50 <= s.ambient.n <= 120
    assert any(not s.ambient.neighbours(i).isdisjoint(removed) for i in inner)


@pytest.mark.parametrize(
    "doc,command,fmt", cases(), ids=[key(*case) for case in cases()]
)
def test_output_is_byte_identical(golden, documents, doc, command, fmt):
    assert run_case(documents, doc, command, fmt) == golden[key(doc, command, fmt)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_documents(Path(tmp))
        records = {key(*case): run_case(Path(tmp), *case) for case in cases()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
