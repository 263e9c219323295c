"""Byte-for-byte CLI output on two wide, sparse documents.

Many small disjoint boundary components, each met by one or two interior
curves, some with fractional self-intersections and meetings: ``mumford``
then prints large induced matrices whose off-diagonal entries come from the
Schur complement, and every command walks long neighbour lists.
``golden/cli_wide.json`` records stdout, stderr and exit code of every
command on both documents in both output formats.  The documents are built
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

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_wide.json"
FORMATS = ("human", "json")
# document name -> (seed, blocks); a block holds four boundary components
DOCUMENTS = {"wide-a": (7, 5), "wide-b": (11, 16)}


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


def cases():
    return [
        (doc, command, fmt)
        for doc in sorted(DOCUMENTS)
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
