"""Byte-for-byte CLI output on documents that exercise fibre-type
classification.

Three seeded documents: a fibre-type cycle of 60 curves with fractional
meetings and kernel multiplicities up to 3; extended E and D diagrams
(kernel multiplicities up to 6), a genus-1 0-curve and three components
that are not negative semidefinite with four positive directions between
them, so ``affdim`` reports a summed count; and three fibre-type components
of rational Gram.  Every document also has a negative definite boundary
chain, interior curves meeting the boundary and two inner curves; curve
order is shuffled, so components interleave and the last node of a
component falls anywhere in its shape.  ``golden/cli_fibre.json`` records
stdout, stderr and exit code of every command on every document in both
output formats.  After an intended change of output, regenerate the file
with ``PYTHONPATH=src python tests/test_golden_fibre.py`` and review the
diff.
"""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from surfsat.cli import COMMANDS, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_fibre.json"
FORMATS = ("human", "json")
MEETINGS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(2, 3))


def rational(x) -> object:
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def weighted(rng, prefix, edges, k, fractional=True):
    """Curves of a connected fibre-type component with kernel vector v:
    meetings along ``edges``, self-intersections -sum_j m_ij v_j / v_i."""
    v = [1] + [rng.randint(1, 3) for _ in range(k - 1)]
    meet = {e: rng.choice(MEETINGS) if fractional else 1 for e in edges}
    row = [Fraction(0)] * k
    for (i, j), m in meet.items():
        row[i] += m * v[j]
        row[j] += m * v[i]
    curves = [(f"{prefix}{i}", -row[i] / v[i], 0) for i in range(k)]
    return curves, [(i, j, m) for (i, j), m in meet.items()]


def minus_two_tree(prefix, arms):
    """Star of (-2)-curves: extended E diagrams for arms (1,2,5), (1,3,3)."""
    curves, edges = [(f"{prefix}0", -2, 0)], []
    for length in arms:
        prev = 0
        for _ in range(length):
            curves.append((f"{prefix}{len(curves)}", -2, 0))
            edges.append((prev, len(curves) - 1, 1))
            prev = len(curves) - 1
    return curves, edges


def d_tilde(prefix, n):
    """Extended D_n of (-2)-curves: kernel multiplicities 2 on the chain."""
    chain = n - 3
    curves = [(f"{prefix}{i}", -2, 0) for i in range(n + 1)]
    edges = [(i, i + 1, 1) for i in range(chain - 1)]
    edges += [(0, chain, 1), (0, chain + 1, 1)]
    edges += [(chain - 1, chain + 2, 1), (chain - 1, chain + 3, 1)]
    return curves, edges


def components(name, rng):
    """Boundary components of each document, as (curves, edges) pairs."""
    chain = [(f"N{i}", s, 0) for i, s in enumerate((-2, -3, -2))], [(0, 1, 1), (1, 2, 1)]
    if name == "rational-cycle":
        k = 60
        return [weighted(rng, "A", [(i, (i + 1) % k) for i in range(k)], k), chain]
    if name == "mixed-shapes":
        return [
            minus_two_tree("E", (1, 2, 5)),
            d_tilde("D", 5),
            ([("Z", 0, 1)], []),
            ([("H", 1, 0)], []),
            ([(f"P{i}", 1, 0) for i in range(3)], [(0, 1, 1), (1, 2, 1)]),
            ([("Q0", "1/2", 0), ("Q1", "1/2", 0)], [(0, 1, "3/2")]),
            chain,
        ]
    tree = [(rng.randrange(i), i) for i in range(1, 9)]
    return [
        minus_two_tree("E", (1, 3, 3)),
        weighted(rng, "T", tree, 9),
        weighted(rng, "C", [(i, (i + 1) % 7) for i in range(7)], 7),
        chain,
    ]


def fibre_document(name: str, seed: int) -> dict:
    rng = random.Random(seed)
    curves, meets, boundary = [], [], []
    for comp_curves, edges in components(name, rng):
        base = len(curves)
        curves += comp_curves
        boundary += [c[0] for c in comp_curves]
        meets += [(base + i, base + j, m) for i, j, m in edges]
    for k in range(5):
        curves.append((f"I{k}", rng.choice((-1, -2, "-1/2", 1)), 0))
        meets.append((rng.randrange(len(boundary)), len(curves) - 1, rng.choice(MEETINGS)))
    curves += [("F0", -1, 0), ("F1", -2, 0)]
    meets.append((len(curves) - 2, len(curves) - 1, 1))
    order = list(range(len(curves)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    doc = {
        "schema_version": 1,
        "curves": [
            {"name": n, "genus": g, "self": rational(s)}
            for n, s, g in (curves[old] for old in order)
        ],
        "intersections": [
            [position[i], position[j], rational(m)] for i, j, m in meets
        ],
        "boundary": boundary,
    }
    if name == "mixed-shapes":
        doc["false_fibre_claims"] = [
            {"subject": [c[0] for c in minus_two_tree("E", (1, 2, 5))[0]],
             "certificate": "user-asserted"},
            {"subject": ["Z"], "certificate": "normal-bundle-nontorsion"},
        ]
    return doc


# document name -> seed
DOCUMENTS = {"rational-cycle": 3, "mixed-shapes": 5, "three-fibres": 9}


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
    for name, seed in DOCUMENTS.items():
        (directory / f"{name}.json").write_text(json.dumps(fibre_document(name, seed)))


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
    directory = tmp_path_factory.mktemp("fibre")
    write_documents(directory)
    return directory


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(key(*case) for case in cases())


def test_golden_reaches_the_intended_paths(golden):
    fibre = golden[key("rational-cycle", "fibre", "human")]["stdout"]
    assert "components[0].verdict: fibre-type" in fibre
    assert "negative-definite" in fibre
    affdim = golden[key("mixed-shapes", "affdim", "human")]["stdout"]
    assert "boundary pairing has 4 positive direction(s)" in affdim
    kernels = golden[key("mixed-shapes", "fibre", "human")]["stdout"]
    assert ".kernel.E" in kernels and ": 6\n" in kernels
    assert golden[key("three-fibres", "affdim", "human")]["exit"] == 0


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
