"""The inline parse and the one-pass render against their former versions.

``parse_document`` checks each field inline and formats a path only when a
check fails; ``oracle_parse_document`` is the former parse, with a helper
call and a path string per field.  Mutants of the sample documents and of
generated ones must give an equal ``Document`` from both, or the same
exception with the same text and path, and the Gram's integrality, which
the parse records from the values it read, must be what a scan of the
entries finds.  The rational strings are read by splitting the matched
digits, where the former parse called ``Fraction(str)``; the odd strings
(leading zeros, ``-0``, a zero denominator, digit strings at and past the
interpreter's conversion limit) must read the same both ways.
``render_human`` writes scalars where it meets them;
``oracle_render_human`` is the former recursive renderer, and both must
print the same text for any report.  ``mumford`` writes its own text from
the contraction's record, a row at a time: in both formats it must be the
former renderers' text on ``oracle_mumford_report``, whose induced matrix
is the dense rows of ``oracle_dense_json``.  ``document_to_json``, the
test helper that serialises a document, lists a Gram's intersections as
the pairwise scan did, and in linear time.
"""

import copy
import gc
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from surfsat import (
    CompactifiedSurface,
    Configuration,
    CurveNode,
    FalseFibreClaim,
    UserAsserted,
)
from surfsat.cli import COMMANDS, cmd_mumford, render_human, render_json
from surfsat.errors import SurfsatError
from surfsat.linalg import SymmetricMatrix, as_rational
from surfsat.schema import (
    Document,
    load_document,
    parse_document,
    rational_to_json,
)

from support import (
    document_to_json,
    oracle_as_rational,
    oracle_mumford_report,
    oracle_parse_document,
    oracle_render_human,
    random_configuration,
)

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"

# values that break, or bend, the rule of whatever field they replace
ODD_VALUES = [
    True, False, 0.5, 1.0, None, -1, 0, 1, 2, 10**6, "1/2", "-1/2", "x",
    "0/0", "", [], {}, [0, 1], {"kind": "user-asserted"},
]


def outcome(parse, data):
    """The parsed document, or the error's type, text and path."""
    try:
        return parse(copy.deepcopy(data))
    except SurfsatError as exc:
        return type(exc), str(exc), getattr(exc, "path", None)


def scanned_integral(doc) -> bool:
    """What ``_is_integral`` finds on a copy of the Gram that records
    nothing."""
    gram = doc.surface.ambient.gram
    return SymmetricMatrix._from_sparse(gram.diag, gram._off)._is_integral()


def sample_documents():
    return [json.loads(path.read_text()) for path in sorted(SAMPLES.glob("*.json"))]


def generated_documents(rng, count):
    """Random boundary configurations with claims, some intersections named
    by curve and some rationals written as strings."""
    docs = []
    for _ in range(count):
        config = random_configuration(rng, rng.randint(1, 7))
        boundary = frozenset(i for i in range(config.n) if rng.random() < 0.6)
        claims = [
            FalseFibreClaim(frozenset(rng.sample(range(config.n), 1)), UserAsserted())
            for _ in range(rng.randint(0, 2))
        ]
        surface = CompactifiedSurface(
            config, boundary, rng.randint(0, 2), tuple(claims), rng.random() < 0.3
        )
        data = document_to_json(Document(surface))
        names = [curve["name"] for curve in data["curves"]]
        for entry in data["intersections"]:
            if rng.random() < 0.4:
                entry[0] = names[entry[0]]
            if rng.random() < 0.3:
                entry[2] = str(entry[2])
        for curve in data["curves"]:
            if rng.random() < 0.2:
                curve["self"] = f"{curve['self']}/1"
            if rng.random() < 0.2:
                del curve["genus"]
        docs.append(data)
    return docs


def containers(data, at=()):
    """Every dict and list inside ``data`` with its location."""
    yield at, data
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from containers(value, at + (key,))


def mutate(rng, data):
    """One mutation of ``data`` in place; returns its name."""
    curves, inters = data.get("curves"), data.get("intersections")
    if not isinstance(curves, list):
        curves = []
    curves = [c for c in curves if isinstance(c, dict)]
    if not isinstance(inters, list):
        inters = []
    kind = rng.choice([
        "odd-value", "odd-value", "unknown-key", "drop-key", "reference",
        "missing-self", "duplicate-name", "pair-twice", "negative-meeting",
        "drop-item",
    ])
    if kind == "odd-value":
        _, box = rng.choice(list(containers(data)))
        if box:
            key = rng.choice(list(box) if isinstance(box, dict) else range(len(box)))
            box[key] = rng.choice(ODD_VALUES)
            return kind
    if kind == "unknown-key":
        dicts = [box for _, box in containers(data) if isinstance(box, dict)]
        rng.choice(dicts)[rng.choice(["colour", "note", "a5", "pts"])] = 1
        return kind
    if kind == "drop-key":
        dicts = [box for _, box in containers(data) if isinstance(box, dict) and box]
        if dicts:
            box = rng.choice(dicts)
            del box[rng.choice(list(box))]
            return kind
    if kind == "reference" and inters:
        entry = rng.choice(inters)
        if isinstance(entry, list) and len(entry) == 3:
            names = [c.get("name") for c in curves]
            entry[rng.randrange(2)] = rng.choice(
                [len(curves), -1, True, "nobody", 0.0, None] + names
            )
            return kind
    if kind == "missing-self" and curves:
        rng.choice(curves).pop("self", None)
        return kind
    if kind == "duplicate-name" and len(curves) > 1:
        a, b = rng.sample(range(len(curves)), 2)
        curves[b]["name"] = curves[a].get("name")
        return kind
    if kind == "pair-twice" and inters:
        entry = list(rng.choice(inters))
        if len(entry) == 3 and rng.random() < 0.5:
            entry[0], entry[1] = entry[1], entry[0]
        inters.insert(rng.randrange(len(inters) + 1), entry)
        return kind
    if kind == "negative-meeting" and inters:
        entry = rng.choice(inters)
        if isinstance(entry, list) and len(entry) == 3:
            entry[2] = rng.choice([-1, "-1/2", Fraction(-1, 3)])
            return kind
    if kind == "drop-item":
        lists = [box for _, box in containers(data) if isinstance(box, list) and box]
        if lists:
            box = rng.choice(lists)
            del box[rng.randrange(len(box))]
            return kind
    return None


def test_parse_matches_the_former_parse_on_mutants():
    rng = random.Random(20261018)
    bases = sample_documents() + generated_documents(rng, 30)
    for base in bases:
        assert outcome(parse_document, base) == outcome(oracle_parse_document, base)
    kinds = {}
    parsed = 0
    messages = set()
    for _ in range(3000):
        data = copy.deepcopy(rng.choice(bases))
        applied = [mutate(rng, data) for _ in range(rng.choice((1, 1, 2)))]
        new = outcome(parse_document, data)
        assert new == outcome(oracle_parse_document, data), (applied, data)
        for kind in applied:
            kinds[kind] = kinds.get(kind, 0) + 1
        if isinstance(new, tuple):
            messages.add(new[1].split(":")[0])
        else:
            parsed += 1
            assert new.surface.ambient.gram._integral is scanned_integral(new)
    assert all(kinds.get(kind, 0) > 150 for kind in (
        "odd-value", "unknown-key", "drop-key", "reference", "missing-self",
        "duplicate-name", "pair-twice", "negative-meeting", "drop-item",
    )), kinds
    # both outcomes occur often, and the errors come from many fields
    assert 300 < parsed < 2700 and len(messages) > 80, (parsed, len(messages))


def test_recorded_integrality_on_fractional_grams():
    # generated documents with a fraction added to some entries, written
    # as strings or as "p/1", so both outcomes occur often
    rng = random.Random(1717)
    seen = {True: 0, False: 0}
    for data in generated_documents(rng, 300):
        entries = [(c, "self") for c in data["curves"]]
        entries += [(e, 2) for e in data["intersections"]]
        for box, key in entries:
            if rng.random() < 0.1:
                value = Fraction(box[key]) + Fraction(1, rng.randint(1, 3))
                box[key] = f"{value.numerator}/{value.denominator}"
        new = outcome(parse_document, data)
        assert new == outcome(oracle_parse_document, data), data
        assert new.surface.ambient.gram._integral is scanned_integral(new)
        seen[new.surface.ambient.gram._integral] += 1
    assert min(seen.values()) > 50, seen


LIMIT = sys.get_int_max_str_digits() or 4300
ODD_STRINGS = [
    "007", "-0", "-007/010", "0/5", "-0/3", "3/0", "-3/0", "0/0", "12/18",
    "1" * LIMIT, "-" + "9" * LIMIT, "0" * (LIMIT - 1) + "7",
    "8" * LIMIT + "/" + "3" * LIMIT, "1" * (LIMIT + 1), "-" + "1" * (LIMIT + 1),
    "0" * LIMIT + "1", "1/" + "3" * (LIMIT + 1), "+1", " 1", "1 ", "1_0",
    "1/-2", "1//2", "--1", "1.0", "1e3", "\u0663", "",
]


def test_rational_strings_read_as_before():
    # ODD_STRINGS, then random strings over the characters the pattern and
    # Fraction(str) care about
    rng = random.Random(4300)
    strings = ODD_STRINGS + [
        "".join(rng.choice("0123456789-/ +_.") for _ in range(rng.randint(0, 7)))
        for _ in range(3000)
    ]
    parsed = 0
    for text in strings:
        assert outcome(as_rational, text) == outcome(oracle_as_rational, text), text
        parsed += not isinstance(outcome(as_rational, text), tuple)
    assert parsed > 300, parsed


def test_odd_rational_strings_parse_as_before():
    cubic = {"a3": 1, "a4": -1}  # y^2 + y = x^3 - x, which holds (0, 0)
    for text in ODD_STRINGS:
        for data in (
            {"curves": [{"name": "A", "self": text}]},
            {
                "curves": [{"name": "A", "self": -2}, {"name": "B", "self": -2}],
                "intersections": [[0, 1, text]],
            },
            {"elliptic": {"curve": {**cubic, "a6": text}, "points": []}},
            {"elliptic": {"curve": cubic, "points": [{"x": text, "y": 0}]}},
        ):
            new = outcome(parse_document, data)
            assert new == outcome(oracle_parse_document, data), (text, data)
            if not isinstance(new, tuple):
                assert new.surface.ambient.gram._integral is scanned_integral(new)


def random_report(rng, depth=0):
    """A nested report: dicts with string keys, lists of scalars, of
    containers or of both, empty containers, and Fraction, bool, None,
    int and string leaves."""
    def leaf():
        return rng.choice([
            None, True, False, 0, -3, 17, Fraction(2, 3), Fraction(-5),
            "", "a, b", "x: y", "zero",
        ])

    def value(d):
        roll = rng.random()
        if d >= 4 or roll < 0.4:
            return leaf()
        if roll < 0.65:
            return random_report(rng, d + 1)
        size = rng.choice((0, 1, 2, 3, 4))
        if roll < 0.8:
            return [leaf() for _ in range(size)]
        return [value(d + 1) if rng.random() < 0.6 else leaf() for _ in range(size)]

    keys = ["command", "verdict", "plan", "a", "b.c", "Z", "z0", "", "pullbacks"]
    return {key: value(depth) for key in rng.sample(keys, rng.randint(0, 5))}


def test_render_matches_the_former_render_on_random_reports():
    rng = random.Random(1964)
    nested_mixed = 0
    for _ in range(2000):
        report = random_report(rng)
        assert render_human(report) == oracle_render_human(report), report
        nested_mixed += "[0]" in oracle_render_human(report)
    assert nested_mixed > 300
    for report in (
        {}, {"command": "x"}, {"a": []}, {"a": {}}, {"a": [[], {}]},
        {"a": [1, {"b": 2}, [3, [4]], None]}, {"a": [[1, 2], [Fraction(1, 2)]]},
    ):
        assert render_human(report) == oracle_render_human(report), report


def test_render_matches_the_former_render_on_every_command_report():
    for path in sorted(SAMPLES.glob("*.json")):
        doc = load_document(path)
        for name, command in COMMANDS.items():
            try:
                if name == "mumford":  # its text comes in pieces
                    human = "".join(command(doc))
                    former = json.loads("".join(command(doc, "json")))
                else:
                    report = command(doc)
                    human = render_human(report)
                    former = json.loads(render_json(report))
            except SurfsatError:
                continue
            # the oracle reads the report as the JSON renderer writes it
            assert human == oracle_render_human(former)


# zero, negative, fractional and long values of a Gram entry
GRAM_VALUES = [
    0, 0, 0, 1, -1, -2, 5, Fraction(1, 2), Fraction(-7, 3), 10**25,
    Fraction(-1, 10**12),
]
# curve names, some of them keys or texts that the JSON writer escapes
NAMES = ["A", "entries", "NaN", 'x"entries": NaN', "induced_matrix", "0", "\u00e9\n"]


def random_sparse_gram(rng, n):
    """A sparse Gram of order n, off-diagonal entries >= 0, whose rows are
    often empty: a row left empty has a zero diagonal and meets no other
    row."""
    empty = {i for i in range(n) if rng.random() < 0.3}
    kept = [i for i in range(n) if i not in empty]
    diag = [0 if i in empty else rng.choice(GRAM_VALUES) for i in range(n)]
    entries = [
        (i, j, abs(rng.choice(GRAM_VALUES)))
        for i, j in itertools.combinations(kept, 2)
        if rng.random() < 0.4
    ]
    return SymmetricMatrix.from_entries(diag, entries)


def test_induced_matrix_renders_as_its_dense_rows():
    # n curves on a random sparse Gram, and a boundary curve E, contracted,
    # that meets a few of them; the oracle report's matrix is dense
    rng = random.Random(1961)
    seen = {"fractional": 0, "negative": 0, "empty row": 0}
    for n in [0, 1, 0, 1] + [rng.randint(0, 9) for _ in range(596)]:
        rest = random_sparse_gram(rng, n)
        met = [(n, i, rng.choice((1, 2, Fraction(1, 2)))) for i in range(n)
               if rng.random() < 0.3]
        gram = SymmetricMatrix.from_entries(
            [*rest.diag, rng.choice((-1, -2, Fraction(-3, 2)))],
            [(i, j, x) for i in range(n) for j, x in rest.off_diagonal(i).items()]
            + met,
        )
        names = [rng.choice(NAMES) + str(k) for k in range(n)] + ["E"]
        config = Configuration([CurveNode(i, name) for i, name in enumerate(names)], gram)
        doc = Document(CompactifiedSurface(config, [n]))
        report = oracle_mumford_report(config, [frozenset([n])])
        assert "".join(cmd_mumford(doc)) == oracle_render_human(report)
        text = "".join(cmd_mumford(doc, "json"))
        assert text == json.dumps(report, indent=2, sort_keys=True)
        rows = report["induced_matrix"]["entries"]
        assert json.loads(text)["induced_matrix"]["entries"] == rows
        values = [x for row in rows for x in row]
        seen["fractional"] += any(isinstance(x, str) for x in values)
        seen["negative"] += any(isinstance(x, int) and x < 0 for x in values)
        seen["empty row"] += any(not any(row) for row in rows)
    assert min(seen.values()) > 150, seen


class TestIntersectionListing:
    @staticmethod
    def pairwise(config):
        # every pair, as the listing was first written
        return [
            [i, j, rational_to_json(config.gram.entry(i, j))]
            for i in range(config.n)
            for j in range(i + 1, config.n)
            if config.gram.entry(i, j) != 0
        ]

    def test_matches_pairwise_listing(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(0, 9)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            meets = rng.sample(pairs, rng.randint(0, len(pairs)))
            rng.shuffle(meets)
            doc = parse_document(
                {
                    "curves": [
                        {"name": f"C{i}", "self": rng.randint(-3, 1)}
                        for i in range(n)
                    ],
                    "intersections": [
                        [j, i, f"{rng.randint(0, 3)}/{rng.randint(1, 2)}"]
                        if rng.random() < 0.5 else [i, j, rng.randint(0, 2)]
                        for i, j in meets
                    ],
                }
            )
            listed = document_to_json(doc)["intersections"]
            assert listed == self.pairwise(doc.surface.ambient)

    def test_budget_on_2000_curves(self):
        # a 1000-link chain with a curve on each link; listing every pair
        # took seconds
        n = 1000
        doc = parse_document(
            {
                "curves": [{"name": f"E{i}", "self": -2} for i in range(n)]
                + [{"name": f"C{i}", "self": 1} for i in range(n)],
                "intersections": [[i, i + 1, 1] for i in range(n - 1)]
                + [[i, n + i, 1] for i in range(n)],
            }
        )
        # a full collection over the earlier tests' objects costs more than
        # the budget inside a suite run; start the timed listing from empty
        # generations, as the hironaka_build budget test does
        gc.collect()
        start = time.perf_counter()
        listed = document_to_json(doc)["intersections"]
        elapsed = time.perf_counter() - start
        assert len(listed) == 2 * n - 1
        assert elapsed < 0.1, f"document_to_json took {elapsed:.2f}s"
