"""Every command on random dual graphs, in random index order.

The documents are schema-valid unions of chains, cycles, stars and random
trees, with rational self-intersections, random boundaries, claims and
isolated points, and their curves listed in a random order.  Each command
must end with exit code 0, 1 or 2 within the time budget, and must give the
same exit code and the same verdicts when the curve list is permuted: the
index order of the curves is not part of the surface.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfsat.cli import COMMANDS, main

FORMATS = ("human", "json")
SELF = st.one_of(
    st.sampled_from([-2, -2, -2, -1, -3, 0]),
    st.fractions(-4, 1, max_denominator=3),
)
VALUE = st.sampled_from([1, 1, 1, 1, 2, Fraction(1, 2)])
KINDS = ("user-asserted", "normal-bundle-nontorsion", "group-law-obstruction")


def _rational(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@st.composite
def graph_edges(draw, k):
    """The edges of a chain, cycle, star or random tree on 0..k-1."""
    kind = draw(st.sampled_from(["chain", "cycle", "star", "tree"]))
    if kind == "chain":
        return [(i, i + 1) for i in range(k - 1)]
    if kind == "cycle":
        return [(i, (i + 1) % k) for i in range(k)] if k > 2 else [
            (i, i + 1) for i in range(k - 1)
        ]
    if kind == "star":
        return [(0, i) for i in range(1, k)]
    return [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]


@st.composite
def documents(draw):
    """A schema-valid document and the same one with its curves permuted."""
    curves, meetings, components = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 7))
        base = len(curves)
        for i in range(k):
            curves.append({
                "name": f"C{base + i}",
                "genus": draw(st.sampled_from([0, 0, 0, 1])),
                "self": _rational(draw(SELF)),
            })
        for a, b in draw(graph_edges(k)):
            meetings.append(
                [f"C{base + a}", f"C{base + b}", _rational(draw(VALUE))]
            )
        components.append([f"C{base + i}" for i in range(k)])
    names = [c["name"] for c in curves]
    boundary = [name for name in names if draw(st.booleans())]
    claims = []
    for _ in range(draw(st.integers(0, 2))):
        subject = draw(st.one_of(
            st.sampled_from(components),
            st.lists(st.sampled_from(names), min_size=1, unique=True),
        ))
        claims.append({
            "subject": subject,
            "certificate": {"kind": draw(st.sampled_from(KINDS))},
        })
    doc = {
        "curves": draw(st.permutations(curves)),
        "intersections": meetings,
        "boundary": boundary,
        "isolated_boundary_points": draw(st.integers(0, 2)),
        "false_fibre_claims": claims,
        "fibration_asserted": draw(st.booleans()),
    }
    return doc, {**doc, "curves": draw(st.permutations(curves))}


def verdicts(value, path=""):
    """Every ``verdict`` in a JSON report, with its key path; list positions
    are dropped, as components are listed by their least index."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "verdict":
                yield path, item
            else:
                yield from verdicts(item, f"{path}.{key}")
    elif isinstance(value, list):
        for item in value:
            yield from verdicts(item, path)


def run_all(path):
    """The exit code and sorted verdicts of every command in both formats."""
    results = {}
    for command in sorted(COMMANDS):
        for fmt in FORMATS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path), "--format", fmt])
            assert code in (0, 1, 2), (command, fmt, code)
            assert "Traceback" not in err.getvalue()
            found = []
            if fmt == "json" and code != 1:
                found = sorted(verdicts(json.loads(out.getvalue())))
            results[command, fmt] = (code, found)
    return results


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("order-fuzz")


class TestOrderFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(documents())
    def test_verdicts_do_not_depend_on_the_curve_order(self, workdir, pair):
        found = []
        for doc in pair:
            path = workdir / "doc.json"
            path.write_text(json.dumps(doc))
            start = time.perf_counter()
            found.append(run_all(path))
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"the commands took {elapsed:.2f}s"
        assert found[0] == found[1]
