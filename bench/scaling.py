"""Scaling families for surfsat: how the cost of one elimination, of one
group-law computation, or of one CLI command, grows as the input doubles.

Run from the repository root (standard library only, not part of tier-1):

    python3 bench/scaling.py --out BENCH_<n>.json --against <parent commit>

Each perf change writes a new ``BENCH_<n>.json`` with every family of the
last one plus its own; a committed file is never rewritten.  The tree of
the git revision REV, the parent of the change, is exported with ``git
archive`` into a temporary directory, and every case runs PAIRS times on
each side, this checkout's ``src`` and REV's alternately (the parent first
in even pairs), each run in a fresh interpreter with a bytecode cache of
its side's own in the temporary directory, so that neither side reads
bytecode the other lacks.  A case then records both sides, the ratio of
this checkout's time to REV's in each pair, their median and interquartile
range, and a verdict: "faster" or "slower" only when nine in ten of the
pairs agree, rounded up (all PAIRS of a case, ten of the IMPORT_RUNS of
``import/cli``), and the two sides' median times differ the same way by
more than the interquartile range of REV's times, else "no change shown".
The absolute times drift with the machine over a run, so they compare only
inside one file; the ratios of interleaved pairs are what a change is
judged by.  All processes are pinned to one CPU, as ``perfbench`` pins its
own.

Each case runs in its own interpreter, capped at CAP_S seconds of wall time;
a case that hits the cap is recorded as "timeout", and the larger sizes of
its family are recorded as not run.  A case reports the best of three wall
times and the bit length of the largest pivot that any elimination made in
one more run.  The ``tracemalloc`` peak of a further run is taken in an
interpreter of its own, under a cap of its own: a case whose traced run
passes the cap keeps its times and reads "timeout" for the peak alone.
Only the operation is timed: building the matrix or the points, or
writing the document to a file, is not.  The CLI cases call
``surfsat.cli.main`` in process, so they leave out the interpreter's
start-up; an operation ``cli COMMAND OPTION...`` calls ``main([COMMAND,
document, OPTION...])``, and its output goes to a buffer.  The
``samples/cli-main`` family names each case by its sample document, and
one run is a ``main`` call per command on it.

The ``import/cli`` family times what those cases leave out: ``import
surfsat.cli`` in IMPORT_RUNS pairs of fresh interpreters (after one
discarded pair, as ``perfbench`` discards a run) with ``fractions`` already
imported, under the caller's environment, so ``PYTHONDONTWRITEBYTECODE=1``
times the compile too.  It reports the best and the median wall time, and
how many modules the import adds to ``sys.modules``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "docs" / "samples"
CAP_S = 30
REPEATS = 3
PAIRS = 5
IMPORT_RUNS = 11
IMPORT_PROBE = """
import fractions, sys, time
before = len(sys.modules)
start = time.perf_counter()
import surfsat.cli
print(f"[{time.perf_counter() - start}, {len(sys.modules) - before}]")
"""


# -- inputs ---------------------------------------------------------------


def star(n):
    """A hub of self-intersection -(n + 1) listed first, then n (-2)-arms."""
    return [-(n + 1)] + [-2] * n, [(0, i, 1) for i in range(1, n + 1)]


def shuffled(n, edges, seed):
    """The tree on ``edges`` with shuffled indices and diagonal -(deg + 1),
    negative definite by diagonal dominance."""
    label = list(range(n))
    random.Random(seed).shuffle(label)
    diag = [-1] * n
    for a, b in edges:
        diag[label[a]] -= 1
        diag[label[b]] -= 1
    return diag, [(label[a], label[b], 1) for a, b in edges]


def random_tree(n):
    """A random tree (the parent of i drawn below i), indices shuffled."""
    rng = random.Random(n)
    return shuffled(n, [(rng.randrange(i), i) for i in range(1, n)], n + 1)


def binary_tree(n):
    """The complete binary tree on n = 2^k - 1 curves, indices shuffled."""
    return shuffled(n, [((i - 1) // 2, i) for i in range(1, n)], n)


def two_sections(n):
    """K_{2,n}: two sections of self-intersection -(n + 1), listed first,
    and n (-3)-curves that each meet both."""
    return [-(n + 1)] * 2 + [-3] * n, [(s, 2 + i, 1) for s in (0, 1) for i in range(n)]


def chain(n):
    """A (-2)-chain in index order."""
    return [-2] * n, [(i, i + 1, 1) for i in range(n - 1)]


def star_document(n):
    """The hub-first star, all of it boundary."""
    diag, entries = star(n)
    names = ["H"] + [f"A{i}" for i in range(1, n + 1)]
    return {
        "curves": [{"name": a, "self": d} for a, d in zip(names, diag)],
        "intersections": [list(e) for e in entries],
        "boundary": names,
    }


def inner_cycle_document(m):
    """A boundary genus-1 0-curve B, and an inner A~ cycle of m curves with
    self-intersection -2 + 1/m^2, so the cycle has inertia (1, m - 1, 0)."""
    self_int = str(Fraction(-2) + Fraction(1, m * m))
    return {
        "curves": [{"name": "B", "genus": 1, "self": 0}]
        + [{"name": f"A{i}", "self": self_int} for i in range(m)],
        "intersections": [[1 + i, 1 + (i + 1) % m, 1] for i in range(m)],
        "boundary": ["B"],
    }


def linked_chain_document(n):
    """A boundary (-2)-chain of n curves with an interior (+1)-curve on each
    link: mumford's Schur complement is dense on the n (+1)-curves."""
    return {
        "curves": [{"name": f"E{i}", "self": -2} for i in range(n)]
        + [{"name": f"C{i}", "self": 1} for i in range(n)],
        "intersections": [[i, i + 1, 1] for i in range(n - 1)]
        + [[i, n + i, 1] for i in range(n)],
        "boundary": [f"E{i}" for i in range(n)],
    }


def disjoint_pairs_document(n):
    """n disjoint boundary (-2)-curves, each met by one interior (-1)-curve:
    n one-curve parts, and an induced matrix that is diagonal."""
    return {
        "curves": [{"name": f"E{i}", "self": -2} for i in range(n)]
        + [{"name": f"C{i}", "self": -1} for i in range(n)],
        "intersections": [[i, n + i, 1] for i in range(n)],
        "boundary": [f"E{i}" for i in range(n)],
    }


def linked_chain_kept_document(n):
    """A boundary (-2)-chain of n curves with an interior (-1)-curve on each
    link, and a kept boundary genus-1 0-curve Z: the chain is contracted,
    and the (-1)-curves are the inner set of the saturation, one component
    whose closure is the chain with its n pendants."""
    doc = linked_chain_document(n)
    for curve in doc["curves"][n:]:
        curve["self"] = -1
    doc["curves"].append({"name": "Z", "genus": 1, "self": 0})
    doc["boundary"].append("Z")
    return doc


def disjoint_pairs_kept_document(n):
    """n disjoint (-2)/(-1) pairs as in ``disjoint_pairs_document``, and
    three kept boundary genus-1 0-curves: n one-curve parts contracted, and
    n inner components of the saturation, each read off a two-curve
    closure."""
    doc = disjoint_pairs_document(n)
    for k in range(3):
        doc["curves"].append({"name": f"Z{k}", "genus": 1, "self": 0})
        doc["boundary"].append(f"Z{k}")
    return doc


def sample_document(name):
    """The sample document ``docs/samples/<name>.json``."""
    return json.loads((SAMPLES / f"{name}.json").read_text())


# y^2 + y = x^3 - x (Cremona 37a1): P = (0, 0) generates E(Q) = Z
CUBIC = {"a3": 1, "a4": -1}


def one_point(m):
    """P of weight m."""
    from surfsat.elliptic import ECPoint

    return ((ECPoint(0, 0), m),)


def multiples(n):
    """P, 2P, ..., nP, each of weight 1."""
    from surfsat.elliptic import ECPoint, WeierstrassCurve, add

    curve, p = WeierstrassCurve(**CUBIC), ECPoint(0, 0)
    points, running = [], p
    for _ in range(n):
        points.append((running, 1))
        running = add(curve, running, p)
    return tuple(points)


MATRICES = {
    "star": star,
    "random-tree": random_tree,
    "binary-tree": binary_tree,
    "two-sections": two_sections,
    "chain": chain,
}
DOCUMENTS = {
    "star": star_document,
    "inner-cycle": inner_cycle_document,
    "linked-chain": linked_chain_document,
    "disjoint-pairs": disjoint_pairs_document,
    "linked-chain-kept": linked_chain_kept_document,
    "disjoint-pairs-kept": disjoint_pairs_kept_document,
    "samples": sample_document,
}
POINTS = {
    "point": one_point,
    "multiples": multiples,
}

# name: (input, operation, sizes, what it shows)
FAMILIES = {
    "star/ldl": (
        "star", "ldl", [500, 1000, 2000],
        "hub of self-intersection -(n+1) listed first, n (-2)-arms",
    ),
    "random-tree/ldl": (
        "random-tree", "ldl", [500, 1000, 2000],
        "random tree, shuffled indices, diagonal -(deg+1)",
    ),
    "binary-tree/ldl": (
        "binary-tree", "ldl", [511, 1023, 2047],
        "complete binary tree, shuffled indices, diagonal -(deg+1)",
    ),
    "two-sections/ldl": (
        "two-sections", "ldl", [100, 200, 400],
        "K_{2,n}: two -(n+1) sections listed first, n (-3)-fibres meeting both",
    ),
    "chain/ldl": (
        "chain", "ldl", [2000, 4000, 8000],
        "(-2)-chain in index order",
    ),
    "inner-cycle/cli-affdim": (
        "inner-cycle", "cli affdim", [100, 200, 400],
        "boundary genus-1 0-curve, inner A~ cycle of m curves with C^2 = -2 + 1/m^2:"
        " the cycle's positive direction is refused (Hodge index theorem)",
    ),
    "star/cli-analyze": (
        "star", "cli analyze", [500, 1000, 2000],
        "the hub-first star as a boundary",
    ),
    "linked-chain/cli-mumford": (
        "linked-chain", "cli mumford", [250, 500, 1000],
        "boundary (-2)-chain of n curves, an interior (+1)-curve on each link",
    ),
    "disjoint-pairs/cli-mumford": (
        "disjoint-pairs", "cli mumford", [500, 1000, 2000],
        "n disjoint boundary (-2)-curves, each met by an interior (-1)-curve",
    ),
    "disjoint-pairs/cli-mumford-json": (
        "disjoint-pairs", "cli mumford --format json", [500, 1000, 2000],
        "n disjoint boundary (-2)-curves, each met by an interior (-1)-curve;"
        " JSON output",
    ),
    "linked-chain-kept/cli-analyze": (
        "linked-chain-kept", "cli analyze", [100, 200, 400, 800],
        "boundary (-2)-chain of n curves, an interior (-1)-curve on each link,"
        " a kept genus-1 0-curve: the inner set meets the contracted chain",
    ),
    "disjoint-pairs-kept/cli-analyze": (
        "disjoint-pairs-kept", "cli analyze", [500, 1000, 2000],
        "n disjoint boundary (-2)-curves, each met by an interior (-1)-curve,"
        " and three kept genus-1 0-curves",
    ),
    "point/sum_obstruction": (
        "point", "sum_obstruction", [3000, 10**18],
        "P = (0, 0) on y^2 + y = x^3 - x (37a) with weight m",
    ),
    "multiples/hironaka_build": (
        "multiples", "hironaka_build", [40, 120],
        "the plane blown up at P, 2P, ..., nP on y^2 + y = x^3 - x (37a)",
    ),
    "samples/cli-main": (
        "samples", "cli main", sorted(path.stem for path in SAMPLES.glob("*.json")),
        "each docs/samples document; one run calls main once per command",
    ),
}


# -- one case, in its own interpreter --------------------------------------


def prepare(kind, op, n, tmp):
    """A callable that runs the operation once on fresh input: a new matrix
    or curve per run, as a matrix keeps the factors it has made and a curve
    the points it has lifted."""
    from surfsat import SymmetricMatrix, cli, elliptic

    if op.startswith("cli "):
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(DOCUMENTS[kind](n)))
        command, *options = op.split()[1:]
        commands = sorted(cli.COMMANDS) if command == "main" else [command]

        def run():
            out = io.StringIO()  # a refusal prints its message on stderr
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                for command in commands:
                    cli.main([command, str(path), *options])
        return lambda: run
    if kind in POINTS:
        points = POINTS[kind](n)
        build = getattr(elliptic, op)
        return lambda: partial(build, elliptic.WeierstrassCurve(**CUBIC), points)
    diag, entries = MATRICES[kind](n)
    return lambda: SymmetricMatrix.from_entries(diag, entries).ldl


def measure(kind, op, n):
    """The timed runs, then one run that records the largest pivot."""
    from surfsat.linalg import SymmetricMatrix

    with tempfile.TemporaryDirectory() as tmp:
        setup = prepare(kind, op, n, tmp)
        runs = []
        for _ in range(REPEATS):
            run = setup()
            start = time.perf_counter()
            run()
            runs.append(time.perf_counter() - start)
        bits = 0
        eliminate = SymmetricMatrix._eliminate

        def recording(self, idx):
            nonlocal bits
            factor = eliminate(self, idx)
            bits = max([bits, *[abs(p).bit_length() for p in factor.pivots]])
            return factor

        SymmetricMatrix._eliminate = recording
        setup()()
    return {
        "best_s": round(min(runs), 6),
        "runs_s": [round(t, 6) for t in runs],
        "max_pivot_bits": bits,
    }


def traced_peak(kind, op, n):
    """The ``tracemalloc`` peak of one run, in KiB."""
    with tempfile.TemporaryDirectory() as tmp:
        run = prepare(kind, op, n, tmp)()
        tracemalloc.start()
        run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return round(peak / 1024, 1)


# -- the driver ------------------------------------------------------------


def run_child(args, root, pycache):
    """(True, the JSON printed by a fresh interpreter that imports the
    package from the checkout at ``root``, keeping its bytecode under
    ``pycache``), or (False, "timeout" past the cap, or an error
    holding the last line of its stderr)."""
    path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(path),
        PYTHONPYCACHEPREFIX=str(pycache),
    )
    try:
        done = subprocess.run(
            [sys.executable, *args], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=CAP_S,
        )
    except subprocess.TimeoutExpired:
        return False, "timeout"
    if done.returncode:
        return False, {"error": done.stderr.strip().splitlines()[-1:]}
    return True, json.loads(done.stdout)


# -- against the parent revision: interleaved pairs ------------------------


def export(rev, directory):
    """Write the tree of the git revision ``rev`` to ``directory``; return
    the commit it names."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT,
        stdout=subprocess.PIPE, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return commit


def verdict(change, parent):
    """"faster" or "slower" when nine in ten of the pairs agree, rounded up
    (so all of them below ten pairs), and the sides' medians differ that way
    by more than the interquartile range of the parent's times; else "no
    change shown"."""
    need = -(-9 * len(change) // 10)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    moved = statistics.median(change) - statistics.median(parent)
    if sum(c < p for c, p in zip(change, parent)) >= need and -moved > q3 - q1:
        return "faster"
    if sum(c > p for c, p in zip(change, parent)) >= need and moved > q3 - q1:
        return "slower"
    return "no change shown"


def compare(change, parent):
    """The pair ratios change / parent of two equally long time lists, with
    their median, quartiles and verdict."""
    ratios = [c / p for c, p in zip(change, parent)]
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "ratios": [round(r, 4) for r in ratios],
        "median_ratio": round(statistics.median(ratios), 4),
        "iqr": round(q3 - q1, 4),
        "quartiles": [round(q1, 4), round(q3, 4)],
        "verdict": verdict(change, parent),
    }


def side_summary(results):
    """One side's interpreters: each one's best of the repeats."""
    bests = [r["best_s"] for r in results]
    return {
        "best_s": min(bests),
        "median_s": round(statistics.median(bests), 6),
        "interpreters_best_s": bests,
        "max_pivot_bits": results[0]["max_pivot_bits"],
    }


def run_pairs(kind, op, n, roots, skip):
    """Each side of ``roots`` (change and parent, each a checkout and a
    bytecode cache) PAIRS times, alternately, then its traced run; a
    side in ``skip``, or one that fails, runs no more.  Returns the case
    record."""
    case = [__file__, "--case", kind, op, str(n)]
    done = {side: [] for side in roots}
    failed = {side: "not run: a smaller size did not finish" for side in skip}
    for k in range(PAIRS):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            if side not in failed:
                ok, result = run_child(case, *roots[side])
                if ok:
                    done[side].append(result)
                else:
                    failed[side] = result
    record = {}
    for side, where in roots.items():
        if side in failed:
            record[side] = failed[side]
            continue
        record[side] = side_summary(done[side])
        record[side]["tracemalloc_peak_kib"] = run_child(case + ["--peak"], *where)[1]
    if not failed:
        record["pairs"] = compare(
            [r["best_s"] for r in done["change"]],
            [r["best_s"] for r in done["parent"]],
        )
    return record


def import_pairs(roots):
    """``import surfsat.cli`` on both sides alternately, IMPORT_RUNS pairs
    after one discarded pair."""
    times = {side: [] for side in roots}
    modules = {}
    for k in range(IMPORT_RUNS + 1):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            ok, out = run_child(["-c", IMPORT_PROBE], *roots[side])
            if not ok:
                return {side: out}
            if k:
                times[side].append(out[0])
            modules[side] = out[1]
    record = {
        side: {
            "best_s": round(min(runs), 6),
            "median_s": round(statistics.median(runs), 6),
            "runs_s": [round(t, 6) for t in runs],
            "modules_added": modules[side],
        }
        for side, runs in times.items()
    }
    record["pairs"] = compare(times["change"], times["parent"])
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="the report to write")
    parser.add_argument("--against", metavar="REV",
                        help="the git revision to run each case against, in pairs")
    parser.add_argument("--case", nargs=3, metavar=("INPUT", "OP", "N"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--peak", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        kind, op, n = args.case
        n = int(n) if n.isdigit() else n  # a sample is named, not sized
        print(json.dumps((traced_peak if args.peak else measure)(kind, op, n)))
        return 0
    if args.out is None or args.against is None:
        parser.error("--out FILE and --against REV are required")
    if hasattr(os, "sched_setaffinity"):  # the children inherit it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        tree.mkdir()
        commit = export(args.against, tree)
        report = measure_all({
            "change": (ROOT, Path(tmp) / "pycache-change"),
            "parent": (tree, Path(tmp) / "pycache-parent"),
        })
    report["against"] = {
        "rev": args.against, "commit": commit, "pairs": PAIRS,
        "ratio": "this checkout's time over the revision's, per pair",
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


def measure_all(roots):
    """Every family, then ``import/cli``, in interleaved pairs of the two
    sides of ``roots``."""
    start = time.perf_counter()
    families = {}
    for name, (kind, op, sizes, what) in FAMILIES.items():
        cases = []
        for n in sizes:
            skip = [
                side for side in roots
                if cases and "best_s" not in cases[-1][side]
            ]
            result = run_pairs(kind, op, n, roots, skip)
            cases.append({"n": n, **result})
            print(f"{name} n={n}: {result}", file=sys.stderr)
        families[name] = {"input": what, "operation": op, "cases": cases}
    result = import_pairs(roots)
    print(f"import/cli n={IMPORT_RUNS}: {result}", file=sys.stderr)
    families["import/cli"] = {
        "input": "a fresh interpreter with fractions imported; n interpreters",
        "operation": "import surfsat.cli",
        "cases": [{"n": IMPORT_RUNS, **result}],
    }
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cap_s": CAP_S,
        "repeats": REPEATS,
        "units": {
            "best_s": "s, the best over a side's interpreters",
            "median_s": "s, median over the interpreters",
            "interpreters_best_s": "s, each interpreter's best of the repeats",
            "tracemalloc_peak_kib": "KiB, one further run under tracemalloc, "
            "in an interpreter of its own",
            "max_pivot_bits": "bits of the largest |pivot| of any elimination "
            "in one more run",
            "modules_added": "modules that import surfsat.cli adds to sys.modules",
            "ratios": "change / parent per interleaved pair of interpreters",
            "absolute times": "valid only inside one file: the machine drifts",
        },
        "total_s": round(time.perf_counter() - start, 1),
        "families": families,
    }


if __name__ == "__main__":
    sys.exit(main())
