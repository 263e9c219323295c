"""Seeded input documents for the surfsat benchmark, with the outcome each
command must produce on them.

Everything here is built from first principles in plain Python: no surfsat
code is imported, so a defect in the package cannot leak into its own
yardstick.  ``generate(workload, seed)`` returns one *pass*: a list of cases,
each holding

* ``doc``: the JSON document the CLI reads;
* ``ops``: per command, the exit code, the human-output lines and the
  criterion tags the command must print (known by construction);
* ``props``: the input properties the cost depends on.

A pass has a fixed shape per workload (the same sizes in every seed); the
seed picks the details inside that shape, so every run sees the same mix.
"""

from __future__ import annotations

import random
from fractions import Fraction

# y^2 + y = x^3 - x (Cremona 37a1): E(Q) is infinite cyclic, generated by
# P = (0, 0), so kP = O only for k = 0.
CURVE = {"a1": 0, "a2": 0, "a3": 1, "a4": -1, "a6": 0}

ND = "connected-negative-semidefinite-not-definite"
SAT = "no-negative-definite-component"
PLAN = "contract-negative-definite-components"
FTB = "fibre-type-boundary"


def _json_rational(value: Fraction):
    return value.numerator if value.denominator == 1 else str(value)


# -- exact linear algebra of the benchmark's own -------------------------


def solve_columns(m, rhs):
    """Solve M X = RHS for a nonsingular matrix by Gauss-Jordan elimination.

    ``m`` is k x k, ``rhs`` is k x c; both are lists of Fraction rows.
    """
    k = len(m)
    rows = [list(m[i]) + list(rhs[i]) for i in range(k)]
    for c in range(k):
        p = next(i for i in range(c, k) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for i in range(k):
            f = rows[i][c]
            if i != c and f != 0:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [row[k:] for row in rows]


def components(gram, subset):
    """Connected components of ``subset`` under positive pairing, listed by
    least index."""
    left = sorted(subset)
    out = []
    while left:
        comp, stack = {left[0]}, [left[0]]
        while stack:
            i = stack.pop()
            for j in left:
                if j not in comp and gram[i][j] > 0:
                    comp.add(j)
                    stack.append(j)
        out.append(sorted(comp))
        left = [i for i in left if i not in comp]
    return out


def schur_complement(gram, exceptional):
    """The contracted pairing M_RR - M_RE M_EE^-1 M_ER and the pullback
    coefficients -M_EE^-1 M_ER, one exceptional component at a time (the
    components are mutually orthogonal, so M_EE is block diagonal).

    Returns (remaining ids, induced rows, {remaining id: {exceptional id:
    coefficient}}).
    """
    rest = [i for i in range(len(gram)) if i not in exceptional]
    induced = [[gram[r][s] for s in rest] for r in rest]
    pulls = {r: {} for r in rest}
    for comp in components(gram, exceptional):
        m_ee = [[gram[e][f] for f in comp] for e in comp]
        m_er = [[gram[e][r] for r in rest] for e in comp]
        x = solve_columns(m_ee, m_er)  # M_EE^-1 M_ER
        # only the curves meeting this component change
        met = [a for a in range(len(rest)) if any(row[a] for row in m_er)]
        for a in met:
            for b in met:
                induced[a][b] -= sum(m_er[i][a] * x[i][b] for i in range(len(comp)))
            for i, e in enumerate(comp):
                if x[i][a] != 0:
                    pulls[rest[a]][e] = -x[i][a]
    return rest, induced, pulls


# -- documents -----------------------------------------------------------


class Doc:
    """A configuration under construction: curves, meetings, boundary and
    claims, with the Gram matrix kept alongside for the expectations."""

    def __init__(self):
        self.curves = []
        self.meets = []
        self.boundary = []
        self.claims = []

    def curve(self, name, self_int, genus=0, boundary=False) -> int:
        self.curves.append((name, Fraction(self_int), genus))
        if boundary:
            self.boundary.append(len(self.curves) - 1)
        return len(self.curves) - 1

    def meet(self, i, j, value=1):
        self.meets.append((i, j, value))

    def claim(self, ids, kind):
        self.claims.append((sorted(ids), kind))

    def name(self, i):
        return self.curves[i][0]

    def names(self, ids):
        return sorted(self.name(i) for i in ids)

    def gram(self):
        n = len(self.curves)
        g = [[Fraction(0)] * n for _ in range(n)]
        for i, (_, s, _) in enumerate(self.curves):
            g[i][i] = s
        for i, j, v in self.meets:
            g[i][j] = g[j][i] = Fraction(v)
        return g

    def to_json(self, fibration=False, elliptic=None) -> dict:
        out = {
            "schema_version": 1,
            "curves": [
                {"name": n, "genus": g, "self": _json_rational(s)}
                for n, s, g in self.curves
            ],
            "intersections": [[i, j, v] for i, j, v in self.meets],
            "boundary": [self.name(i) for i in self.boundary],
            "false_fibre_claims": [
                {"subject": self.names(ids), "certificate": kind}
                for ids, kind in self.claims
            ],
            "fibration_asserted": fibration,
        }
        if elliptic is not None:
            out["elliptic"] = elliptic
        return out


def op(command, exit_code, lines, criteria):
    """What one command must print: exit code, exact ``key: value`` lines of
    the human output, and the sorted list of every ``criterion`` value."""
    return {
        "command": command,
        "exit": exit_code,
        "lines": {k: str(v) for k, v in lines.items()},
        "criteria": sorted(criteria),
    }


def joined(names):
    """A list of scalars as the human renderer prints it."""
    return ", ".join(names) if names else "[]"


def mumford_lines(doc: Doc, exceptional) -> dict:
    """Expected pullbacks and induced matrix of ``mumford``."""
    gram = doc.gram()
    rest, induced, pulls = schur_complement(gram, set(exceptional))
    lines = {"induced_matrix.curves": joined([doc.name(r) for r in rest])}
    for a, row in enumerate(induced):
        lines[f"induced_matrix.entries[{a}]"] = joined([str(v) for v in row])
    for r in rest:
        lines[f"pullbacks.{doc.name(r)}.{doc.name(r)}"] = "1"
        for e, c in pulls[r].items():
            lines[f"pullbacks.{doc.name(r)}.{doc.name(e)}"] = str(c)
    return lines


def plan_lines(doc: Doc, prefix, contract, keep) -> dict:
    lines = {
        f"{prefix}.resulting_boundary_ok": True,
        f"{prefix}.points_to_remove": 0,
    }
    for key, comps in (("contract", contract), ("keep", keep)):
        if not comps:
            lines[f"{prefix}.{key}"] = "[]"
        for k, comp in enumerate(comps):
            lines[f"{prefix}.{key}[{k}]"] = joined(doc.names(comp))
    return lines


# -- contract-chains -----------------------------------------------------

# Two chains of 12 put the 90th percentile inside a cluster of similar
# operations (the n = 12 affdim/analyze pairs and the n = 16 saturate), not
# at the edge of a gap between sizes.
CHAIN_LENGTHS = (4, 4, 5, 5, 6, 6, 7, 7, 8, 9, 10, 12, 12, 16)


def contract_chains(rng: random.Random) -> list:
    """One A_n chain of (-2)/(-3)-curves (a third of them (-3), in seeded
    places) with a (+1)-curve on each link.

    The chain is one negative definite block: every command contracts it
    (or reports its pullbacks), and the contracted surface is proper.
    """
    cases = []
    for idx, n in enumerate(CHAIN_LENGTHS):
        doc = Doc()
        weights = [-3] * (n // 3) + [-2] * (n - n // 3)
        rng.shuffle(weights)
        chain = [doc.curve(f"B{i + 1}", w, boundary=True) for i, w in enumerate(weights)]
        for a, b in zip(chain, chain[1:]):
            doc.meet(a, b)
        for i, b in enumerate(chain):
            doc.meet(b, doc.curve(f"I{i + 1}", 1))
        contract = [chain]
        sat = {"saturation.saturated": False,
               "saturation.offending_components[0]": joined(doc.names(chain))}
        plan = plan_lines(doc, "plan", contract, [])
        mum = {"verdict": "contracted",
               "contracted_components[0]": joined(doc.names(chain))}
        mum.update(mumford_lines(doc, chain))
        ops = [
            op("saturate", 0, {"verdict": "not-saturated", **sat, **plan},
               [SAT, PLAN]),
            op("mumford", 0, mum, ["pullback-orthogonal-to-exceptional"]),
            op("affdim", 0, {"verdict": "zero", **plan}, [PLAN, "proper-surface"]),
            op("analyze", 0,
               {"verdict": "zero", **sat, **plan,
                "components[0].verdict": "negative-definite",
                "affinisation.verdict": "zero"},
               [SAT, PLAN, ND, "proper-surface"]),
        ]
        cases.append({
            "name": f"chain{idx}-n{n}",
            "doc": doc.to_json(),
            "ops": ops,
            "props": {"curves": 2 * n, "max_nd_block": n},
        })
    return cases


# -- fibre-cycles --------------------------------------------------------


def cycle(k):
    return ("cycle", [(-2, 0)] * k, [(i, (i + 1) % k) for i in range(k)], [1] * k)


def star(label, arms, kernel):
    """A tree of (-2)-curves: a centre with arms of the given lengths."""
    edges, nodes = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, nodes))
            prev, nodes = nodes, nodes + 1
    return (label, [(-2, 0)] * nodes, edges, kernel)


def d_tilde(m):
    """D~_m: a chain b_1..b_{m-3} with two leaves on each end (m + 1 curves)."""
    b = m - 3
    edges = [(i, i + 1) for i in range(b - 1)]
    edges += [(0, b), (0, b + 1), (b - 1, b + 2), (b - 1, b + 3)]
    return (f"D{m}", [(-2, 0)] * (m + 1), edges, [2] * b + [1] * 4)


E6 = star("E6", (2, 2, 2), [3, 2, 1, 2, 1, 2, 1])
E7 = star("E7", (1, 3, 3), [4, 2, 3, 2, 1, 3, 2, 1])
E8 = star("E8", (1, 2, 5), [6, 3, 4, 2, 5, 4, 3, 2, 1])
ZERO_CURVE = ("elliptic", [(0, 1)], [], [1])

# Each document has one main fibre-type component (every one of these once
# per pass) and zero, one or two light companions in turn; the main
# component sets the cost.  The seed orders the components and picks the
# claims, so the latency mix is the same in every seed.  The second 11-cycle
# puts the 90th percentile inside the cluster of 11-cycle operations, not
# at its edge.
FIBRE_MAINS = (
    [cycle(k) for k in range(4, 13)] + [cycle(11), E6, E7, E8]
    + [d_tilde(m) for m in range(4, 9)]
)
FIBRE_COMPANIONS = ([], [ZERO_CURVE], [ZERO_CURVE, cycle(4)])


def fibre_cycles(rng: random.Random) -> list:
    """Fibre-type boundaries: affine Dynkin cycles and trees of (-2)-curves
    and genus-1 0-curves, one to three disjoint components, with and without
    false-fibre claims."""
    cases = []
    for idx, main in enumerate(FIBRE_MAINS):
        shapes = [main] + FIBRE_COMPANIONS[idx % len(FIBRE_COMPANIONS)]
        rng.shuffle(shapes)
        doc = Doc()
        comps = []
        for c, (label, curves, edges, kernel) in enumerate(shapes):
            ids = [doc.curve(f"{label[0].upper()}{c}_{i}", s, g, boundary=True)
                   for i, (s, g) in enumerate(curves)]
            for a, b in edges:
                doc.meet(ids[a], ids[b])
            comps.append((ids, kernel, label))
        if len(comps) == 3 and rng.random() < 0.5:
            claimed = list(range(3))
        else:
            claimed = [c for c in range(len(comps)) if rng.random() < 0.5][:2]
        for c in claimed:
            ids, _, label = comps[c]
            kind = "normal-bundle-nontorsion" if label == "elliptic" else "user-asserted"
            doc.claim(ids, kind)
        covered = len(claimed) == len(comps)
        fibration = not covered and rng.random() < 0.25

        comp_lines = {}
        for c, (ids, kernel, _) in enumerate(comps):
            comp_lines[f"components[{c}].verdict"] = "fibre-type"
            comp_lines[f"components[{c}].zariski.status"] = "ok"
            comp_lines[f"components[{c}].component"] = joined(doc.names(ids))
            for i, mult in zip(ids, kernel):
                comp_lines[f"components[{c}].kernel.{doc.name(i)}"] = mult
        comp_tags = [ND] * len(comps)

        triple = len(claimed) == 3
        if triple:
            analyze = op("analyze", 1, {}, [])
            validate = op("validate", 1, {"verdict": "inconsistent"}, [])
        else:
            if len(comps) >= 3:
                verdict, reasons = "one", ["three-disjoint-fibre-type-components"]
            elif covered:
                verdict, reasons = "zero", ["disjoint-false-fibres"]
            elif fibration:
                verdict, reasons = "one", []
            else:
                verdict, reasons = "one-or-zero", ["missing-certificates"]
            if fibration:
                reasons.append("fibration-asserted")
            keep = [ids for ids, _, _ in comps]
            analyze = op(
                "analyze", 2 if verdict == "one-or-zero" else 0,
                {"verdict": verdict, "saturation.saturated": True,
                 **plan_lines(doc, "plan", [], keep), **comp_lines},
                [SAT, PLAN, FTB, *reasons, *comp_tags])
            validate = op("validate", 0,
                          {"verdict": "consistent", "problems": "[]"}, [])
        cases.append({
            "name": f"fibre{idx}-{main[0]}{len(main[1])}",
            "doc": doc.to_json(fibration=fibration),
            "ops": [op("fibre", 0, {"verdict": "classified", **comp_lines}, comp_tags),
                    validate, analyze],
            "props": {"curves": len(doc.curves), "max_nd_block": 0,
                      "fibre_components": sorted(len(ids) for ids, _, _ in comps)},
        })
    return cases


# -- elliptic-points -----------------------------------------------------


def ec_add(p, r):
    """Chord-tangent addition on y^2 + y = x^3 - x (None is the identity)."""
    if p is None:
        return r
    if r is None:
        return p
    (x1, y1), (x2, y2) = p, r
    if x1 == x2 and y1 + y2 + 1 == 0:
        return None
    if x1 == x2:
        slope = (3 * x1 * x1 - 1) / (2 * y1 + 1)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope - x1 - x2
    return (x3, -slope * x3 - (y1 - slope * x1) - 1)


def multiple(k):
    """kP for P = (0, 0), by repeated addition."""
    base = (Fraction(0), Fraction(0)) if k > 0 else (Fraction(0), Fraction(-1))
    out = None
    for _ in range(abs(k)):
        out = ec_add(out, base)
    return out


def height_bits(point) -> int:
    """Largest numerator or denominator bit-length of a point's coordinates."""
    if point is None:
        return 0
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in point)


# (point count, |weighted sum| as a multiple of P (0: the sum is O, a
# torsion sum), group-law claim on C, fibration asserted, a point of
# multiplicity 2).  Claims only make sense on the 0-curve C (n = 9); a claim
# on a torsion sum cannot be reproduced, so validate must reject it.  The
# cost of the torsion test grows steeply with the multiple, so the multiples
# are fixed per pass and only the points behind them are seeded; three
# documents share the multiple 50, so the 90th percentile falls inside the
# cluster of their hironaka operations.
ELLIPTIC_MIX = [
    (9, 35, True, False, False),
    (9, 45, True, False, True),
    (9, 25, False, False, False),
    (9, 0, False, False, False),
    (9, 0, False, True, False),
    (9, 0, True, False, False),
    (10, 30, False, False, False),
    (10, 50, False, False, True),
    (10, 0, False, False, False),
    (11, 40, False, False, False),
    (11, 0, False, True, False),
    (11, 50, False, False, True),
    (12, 50, False, False, False),
    (12, 0, False, False, False),
    (12, 60, False, False, False),
    (12, 35, False, False, False),
]
MAX_MULTIPLE = 12


def _choose_multiples(rng, n, target, weights):
    """Distinct nonzero multiples k_i of P, |k_i| <= MAX_MULTIPLE, with
    sum(m_i k_i) = target: a random start, then random moves that each
    bring the sum closer."""
    pool = [k for k in range(-MAX_MULTIPLE, MAX_MULTIPLE + 1) if k]
    while True:
        ks = rng.sample(pool, n)
        for _ in range(1000):
            gap = target - sum(m * k for m, k in zip(weights, ks))
            if gap == 0:
                return ks
            i = rng.randrange(n)
            moves = [k for k in pool if k not in ks
                     and abs(gap - weights[i] * (k - ks[i])) < abs(gap)]
            if moves:
                ks[i] = rng.choice(moves)


def elliptic_points(rng: random.Random) -> list:
    """Blown-up cubics: n points kP on y^2 + y = x^3 - x, with torsion and
    non-torsion weighted sums."""
    cases = []
    for idx, (n, target, claim, fibration, double) in enumerate(ELLIPTIC_MIX):
        weights = [1] * n
        if double:
            weights[0] = 2
        torsion = target == 0
        ks = _choose_multiples(rng, n, rng.choice((target, -target)), weights)
        points = [multiple(k) for k in ks]
        total = sum(m * k for m, k in zip(weights, ks))

        doc = Doc()
        c = doc.curve("C", 9 - n, genus=1, boundary=True)
        for i in range(n):
            doc.meet(c, doc.curve(f"E{i + 1}", -1))
        if claim:
            doc.claim([c], {"kind": "group-law-obstruction",
                            "reference": "weighted point sum is non-torsion"})
        elliptic = {
            "curve": CURVE,
            "points": [{"x": _json_rational(x), "y": _json_rational(y), "m": m}
                       for (x, y), m in zip(points, weights)],
        }

        found = not torsion
        hir = {
            "n": n,
            "boundary_self_intersection": 9 - n,
            "obstruction.verdict": "obstruction-found" if found else "inconclusive",
            "obstruction.torsion": "NonTorsion" if found else "Torsion(1)",
        }
        tags = ["boundary-self-intersection-9-minus-n", "nontorsion-weighted-point-sum",
                SAT, PLAN, "negative-definite-components-scheme-contractibility"]
        if n == 9:
            if found:
                verdict, reasons = "zero", [FTB, "disjoint-false-fibres"]
            elif fibration:
                verdict, reasons = "one", [FTB, "fibration-asserted"]
            else:
                verdict, reasons = "one-or-zero", [FTB, "missing-certificates"]
            hir.update({"saturation.saturated": True,
                        "scheme_saturation.verdict": "scheme-saturated",
                        "affinisation.verdict": verdict, "verdict": verdict})
        else:
            reasons = ["proper-surface"]
            verdict = "zero" if found else "unknown"
            hir.update({"saturation.saturated": False,
                        "scheme_saturation.verdict":
                            "scheme-saturated" if found else "unknown",
                        "affinisation.verdict": "zero", "verdict": verdict})
        hir_exit = 2 if verdict in ("one-or-zero", "unknown") else 0
        if claim and torsion:
            validate = op("validate", 1, {"verdict": "inconsistent"}, [])
        else:
            validate = op("validate", 0, {"verdict": "consistent", "problems": "[]"}, [])
        cases.append({
            "name": f"cubic{idx}-n{n}",
            "doc": doc.to_json(fibration=fibration, elliptic=elliptic),
            "ops": [op("hironaka", hir_exit, hir, tags + reasons), validate],
            "props": {"curves": n + 1, "max_nd_block": 1 if n > 9 else 0,
                      "fibre_components": [1] if n == 9 else [],
                      "points": n, "multiplicities": sorted(weights),
                      "sum_multiple": total,
                      "sum_bits": height_bits(multiple(total) if total else None)},
        })
    return cases


# -- wide-sparse ---------------------------------------------------------

# Documents are built from blocks of three components, a (-2)-curve, a
# (-2)-chain of length two and a genus-1 0-curve, each with its interior
# curve (7 curves per block); the seed orders the components and picks the
# interior self-intersections.
WIDE_BLOCKS = tuple(range(5, 18))


def wide_sparse(rng: random.Random) -> list:
    """Many small disjoint boundary components (short (-2)-chains and
    genus-1 0-curves), each met by one interior (-1)- or (-2)-curve."""
    cases = []
    for idx, blocks in enumerate(WIDE_BLOCKS):
        kinds = [1, 2, 0] * blocks
        rng.shuffle(kinds)
        doc = Doc()
        chains, zeros = [], []
        for length in kinds:
            if length:
                ids = [doc.curve(f"A{len(chains)}_{i}", -2, boundary=True)
                       for i in range(length)]
                for a, b in zip(ids, ids[1:]):
                    doc.meet(a, b)
                chains.append(ids)
            else:
                ids = [doc.curve(f"Z{len(zeros)}", 0, genus=1, boundary=True)]
                zeros.append(ids)
            interior = doc.curve(f"I{len(chains) + len(zeros)}", rng.choice((-1, -2)))
            doc.meet(rng.choice(ids), interior)
        comps = sorted(chains + zeros)
        exceptional = sorted(i for ids in chains for i in ids)

        sat = {"saturation.saturated": False}
        for k, ids in enumerate(chains):
            sat[f"saturation.offending_components[{k}]"] = joined(doc.names(ids))
        plan = plan_lines(doc, "plan", chains, zeros)
        comp_lines = {}
        for c, ids in enumerate(comps):
            comp_lines[f"components[{c}].component"] = joined(doc.names(ids))
            if ids in zeros:
                comp_lines[f"components[{c}].verdict"] = "fibre-type"
                comp_lines[f"components[{c}].kernel.{doc.name(ids[0])}"] = 1
                comp_lines[f"components[{c}].zariski.status"] = "ok"
            else:
                comp_lines[f"components[{c}].verdict"] = "negative-definite"
        comp_tags = [ND] * len(comps)
        mum = {"verdict": "contracted"}
        for k, ids in enumerate(chains):
            mum[f"contracted_components[{k}]"] = joined(doc.names(ids))
        mum.update(mumford_lines(doc, exceptional))
        ops = [
            op("saturate", 0, {"verdict": "not-saturated", **sat, **plan}, [SAT, PLAN]),
            op("mumford", 0, mum, ["pullback-orthogonal-to-exceptional"]),
            op("fibre", 0, {"verdict": "classified", **comp_lines}, comp_tags),
            # five or more disjoint fibre-type 0-curves survive the plan
            op("analyze", 0, {"verdict": "one", **sat, **plan, **comp_lines},
               [SAT, PLAN, *comp_tags, FTB, "three-disjoint-fibre-type-components"]),
        ]
        cases.append({
            "name": f"wide{idx}-c{len(doc.curves)}",
            "doc": doc.to_json(),
            "ops": ops,
            "props": {"curves": len(doc.curves),
                      "max_nd_block": max(len(ids) for ids in chains),
                      "fibre_components": [1] * len(zeros)},
        })
    return cases


WORKLOADS = {
    "contract-chains": contract_chains,
    "fibre-cycles": fibre_cycles,
    "elliptic-points": elliptic_points,
    "wide-sparse": wide_sparse,
}


def generate(workload: str, seed: int) -> list:
    """One pass of ``workload`` for ``seed``: the same seed gives the same
    documents."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
