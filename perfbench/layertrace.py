"""Per-layer spans around surfsat's public functions, recorded from outside.

``install()`` wraps each function listed in ``TRACED`` in every namespace
that binds it: the defining module, every other ``surfsat`` module that
imported the name (``cli`` and ``elliptic`` use ``from .x import f``), and
dict-valued module globals such as ``cli.COMMANDS``.  Methods are wrapped on
their class.  No file under ``src/`` changes.

Spans are kept in flat in-memory arrays while the loop runs; ``metrics()``
turns them into per-operation figures and ``write()`` saves them when the
run ends.  Self time is a span's duration minus the durations of its child
spans and minus the time the tracer spent on its own counters inside it.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# metric prefix -> (module, attribute); "Class.method" wraps a method.
TRACED = {
    "schema.load_document": ("surfsat.schema", "load_document"),
    "linalg.construct": ("surfsat.linalg", "SymmetricMatrix.__init__"),
    "linalg.inertia": ("surfsat.linalg", "SymmetricMatrix.inertia"),
    "linalg.solve": ("surfsat.linalg", "SymmetricMatrix.solve"),
    "linalg.kernel_basis": ("surfsat.linalg", "SymmetricMatrix.kernel_basis"),
    "configuration.connected_components":
        ("surfsat.configuration", "Configuration.connected_components"),
    "configuration.intersection_number":
        ("surfsat.configuration", "Configuration.intersection_number"),
    "configuration.gram_on": ("surfsat.configuration", "Configuration.gram_on"),
    "nslattice.blowup": ("surfsat.nslattice", "blowup"),
    "nslattice.configuration_from_classes":
        ("surfsat.nslattice", "configuration_from_classes"),
    "mumford.pullback": ("surfsat.mumford", "pullback"),
    "mumford.contract": ("surfsat.mumford", "contract"),
    "fibres.classify_fibre_type": ("surfsat.fibres", "classify_fibre_type"),
    "fibres.validate_zariski": ("surfsat.fibres", "validate_zariski"),
    "saturation.is_saturated": ("surfsat.saturation", "is_saturated"),
    "saturation.saturation_plan": ("surfsat.saturation", "saturation_plan"),
    "saturation.apply_plan": ("surfsat.saturation", "apply_plan"),
    "saturation.affinisation_dimension":
        ("surfsat.saturation", "affinisation_dimension"),
    "elliptic.add": ("surfsat.elliptic", "add"),
    "elliptic.is_torsion": ("surfsat.elliptic", "is_torsion"),
    "elliptic.sum_obstruction": ("surfsat.elliptic", "sum_obstruction"),
    "elliptic.hironaka_build": ("surfsat.elliptic", "hironaka_build"),
    "cli.command": ("surfsat.cli", [
        "cmd_analyze", "cmd_saturate", "cmd_affdim", "cmd_fibre",
        "cmd_mumford", "cmd_hironaka", "cmd_validate"]),
    "cli.render": ("surfsat.cli", "render_human"),
}

# The per-layer metrics the traced run reports, in print order.
CALLS_AND_SELF = [
    "schema.load_document", "linalg.construct", "linalg.inertia",
    "linalg.solve", "linalg.kernel_basis",
    "configuration.connected_components", "configuration.intersection_number",
    "nslattice.blowup", "mumford.pullback", "mumford.contract",
    "fibres.classify_fibre_type", "fibres.validate_zariski",
    "elliptic.add", "elliptic.is_torsion",
]
CALLS_ONLY = [
    "configuration.gram_on", "saturation.is_saturated",
    "saturation.saturation_plan", "saturation.apply_plan",
]
SELF_ONLY = [
    "nslattice.configuration_from_classes", "saturation.apply_plan",
    "saturation.affinisation_dimension", "elliptic.sum_obstruction",
    "elliptic.hironaka_build", "cli.command", "cli.render",
]
EXTRA = [
    ("linalg.inertia.repeat_ratio", "ratio"),
    ("linalg.max_order", "count"),
    ("linalg.solve.max_bits", "bits"),
    ("mumford.contract.repeat_ratio", "ratio"),
    ("fibres.validate_zariski.inertia_calls", "count"),
    ("elliptic.add.max_bits", "bits"),
    ("trace.self_ms_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        units[f"{name}.calls"] = "count"
    for name in CALLS_AND_SELF + SELF_ONLY:
        units[f"{name}.self_ms"] = "ms"
    units.update(EXTRA)
    return units


def _bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


class Tracer:
    """Span recorder; one instance per traced loop."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")
        self.stack = [-1]
        self.op_index = -1
        self.op_wall = 0.0
        self.inertia_seen: set = set()
        self.contract_seen: set = set()
        self.inertia_repeats = 0
        self.contract_repeats = 0
        self.max_order = 0
        self.solve_bits = 0
        self.add_bits = 0

    # -- operations ---------------------------------------------------

    def begin_op(self) -> None:
        self.op_index += 1
        self.inertia_seen.clear()
        self.contract_seen.clear()

    def end_op(self, seconds: float) -> None:
        self.op_wall += seconds

    # -- counters run outside every span's self time -----------------------

    def _on_matrix_call(self, name, args, result):
        matrix = args[0]
        self.max_order = max(self.max_order, matrix.n)
        if name == "linalg.inertia":
            if matrix.rows in self.inertia_seen:
                self.inertia_repeats += 1
            else:
                self.inertia_seen.add(matrix.rows)
        elif name == "linalg.solve" and result is not None:
            self.solve_bits = max(self.solve_bits, _bits(result))

    def _on_contract(self, name, args, result):
        key = (args[0], frozenset(frozenset(p) for p in args[1]))
        if key in self.contract_seen:
            self.contract_repeats += 1
        else:
            self.contract_seen.add(key)

    def _on_add(self, name, args, result):
        if not result.is_infinity:
            self.add_bits = max(self.add_bits, _bits((result.x, result.y)))

    HOOKS = {
        "linalg.inertia": _on_matrix_call,
        "linalg.solve": _on_matrix_call,
        "linalg.kernel_basis": _on_matrix_call,
        "mumford.contract": _on_contract,
        "elliptic.add": _on_add,
    }

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        nid = self.name_id[name]
        hook = self.HOOKS.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = stack[-1]
            self.span_name.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_index)
            self.excluded.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, name, args, result)
                if parent >= 0:
                    self.excluded[parent] += perf_counter() - self.end[idx]
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever it is bound."""
        modules = [m for key, m in sys.modules.items()
                   if key == "surfsat" or key.startswith("surfsat.")]
        for name, (module_name, attrs) in TRACED.items():
            for attr in [attrs] if isinstance(attrs, str) else attrs:
                owner = sys.modules[module_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapped = self.wrap(name, original)
                setattr(owner, leaf, wrapped)
                if path:
                    continue  # methods are looked up on their class
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    value[k] = wrapped

    # -- results --------------------------------------------------------

    def metrics(self, untraced_op_refs: float, ref_median: float) -> dict:
        """Per-operation figures over every traced operation.

        ``untraced_op_refs`` is the mean untraced operation time in units of
        the reference computation, and ``ref_median`` the median reference
        time during the traced loop; their use makes ``trace.overhead_ratio``
        independent of how fast the machine ran in each loop.
        """
        n = len(self.start)
        ops = max(self.op_index + 1, 1)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        self_time = [duration[i] - self.excluded[i] for i in range(n)]
        under_zariski = [False] * n
        zariski = self.name_id.get("fibres.validate_zariski", -1)
        inertia = self.name_id.get("linalg.inertia", -1)
        zariski_inertia = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_time[p] -= duration[i]
                under_zariski[i] = under_zariski[p] or self.span_name[p] == zariski
            if self.span_name[i] == inertia and under_zariski[i]:
                zariski_inertia += 1
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[self.span_name[i]] += 1
            self_s[self.span_name[i]] += self_time[i]

        def total(name):
            nid = self.name_id.get(name)
            return (0, 0.0) if nid is None else (calls[nid], self_s[nid])

        out = {}
        for name in CALLS_AND_SELF + CALLS_ONLY:
            out[f"{name}.calls"] = total(name)[0] / ops
        for name in CALLS_AND_SELF + SELF_ONLY:
            out[f"{name}.self_ms"] = total(name)[1] * 1000 / ops
        inertia_calls = total("linalg.inertia")[0]
        contract_calls = total("mumford.contract")[0]
        out["linalg.inertia.repeat_ratio"] = (
            self.inertia_repeats / inertia_calls if inertia_calls else 0.0)
        out["linalg.max_order"] = self.max_order
        out["linalg.solve.max_bits"] = self.solve_bits
        out["mumford.contract.repeat_ratio"] = (
            self.contract_repeats / contract_calls if contract_calls else 0.0)
        out["fibres.validate_zariski.inertia_calls"] = zariski_inertia / ops
        out["elliptic.add.max_bits"] = self.add_bits
        out["trace.self_ms_coverage"] = (
            sum(self_time) / self.op_wall if self.op_wall else 0.0)
        out["trace.overhead_ratio"] = self.op_wall / ops / ref_median / untraced_op_refs
        return out

    def write(self, path) -> None:
        """Save every span as CSV: op, span, parent, name, start_us, end_us."""
        base = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_us,end_us\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]},{i},{self.parent[i]},"
                    f"{self.names[self.span_name[i]]},"
                    f"{(self.start[i] - base) * 1e6:.1f},"
                    f"{(self.end[i] - base) * 1e6:.1f}\n"
                )
