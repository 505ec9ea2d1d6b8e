"""Outside-in span tracer for the logcap benchmark.

Each hooked public function is replaced, at the module attribute its
callers look it up through, by a wrapper that records a span
``[name, start, end, parent, op_id, info]``.  Spans stay in memory until
the run ends.  ``uninstall`` puts the original functions back; an
untraced run installs nothing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict


def _gap_and_nodes(args, out, exc):
    return int(args[1]), int(args[2])  # gap_moment_sums(endpoints, gap, m, jmax)


def _moment_nodes(args, out, exc):
    return None if exc is not None else out.moment_nodes


def _tail_evals(args, out, exc):
    if exc is None:
        return out.nodes_used, False
    partial = getattr(exc, "partial", None)
    return (partial.nodes_used if partial is not None else 0), True


ELLIPTIC = ("special.complete_K", "special.complete_E", "special.incomplete_F",
            "special.theta3", "special.theta4")
CLOSED_FORM_BOUNDS = ("bounds.classical_bounds", "bounds.schiefermayr_lower",
                      "bounds.polarization_upper", "bounds.gillis_upper",
                      "bounds.schiefermayr_upper", "bounds.projection_upper",
                      "bounds.uniform_measure_partition")

# (module, attribute, span name, inspector of (args, result, exception))
HOOKS = (
    ("logcap", "make_interval_union", "sets.make_interval_union", None),
    ("logcap", "capacity", "exact.capacity", None),
    ("logcap", "all_bounds", "bounds.all_bounds", None),
    ("logcap.exact", "normalize_to_unit", "sets.normalize_to_unit", None),
    ("logcap.exact", "widom_capacity", "exact.widom_capacity", None),
    ("logcap.exact", "widom_polynomial", "exact.widom_polynomial", _moment_nodes),
    ("logcap.exact", "akhiezer_capacity", "exact.akhiezer_capacity", None),
    ("logcap.exact", "solve_dense", "special.solve_dense", None),
    ("logcap.exact", "tail_integral", "special.tail_integral", _tail_evals),
    ("logcap.exact", "complete_K", "special.complete_K", None),
    ("logcap.exact", "incomplete_F", "special.incomplete_F", None),
    ("logcap.exact", "theta3", "special.theta3", None),
    ("logcap.exact", "theta4", "special.theta4", None),
    ("logcap._kernels", "gap_moment_sums", "kernels.gap_moment_sums", _gap_and_nodes),
    ("logcap.bounds", "solynin_lower_max", "bounds.solynin_lower_max", None),
    ("logcap.bounds", "gap_division_lower_max", "bounds.gap_division_lower_max", None),
    ("logcap.bounds", "partition_lower", "bounds.partition_lower", None),
    ("logcap.bounds", "complete_K", "special.complete_K", None),
    ("logcap.bounds", "complete_E", "special.complete_E", None),
) + tuple(("logcap.bounds", name.split(".")[1], name, None) for name in CLOSED_FORM_BOUNDS)

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1  # spans outside any workload op carry -1
        self.missing: set[str] = set()  # span names whose hook was not found
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, name, inspect in HOOKS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.missing.add(name)
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.add(name)
                continue
            setattr(module, attr, self._wrap(name, orig, inspect))
            self._restore.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    def _wrap(self, name, fn, inspect):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            out = exc = None
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if inspect is not None:
                    span[INFO] = inspect(args, out, exc)

        return traced

    def root(self, op_id: int):
        """Open the root span "op" of one op; returns a closer to call when the op ends."""
        self.op_id = op_id
        span = ["op", time.perf_counter(), 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)

        def close():
            span[END] = time.perf_counter()
            self._stack.pop()
            self.op_id = -1

        return close

    def write(self, path) -> None:
        """Spans as gzip'd JSON lines: name, start, end, parent index, op id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:INFO]) + "\n")


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover (children never overlap)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics of the workload ops, normalized per op: name -> (value, unit)."""
    spans = tracer.spans
    selft = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[PARENT] == -1 and s[OP] >= 0 and s[NAME] == "op"]
    n_ops = max(1, len(roots))
    op_time = sum(spans[i][END] - spans[i][START] for i in roots)

    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        if s[OP] < 0:
            continue
        total[s[NAME]] += s[END] - s[START]
        self_total[s[NAME]] += selft[i]
        calls[s[NAME]] += 1

    def per_op_ms(x):
        return 1e3 * x / n_ops

    # moment kernel: the nodes of the last call per (widom_polynomial span, gap) are kept,
    # the doubling loop throws the earlier ones away
    kernel = [s for s in spans if s[NAME] == "kernels.gap_moment_sums" and s[OP] >= 0]
    nodes = sum(s[INFO][1] for s in kernel)
    final = {}
    for s in kernel:
        final[(s[PARENT], s[INFO][0])] = s[INFO][1]
    moment_nodes = [s[INFO] for s in spans
                    if s[NAME] == "exact.widom_polynomial" and s[OP] >= 0 and s[INFO] is not None]
    tails = [s[INFO] for s in spans if s[NAME] == "special.tail_integral" and s[OP] >= 0]
    solynin = {i for i, s in enumerate(spans) if s[NAME] == "bounds.solynin_lower_max"}
    all_b = {i for i, s in enumerate(spans) if s[NAME] == "bounds.all_bounds"}
    sol_evals = sum(1 for s in spans
                    if s[NAME] == "bounds.partition_lower" and s[OP] >= 0 and s[PARENT] in solynin)
    closed = sum(s[END] - s[START] for s in spans
                 if s[OP] >= 0 and s[PARENT] in all_b
                 and (s[NAME] in CLOSED_FORM_BOUNDS or s[NAME] == "bounds.partition_lower"))

    out = {
        "kernels.gap_moment_sums.ms": (per_op_ms(total["kernels.gap_moment_sums"]), "ms/op"),
        "kernels.gap_moment_sums.calls": (calls["kernels.gap_moment_sums"] / n_ops, "calls/op"),
        "kernels.gap_moment_sums.nodes": (nodes / n_ops, "nodes/op"),
        "kernels.gap_moment_sums.useful_ratio": (sum(final.values()) / nodes if nodes else 0.0, "share"),
        "exact.widom_polynomial.self_ms": (per_op_ms(self_total["exact.widom_polynomial"]), "ms/op"),
        "exact.moment_nodes.mean": (sum(moment_nodes) / len(moment_nodes) if moment_nodes else 0.0, "nodes"),
        "exact.akhiezer_capacity.ms": (per_op_ms(total["exact.akhiezer_capacity"]), "ms/op"),
        "exact.capacity.ms": (per_op_ms(total["exact.capacity"]), "ms/op"),
        "exact.capacity.share": (total["exact.capacity"] / op_time if op_time else 0.0, "share"),
        "special.tail_integral.ms": (per_op_ms(total["special.tail_integral"]), "ms/op"),
        "special.tail_integral.evals": (sum(ev for ev, _ in tails) / n_ops, "evals/op"),
        "special.tail_integral.failed": (sum(1 for _, f in tails if f) / n_ops, "calls/op"),
        "special.solve_dense.ms": (per_op_ms(total["special.solve_dense"]), "ms/op"),
        "special.elliptic.calls": (sum(calls[k] for k in ELLIPTIC) / n_ops, "calls/op"),
        "special.elliptic.ms": (per_op_ms(sum(total[k] for k in ELLIPTIC)), "ms/op"),
        "bounds.solynin_lower_max.ms": (per_op_ms(total["bounds.solynin_lower_max"]), "ms/op"),
        "bounds.solynin_lower_max.evals": (sol_evals / n_ops, "evals/op"),
        "bounds.partition_lower.self_ms": (per_op_ms(self_total["bounds.partition_lower"]), "ms/op"),
        "bounds.gap_division_lower_max.ms": (per_op_ms(total["bounds.gap_division_lower_max"]), "ms/op"),
        "bounds.closed_form.ms": (per_op_ms(closed), "ms/op"),
        "bounds.all_bounds.self_ms": (per_op_ms(self_total["bounds.all_bounds"]), "ms/op"),
        "sets.make_interval_union.ms": (per_op_ms(total["sets.make_interval_union"]), "ms/op"),
        "sets.normalize_to_unit.ms": (per_op_ms(total["sets.normalize_to_unit"]), "ms/op"),
    }
    hooks_of = {
        "kernels.gap_moment_sums": ("kernels.gap_moment_sums",),
        "exact.widom_polynomial": ("exact.widom_polynomial",),
        "exact.moment_nodes": ("exact.widom_polynomial",),
        "exact.akhiezer_capacity": ("exact.akhiezer_capacity",),
        "exact.capacity": ("exact.capacity",),
        "special.tail_integral": ("special.tail_integral",),
        "special.solve_dense": ("special.solve_dense",),
        "special.elliptic": ELLIPTIC,
        "bounds.solynin_lower_max": ("bounds.solynin_lower_max", "bounds.partition_lower"),
        "bounds.partition_lower": ("bounds.partition_lower",),
        "bounds.gap_division_lower_max": ("bounds.gap_division_lower_max",),
        "bounds.closed_form": CLOSED_FORM_BOUNDS + ("bounds.all_bounds",),
        "bounds.all_bounds": ("bounds.all_bounds",),
        "sets.make_interval_union": ("sets.make_interval_union",),
        "sets.normalize_to_unit": ("sets.normalize_to_unit",),
    }
    for key in out:
        layer = key.rsplit(".", 1)[0]
        if any(h in tracer.missing for h in hooks_of[layer]):
            out[key] = (None, out[key][1])
    return out
