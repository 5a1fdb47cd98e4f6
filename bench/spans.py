"""In-memory spans around calls into groverweight's layers, and the
per-layer metrics derived from them.

Tracing is applied from outside the package: for the duration of a traced
pass, each public function listed in TARGETS is replaced, in every
groverweight module that holds a reference to it, by a wrapper that
records a span (name, start, end, parent span, op id) and the layer's work
counters.  Nothing inside the package is edited; untraced passes run the
original functions.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _steps(counts, result, args):
    counts["subspace.steps"] += _length(args.get("steps"))


def _plan(counts, result, args):
    counts["sure_success.k_sum"] += int(result.k)


def _full_run(counts, result, args):
    steps = _length(args.get("schedule"))
    size = 1 << args["oracle"].n
    counts["statevector.steps"] += steps
    # Computed, not measured: the initial uniform state is written once,
    # then each step reads and writes the 16-byte amplitudes once for the
    # oracle phase and once for the diffusion.
    counts["statevector.amp_bytes_computed"] += 16 * size * (1 + 4 * steps)


def _table(counts, result, args):
    # Set bits: the weight t, which the Fisher-Yates draw and to_hex walk.
    counts["oracle.table_bits"] += int(result.t)


def _mc(counts, result, args):
    counts["decision.mc_trials"] += int(args["trials"])


def _terms(counts, result, args):
    counts["classical.terms"] += (int(args["g"]) + 1) // 2


def _register(counts, result, args):
    counts["counting.register_points"] += int(args["plan"].P)


def _length(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


# (module, attribute, span name, counter).  An attribute "Class.method"
# wraps the method on the class.
TARGETS = (
    ("groverweight.subspace", "evolve", "subspace.evolve", _steps),
    ("groverweight.subspace", "run_schedule", "subspace.run_schedule", None),
    ("groverweight.sure_success", "plan_for_weight", "sure_success.plan", _plan),
    ("groverweight.sure_success", "select_k", "sure_success.select_k", None),
    ("groverweight.statevector", "run_full_schedule", "statevector.run", _full_run),
    ("groverweight.oracle", "make_random_oracle", "oracle.build", _table),
    ("groverweight.oracle", "from_hex", "oracle.hex_decode", _table),
    ("groverweight.oracle", "BooleanOracle.to_hex", "oracle.hex_encode", None),
    ("groverweight.decision", "exact_success_probability", "decision.exact", None),
    ("groverweight.decision", "empirical_success_count", "decision.mc", _mc),
    ("groverweight.classical", "error_probability", "classical.error", _terms),
    ("groverweight.counting", "hypothesis_success_probability", "counting.mass", _register),
    ("groverweight.cli", "run", "cli.run", None),
    ("groverweight.cli", "Report.emit", "cli.emit", None),
)


# Per-layer metrics of the traced run: (name, unit, end-to-end metric it
# should move, workload on which it should move it).  Written down before
# any measurement; README.md prints the same table.
LAYER_METRICS = (
    ("cli.interp_s", "s", "latency_p50_s, ops_per_s (setup_s in-process)", "cli-session"),
    ("cli.import_s", "s", "latency_p50_s, ops_per_s (setup_s in-process)", "cli-session"),
    ("cli.command_s", "s", "latency_p50_s, ops_per_s", "cli-session"),
    ("cli.emit_s", "s", "latency_p50_s, ops_per_s", "cli-session"),
    ("cli.invocations", "count", "latency_p50_s, ops_per_s", "cli-session"),
    ("sure_success.plan_s", "s", "latency_p90_s, ops_per_s", "plane-sweep"),
    ("sure_success.plan_self_s", "s", "latency_p90_s, ops_per_s", "plane-sweep"),
    ("sure_success.select_k_s", "s", "latency_p90_s, ops_per_s", "plane-sweep"),
    ("sure_success.plans", "count", "latency_p90_s, ops_per_s", "plane-sweep"),
    ("sure_success.k_sum", "count", "latency_p90_s, ops_per_s", "plane-sweep"),
    ("sure_success.branch_yield", "ratio", "latency_p90_s, ops_per_s", "plane-sweep"),
    ("subspace.evolve_s", "s", "ops_per_s, latency_p90_s", "plane-sweep"),
    ("subspace.evolve_calls", "count", "ops_per_s, latency_p90_s", "plane-sweep"),
    ("subspace.steps", "count", "ops_per_s, latency_p90_s", "plane-sweep"),
    ("subspace.run_schedule_s", "s", "ops_per_s (unchanged by prefix shortcuts)", "full-state"),
    ("statevector.run_s", "s", "ops_per_s, latency_p90_s, peak_rss_mb", "full-state"),
    ("statevector.steps", "count", "ops_per_s, latency_p90_s, peak_rss_mb", "full-state"),
    ("statevector.amp_bytes_computed", "B", "ops_per_s, latency_p90_s, peak_rss_mb", "full-state"),
    ("oracle.build_s", "s", "latency_p90_s, ops_per_s", "full-state"),
    ("oracle.hex_encode_s", "s", "latency_p90_s, ops_per_s", "full-state"),
    ("oracle.hex_decode_s", "s", "latency_p90_s, ops_per_s", "full-state"),
    ("oracle.table_bits", "count", "latency_p90_s, ops_per_s", "full-state"),
    ("decision.exact_s", "s", "latency_p50_s, ops_per_s", "plane-sweep"),
    ("decision.exact_calls", "count", "latency_p50_s, ops_per_s", "plane-sweep"),
    ("decision.mc_s", "s", "latency_p50_s, ops_per_s", "plane-sweep"),
    ("decision.mc_trials", "count", "latency_p50_s, ops_per_s", "plane-sweep"),
    ("classical.error_s", "s", "latency_p50_s, ops_per_s", "plane-sweep"),
    ("classical.calls", "count", "latency_p50_s, ops_per_s", "plane-sweep"),
    ("classical.terms", "count", "latency_p50_s, ops_per_s", "plane-sweep"),
    ("counting.mass_s", "s", "latency_p50_s, ops_per_s", "plane-sweep"),
    ("counting.calls", "count", "latency_p50_s, ops_per_s", "plane-sweep"),
    ("counting.register_points", "count", "latency_p50_s, ops_per_s", "plane-sweep"),
    ("bench.trace_overhead_pct", "%", "none: traced minus untraced time of the same ops", "all"),
)

# Exact counts: identical across runs at one seed, different across seeds.
EXACT_COUNTS = (
    "subspace.steps",
    "sure_success.k_sum",
    "classical.terms",
    "counting.register_points",
    "oracle.table_bits",
    "cli.invocations",
)

# Layer metric -> span whose total duration it reports.
_SPAN_TIMES = {
    "cli.command_s": "cli.run",
    "cli.emit_s": "cli.emit",
    "sure_success.plan_s": "sure_success.plan",
    "sure_success.select_k_s": "sure_success.select_k",
    "subspace.evolve_s": "subspace.evolve",
    "subspace.run_schedule_s": "subspace.run_schedule",
    "statevector.run_s": "statevector.run",
    "oracle.build_s": "oracle.build",
    "oracle.hex_encode_s": "oracle.hex_encode",
    "oracle.hex_decode_s": "oracle.hex_decode",
    "decision.exact_s": "decision.exact",
    "decision.mc_s": "decision.mc",
    "classical.error_s": "classical.error",
    "counting.mass_s": "counting.mass",
}

# Layer metric -> span whose number of calls it reports.
_SPAN_CALLS = {
    "sure_success.plans": "sure_success.plan",
    "subspace.evolve_calls": "subspace.evolve",
    "decision.exact_calls": "decision.exact",
    "classical.calls": "classical.error",
    "counting.calls": "counting.mass",
}


class Tracer:
    """Spans kept in memory as [id, name, start, end, parent, op] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self.enabled = False
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    @contextmanager
    def recording(self, name: str):
        """Record one operation's calls; wrapped calls made outside are not."""
        self.enabled = True
        try:
            with self.span(name):
                yield
        finally:
            self.enabled = False

    def wrap(self, fn, name: str, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if count is not None:
                count(self.counts, result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


@contextmanager
def patched(tracer: Tracer):
    """Route the TARGETS through the tracer's wrappers, then restore them."""
    restore = []
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "groverweight" and m]
    try:
        for module_name, attr, span_name, count in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapper = tracer.wrap(original, span_name, count)
            if owner_name:
                restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        restore.append((holder, name, original))
                        setattr(holder, name, wrapper)
        yield tracer
    finally:
        for holder, name, original in reversed(restore):
            setattr(holder, name, original)


def self_times(spans) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap their siblings.
    """
    child_time = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, name, start, end, _, _ in spans:
        entry = out[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[sid]
    return {name: tuple(v) for name, v in out.items()}


def _plan_evolve(spans) -> tuple[float, int]:
    """Time and number of subspace.evolve calls made inside a planner call."""
    names = {sid: name for sid, name, *_ in spans}
    parents = {sid: parent for sid, _, _, _, parent, _ in spans}
    seconds, calls = 0.0, 0
    for sid, name, start, end, parent, _ in spans:
        if name != "subspace.evolve":
            continue
        while parent is not None and names[parent] != "sure_success.plan":
            parent = parents[parent]
        if parent is not None:
            seconds += end - start
            calls += 1
    return seconds, calls


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every LAYER_METRICS value; layers the workload does not call read 0."""
    summary = self_times(tracer.spans)
    values: dict[str, float] = {}
    for metric, span_name in _SPAN_TIMES.items():
        values[metric] = summary.get(span_name, (0, 0.0, 0.0))[1]
    for metric, span_name in _SPAN_CALLS.items():
        values[metric] = summary.get(span_name, (0, 0.0, 0.0))[0]
    values.update(tracer.counts)
    evolve_s, evolve_calls = _plan_evolve(tracer.spans)
    values["sure_success.plan_self_s"] = values["sure_success.plan_s"] - evolve_s
    # Each candidate phase branch is simulated once per hypothesis.
    branches = evolve_calls / 2
    values["sure_success.branch_yield"] = values["sure_success.plans"] / branches if branches else 0.0
    values.update(extra)
    return {name: values.get(name, 0) for name, *_ in LAYER_METRICS}
