"""Outside-in tracing of the evofactor package for the benchmark's traced run.

`Tracer.install` wraps every public function and method defined in each
layer module, at every attribute of the package that holds it, so a new
public function is traced without a benchmark change. Property getters and
dunder methods are not wrapped. A call records a span (function, start,
end, parent span) when it crosses a layer boundary, or when a per-layer
metric names its function. A call from inside its own layer to an unnamed
helper (the recursion of `dsl.print_expr`, `dsl.children` under
`dsl.depth`) passes straight through, and its time stays in the enclosing
span of the same layer. This keeps the tracer from inflating the share of
layers made of many tiny calls. Spans live in flat arrays in memory and
`write` saves them at the end. A span's self time is its duration minus the
time its child spans cover, and a layer's self time sums its spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

PACKAGE = "evofactor"
LAYERS = (
    "market_data",
    "dsl",
    "seeds",
    "metrics",
    "portfolio",
    "generator",
    "evolution",
    "aggregation",
    "cli",
)

# Function groups the per-layer metrics time and count.
WINDOW = ("market_data.window_matrices", "market_data.window_at")
LOAD = ("market_data.load_snapshot", "market_data.load_price_table")
EVALUATE = ("dsl.evaluate_cross_section", "dsl.evaluate")
PARSE = ("dsl.parse",)
RANKIC = ("metrics.spearman_rank_corr", "metrics.rankic_series")
RECALL = ("metrics.recall_precision_at_n",)
REPORT = ("metrics.write_factor_report",)
STEP = (
    "portfolio.select_top_m",
    "portfolio.equal_weights",
    "portfolio.positive_score_weights",
    "portfolio.temperature_weights",
    "portfolio.step_return",
    "portfolio.drift_weights",
)
LEDGER_WRITE = ("portfolio.write_ledger", "portfolio.write_ledger_json")
GENERATE = ("generator.generate_offline", "generator.generate_remote")
PROMPT = ("generator.build_prompt",)
LEAK_SCAN = ("generator.scan_for_leakage",)
VALIDATE = ("generator.validate_candidate",)
TRACKER_STAT = (
    "evolution.PerfTracker.stat",
    "evolution.PerfTracker.performance_stats",
    "evolution.PerfTracker.quality_stats",
)
PRUNE = ("evolution.clean_factor_pool",)
GATE = ("evolution.benchmark_gate",)
COMPOSITE = ("evolution.composite_scores",)
CHECKPOINT_WRITE = ("evolution.save_checkpoints",)
CHECKPOINT_READ = ("evolution.load_checkpoints",)
RECORD_LOAD = ("seeds.json_to_record",)
MERGE = ("aggregation.merge_runs",)
POOLED = ("aggregation.pooled_library",)
MERGED_SAVE = ("aggregation.save_merged",)
OUTPUTS = ("cli.write_run_outputs",)
MANIFEST = ("cli.write_manifest",)
NAMED = frozenset(
    WINDOW + LOAD + EVALUATE + PARSE + RANKIC + RECALL + REPORT + STEP + LEDGER_WRITE
    + GENERATE + PROMPT + LEAK_SCAN + VALIDATE + TRACKER_STAT + PRUNE + GATE + COMPOSITE
    + CHECKPOINT_WRITE + CHECKPOINT_READ + RECORD_LOAD + MERGE + POOLED + MERGED_SAVE
    + OUTPUTS + MANIFEST
)  # fmt: skip


def _count(key: str, of: Callable) -> Callable:
    def hook(counts: dict, args: tuple, result: object) -> None:
        counts[key] += of(args, result)

    return hook


# Counts taken at a layer boundary from a call's arguments and result.
HOOKS = {
    "dsl.evaluate_cross_section": _count("dsl.eval_rows", lambda a, r: len(r)),
    "generator.generate_offline": _count("generator.proposed", lambda a, r: len(r.candidates)),
    "generator.generate_remote": _count("generator.proposed", lambda a, r: len(r.candidates)),
    "generator.validate_candidate": _count("generator.valid", lambda a, r: bool(r[0])),
    "evolution.clean_factor_pool": _count("evolution.pruned", lambda a, r: len(a[0]) - len(r)),
    "evolution.benchmark_gate": _count("evolution.gate_kept", lambda a, r: bool(r[0])),
    "evolution.load_checkpoints": _count("evolution.checkpoint_records_read", lambda a, r: len(r)),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of_name: list[int] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]  # open spans
        self._layers = [-1]  # layer of each open span
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrapping

    def _span(self, fn: Callable, name: str) -> Callable:
        name_id = len(self.names)
        layer = LAYERS.index(name.split(".")[0])
        self.names.append(name)
        self.layer_of_name.append(layer)
        names, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, layers, clock = self._stack, self._layers, time.perf_counter
        counts, hook, named = self.counts, HOOKS.get(name), name in NAMED

        if inspect.isgeneratorfunction(fn):
            # One span per resumption keeps spans nested in their caller.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not named and layers[-1] == layer:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        yield item
                        continue
                    idx = len(start)
                    names.append(name_id)
                    parent.append(stack[-1])
                    end.append(0.0)
                    stack.append(idx)
                    layers.append(layer)
                    start.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[idx] = clock()
                        stack.pop()
                        layers.pop()
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not named and layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(start)
            names.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            layers.append(layer)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                layers.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        wrapped: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._span(obj, f"{layer}.{obj.__qualname__}")
                elif inspect.isclass(obj):
                    for mname, member in sorted(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        kind = type(member) if isinstance(member, (staticmethod, classmethod)) else None
                        fn = member.__func__ if kind else member
                        if inspect.isfunction(fn):
                            span = self._span(fn, f"{layer}.{fn.__qualname__}")
                            self._set(obj, mname, kind(span) if kind else span)
        for mod in modules:
            for attr, obj in sorted(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ----------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_of": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Queries over recorded spans: call counts, outermost inclusive time of
    a group of functions, and self time per layer."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = tracer.names
        self.name_of, self.parent = a["name_of"], a["parent"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child
        layer_of_name = np.asarray(tracer.layer_of_name, dtype=np.int64)
        self.layer_self = np.bincount(
            layer_of_name[self.name_of], weights=self.self_time, minlength=len(LAYERS)
        )
        self.min_self = float(self.self_time.min()) if len(self.dur) else 0.0

    def _outermost(self, funcs: tuple[str, ...]) -> np.ndarray:
        """Mask of the spans of `funcs` that no other span of `funcs`
        encloses, so recursion and nested group members count once."""
        member = np.array([name in funcs for name in self.names], dtype=bool)
        in_group = member[self.name_of]
        idx = np.flatnonzero(in_group)
        inside = np.zeros(len(idx), dtype=bool)
        up = self.parent[idx]
        while (alive := up >= 0).any():
            inside[alive] |= in_group[up[alive]]
            up[alive] = self.parent[up[alive]]
        mask = np.zeros(len(self.dur), dtype=bool)
        mask[idx[~inside]] = True
        return mask

    def calls(self, *funcs: str) -> int:
        return int(self._outermost(funcs).sum())

    def seconds(self, *funcs: str) -> float:
        return float(self.dur[self._outermost(funcs)].sum())

    def layer_seconds(self, layer: str) -> float:
        return float(self.layer_self[LAYERS.index(layer)])


def layer_metrics(t: SpanTable, counts: dict, extra: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, with its unit. `extra` holds what the spans
    cannot give: output sizes, checked outcomes, round timings from the
    untraced passes, the traced and untraced wall times, and the tracing
    overhead measured on adjacent command pairs. The layer
    self-times add up to the traced wall time by construction (the entry
    point is the root span), so the figure that tells how far the shares
    can be trusted is the tracing overhead over the untraced time."""
    calls, secs = t.calls, t.seconds

    def ratio(part: float, base: float) -> float:
        return part / base if base else 0.0

    gated = calls(*GATE)
    out = {
        "market_data.window_calls": (calls(*WINDOW), "count"),
        "market_data.window_s": (secs(*WINDOW), "s"),
        "market_data.load_s": (secs(*LOAD), "s"),
        "dsl.eval_calls": (calls(*EVALUATE), "count"),
        "dsl.eval_rows": (counts["dsl.eval_rows"], "count"),
        "dsl.eval_s": (secs(*EVALUATE), "s"),
        "dsl.parse_calls": (calls(*PARSE), "count"),
        "dsl.parse_s": (secs(*PARSE), "s"),
        "metrics.rankic_calls": (calls(*RANKIC), "count"),
        "metrics.rankic_s": (secs(*RANKIC), "s"),
        "metrics.recall_s": (secs(*RECALL), "s"),
        "metrics.report_write_s": (secs(*REPORT), "s"),
        "portfolio.step_s": (secs(*STEP), "s"),
        "portfolio.fallback_steps": (extra["fallback_steps"], "count"),
        "portfolio.ledger_write_s": (secs(*LEDGER_WRITE), "s"),
        "portfolio.ledger_bytes": (extra["ledger_bytes"], "bytes"),
        "generator.calls": (calls(*GENERATE), "count"),
        "generator.gen_s": (secs(*GENERATE), "s"),
        "generator.prompt_s": (secs(*PROMPT), "s"),
        "generator.leak_scan_calls": (calls(*LEAK_SCAN), "count"),
        "generator.leak_scan_s": (secs(*LEAK_SCAN), "s"),
        "generator.validate_s": (secs(*VALIDATE), "s"),
        "generator.proposed": (counts["generator.proposed"], "count"),
        "generator.valid_ratio": (ratio(counts["generator.valid"], counts["generator.proposed"]), "ratio"),
        "generator.empty_rounds": (extra["empty_rounds"], "count"),
        "generator.round_samples": (extra["round_samples"], "count"),
        "generator.round_ms_p50": (extra["round_ms_p50"], "ms"),
        "generator.round_ms_p90": (extra["round_ms_p90"], "ms"),
        "evolution.tracker_stat_calls": (calls(*TRACKER_STAT), "count"),
        "evolution.tracker_stat_s": (secs(*TRACKER_STAT), "s"),
        "evolution.prune_s": (secs(*PRUNE), "s"),
        "evolution.pruned": (counts["evolution.pruned"], "count"),
        "evolution.gated": (gated, "count"),
        "evolution.gate_pass_ratio": (ratio(counts["evolution.gate_kept"], gated), "ratio"),
        "evolution.gate_s": (secs(*GATE), "s"),
        "evolution.composite_s": (secs(*COMPOSITE), "s"),
        "evolution.checkpoint_write_s": (secs(*CHECKPOINT_WRITE), "s"),
        "evolution.checkpoint_bytes": (extra["checkpoint_bytes"], "bytes"),
        "evolution.checkpoint_read_s": (secs(*CHECKPOINT_READ), "s"),
        "evolution.checkpoint_records_read": (counts["evolution.checkpoint_records_read"], "count"),
        "seeds.record_load_s": (secs(*RECORD_LOAD), "s"),
        "aggregation.merge_s": (secs(*MERGE), "s"),
        "aggregation.pooled_s": (secs(*POOLED), "s"),
        "aggregation.save_s": (secs(*MERGED_SAVE), "s"),
        "cli.outputs_s": (secs(*OUTPUTS), "s"),
        "cli.manifest_s": (secs(*MANIFEST), "s"),
        "cli.output_bytes": (extra["output_bytes"], "bytes"),
    }
    wall = extra["wall_s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (t.layer_seconds(layer), "s")
    for layer in LAYERS:
        out[f"{layer}.share"] = (ratio(t.layer_seconds(layer), wall), "ratio")
    out.update(
        {
            "trace.wall_s": (wall, "s"),
            "trace.untraced_s": (extra["untraced_s"], "s"),
            "trace.overhead_s": (extra["overhead_s"], "s"),
            "trace.overhead_ratio": (extra["overhead_ratio"], "ratio"),
            "trace.spans": (len(t.dur), "count"),
        }
    )
    return out
