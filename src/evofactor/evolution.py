"""Evolutionary factor search: warm-up, periodic candidate generation,
benchmark gating, pool pruning, and the rolling sparse-portfolio backtest.

Timeline convention: step t forms scores from prices up to column t and
realizes the gross return landing on date t+1. Steps 0..warmup_steps earn
the equal-weight market average while factors accumulate history; live
trading starts at warmup_steps+1. Generation fires at live steps divisible
by search_interval.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from statistics import median
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import dsl, metrics, portfolio
from .generator import (
    ForbiddenTokens,
    GenerationRequest,
    GenerationResult,
    TopFactor,
    build_prompt,
    scan_for_leakage,
    validate_candidate,
)
from .market_data import (
    NormalizedPrices,
    PriceTable,
    ReturnMatrix,
    to_normalized_prices,
    to_relative_returns,
    window_matrices,
)
from .portfolio import CostModel, LedgerRow, PortfolioWeights
from .seeds import (
    FactorRecord,
    json_to_record,
    parse_name,
    record_to_json,
    reset_created_step,
    seed_factors,
)

logger = logging.getLogger(__name__)

WEIGHTINGS = ("equal", "positive_score", "temperature")
QUALITY_METRICS = ("final_value", "mean_rankic")

Generator = Callable[[GenerationRequest], GenerationResult]


@dataclass(frozen=True)
class EvolutionConfig:
    """Loop parameters.

    lookback: window length fed to factor expressions (steps).
    warmup_steps: steps earning the 1/N return while history accumulates.
    search_interval: steps between generator calls; also the trailing
        window for prompt reports, factor selection, and the benchmark gate.
    m: portfolio cardinality. k_top: factors blended into the composite
    score. m_candidates: candidates requested per search step.
    stats_window: cap on the trailing window used for checkpoint stats.
    """

    lookback: int = 30
    warmup_steps: int = 60
    search_interval: int = 5
    m: int = 10
    k_top: int = 5
    m_candidates: int = 5
    cost_rate: float = 0.0
    weighting: str = "equal"
    tau: float = 1.0
    quality_metric: str = "final_value"
    max_pool_size: int = 50
    keep_top_n: int = 20
    t_drop: float = 0.0
    recall_n: int = 20
    stats_window: int = 120
    rng_seed: int = 0
    seed_windows: tuple[int, ...] = (3, 7, 14, 21)

    def __post_init__(self) -> None:
        # Each rule holds for valid values, so NaN fails it.
        rules = (
            ("lookback", self.lookback >= 2, "must be >= 2"),
            ("warmup_steps", self.warmup_steps >= self.lookback, "must be >= lookback"),
            ("search_interval", self.search_interval >= 1, "must be >= 1"),
            ("m", self.m >= 1, "must be >= 1"),
            ("k_top", self.k_top >= 1, "must be >= 1"),
            ("m_candidates", self.m_candidates >= 1, "must be >= 1"),
            ("cost_rate", 0.0 <= self.cost_rate < 1.0, "must lie in [0, 1)"),
            ("weighting", self.weighting in WEIGHTINGS, f"must be one of {WEIGHTINGS}"),
            ("tau", self.tau > 0.0, "must be positive"),
            (
                "quality_metric",
                self.quality_metric in QUALITY_METRICS,
                f"must be one of {QUALITY_METRICS}",
            ),
            (
                "keep_top_n",
                1 <= self.keep_top_n <= self.max_pool_size,
                "must lie in 1..max_pool_size",
            ),
            ("t_drop", math.isfinite(self.t_drop), "must be finite"),
            ("recall_n", self.recall_n >= 1, "must be >= 1"),
            ("stats_window", self.stats_window >= 1, "must be >= 1"),
            ("rng_seed", self.rng_seed >= 0, "must be >= 0"),
            ("seed_windows", len(self.seed_windows) >= 1, "must not be empty"),
            (
                "seed_windows",
                all(w in dsl.ALLOWED_WINDOWS for w in self.seed_windows),
                f"must be drawn from {dsl.ALLOWED_WINDOWS}",
            ),
        )
        for key, ok, rule in rules:
            if not ok:
                raise ValueError(f"config key {key}={getattr(self, key)!r} {rule}")


class PerfTracker:
    """Per-factor standalone evaluation series, appended step by step.

    Each entry holds the factor's own top-m equal-weight gross return, its
    RankIC against next-step returns, and recall@N, kept in one float64 block
    of shape (3, rows, entries): a name's entries sit left-aligned in its
    row, and a per-name step list serves count and the cut at a step. drop
    frees the row for the next new name, so memory follows the live pool.
    stat computes every column over trailing windows of entries up to a
    given step; column computes the one a ranking reads.
    """

    def __init__(self) -> None:
        self._steps: dict[str, list[int]] = {}
        self._rows: dict[str, int] = {}
        self._free: list[int] = []
        self._values = np.empty((3, 0, 0))

    def add(self, name: str, step: int, gross: float, rankic: float, recall: float) -> None:
        steps = self._steps.setdefault(name, [])
        if steps and step <= steps[-1]:
            raise ValueError(f"tracker steps must increase for {name!r}")
        if name not in self._rows:  # with no free row, every allocated row is live
            self._rows[name] = self._free.pop() if self._free else len(self._rows)
        row, n = self._rows[name], len(steps)
        _, rows, entries = self._values.shape
        if row >= rows or n >= entries:
            grown = np.empty((3, max(rows, row + 1), max(entries, 2 * n + 16)))
            grown[:, :rows, :entries] = self._values
            self._values = grown
        self._values[:, row, n] = (gross, rankic, recall)
        steps.append(step)

    def names(self) -> list[str]:
        return sorted(self._steps)

    def count(self, name: str, upto: int | None = None) -> int:
        steps = self._steps.get(name, [])
        if upto is None:
            return len(steps)
        return bisect_right(steps, upto)

    def drop(self, name: str) -> None:
        if self._steps.pop(name, None) is not None:
            self._free.append(self._rows.pop(name))

    def series(self, name: str) -> tuple[list[int], list[float], list[float], list[float]]:
        steps = self._steps.get(name, [])
        values = self._values[:, self._rows[name], : len(steps)].tolist() if steps else ([], [], [])
        return (list(steps), *values)

    def _blocks(self, names: Iterable[str], window: int, upto: int) -> Iterator[tuple]:
        """(names, their (3, k, n) block of gross, rankic and recall) for each
        group of names with n of their last `window` entries up to step
        upto; names with none are left out."""
        groups: dict[int, list[tuple[str, int, int]]] = {}
        for name in names:
            hi = bisect_right(self._steps.get(name, []), upto)
            n = min(window, hi)
            if n > 0:
                groups.setdefault(n, []).append((name, self._rows[name], hi))
        for n, group in groups.items():
            group_names, rows, ends = zip(*group)
            cols = np.add.outer(ends, np.arange(-n, 0))
            yield group_names, self._values[:, np.array(rows)[:, None], cols]

    def stat(
        self, names: Iterable[str], window: int, upto: int, recall_n: int
    ) -> dict[str, dict[str, float]]:
        """Every metrics.window_stats column over each name's last `window`
        entries up to step upto, leaving out names with none. Names with
        equally many entries are reduced together as one stacked block."""
        stats: dict[str, dict[str, float]] = {}
        for group, block in self._blocks(names, window, upto):
            columns = metrics.window_stats(*block, recall_n)
            rows = zip(*(values.tolist() for values in columns.values()))
            stats.update((name, dict(zip(columns, row))) for name, row in zip(group, rows))
        return stats

    def column(self, names: Iterable[str], window: int, upto: int, metric: str) -> dict[str, float]:
        """stat's column for a metric of QUALITY_METRICS alone, bit for bit:
        the same blocks reduced by window_stats' own expressions."""
        if metric not in QUALITY_METRICS:
            raise ValueError(f"metric {metric!r} must be one of {QUALITY_METRICS}")
        values: dict[str, float] = {}
        for group, (gross, rankic, _) in self._blocks(names, window, upto):
            column = 100.0 * np.prod(gross, axis=1) if metric == "final_value" else rankic.mean(axis=1)
            values.update(zip(group, column.tolist()))
        return values


class ScoreCache:
    """Raw factor scores by step over one price panel: the run's one scorer.

    A factor that dsl.panel_equivalent admits is evaluated a block of
    `lookback` steps at a time: the first request at step t evaluates steps
    t..t+lookback-1 in one dsl.evaluate_panel call over their price columns
    plus lookback-1 columns of history, and later steps are served from that
    block until t leaves it. Other factors take the windowed path, one step
    per block. Each factor keeps one block, so memory is bounded by the live
    pool times lookback times n_assets; drop() frees a factor that left the
    pool. Entries are keyed by name and remember the expression object they
    were computed from, so a name reused for another expression is
    re-evaluated rather than served stale.
    """

    def __init__(self, norm: NormalizedPrices, rm: ReturnMatrix, lookback: int) -> None:
        self.norm = norm
        self.rm = rm
        self.lookback = lookback
        self._last_step = norm.values.shape[1] - 1
        # name -> (expr, panel_equivalent, first step, (steps, n_assets) rows)
        self._blocks: dict[str, tuple[dsl.Expr, bool, int, np.ndarray]] = {}

    def names(self) -> list[str]:
        return sorted(self._blocks)

    def drop(self, name: str) -> None:
        self._blocks.pop(name, None)

    def scores(self, record: FactorRecord, t: int) -> np.ndarray:
        """(n_assets,) raw scores of record at price step t; read-only."""
        entry = self._blocks.get(record.name)
        if entry is None or entry[0] is not record.expr:
            panel = dsl.panel_equivalent(record.expr, self.lookback)
        else:
            _, panel, start, rows = entry
            if start <= t < start + len(rows):
                return rows[t - start]
        rows = self._evaluate(record.expr, panel, t)
        self._blocks[record.name] = (record.expr, panel, t, rows)
        return rows[0]

    def _evaluate(self, expr: dsl.Expr, panel: bool, t: int) -> np.ndarray:
        lookback = self.lookback
        if not lookback <= t <= self._last_step:
            raise ValueError(f"step {t} outside the scorable steps {lookback}..{self._last_step}")
        if panel:
            # The slices stop at the panel's end, which cuts the last block short.
            block = dsl.evaluate_panel(
                expr,
                self.norm.values[:, t - lookback + 1 : t + lookback],
                self.rm.values[:, t - lookback : t + lookback - 1],
            )
            rows = np.ascontiguousarray(block[:, lookback - 1 :].T)
        else:
            prices, returns = window_matrices(self.norm, self.rm, t, lookback)
            rows = dsl.evaluate_cross_section(expr, prices, returns)[None, :]
        rows.flags.writeable = False
        return rows


def filter_factor_versions(values: Mapping[str, float]) -> list[str]:
    """Per base factor, keep the latest version and the best-valued one.

    Ties (shared top version across windows, or equal values) break toward
    the lexicographically smallest name. Returns sorted kept names.
    """
    groups: dict[str, list[tuple[int, str]]] = {}
    for name in values:
        base, _, version = parse_name(name)
        groups.setdefault(base, []).append((-version, name))
    kept: set[str] = set()
    for entries in groups.values():
        kept.add(min(entries)[1])
        kept.add(min((-values[n], n) for _, n in entries)[1])
    return sorted(kept)


def _report_window(t: int, cfg: EvolutionConfig) -> int:
    return max(1, min(t - cfg.lookback, cfg.stats_window))


def update_tracker(
    tracker: PerfTracker,
    pool: Mapping[str, FactorRecord],
    scorer: ScoreCache,
    t: int,
    cfg: EvolutionConfig,
) -> None:
    """Grade at step t the pool factors with created_step <= t: a factor's
    series starts at max(lookback, created_step) in every run and replay."""
    names = sorted(name for name, rec in pool.items() if rec.created_step <= t)
    if not names:
        return
    scores = np.stack([scorer.scores(pool[name], t) for name in names])
    grades = metrics.grade_rows(scores, scorer.rm.values[:, t], cfg.m, cfg.recall_n)
    for name, gross, ic, recall in zip(names, *grades):
        tracker.add(name, t, gross, ic, recall)


def pool_by_name(records: Iterable[FactorRecord]) -> dict[str, FactorRecord]:
    """A starting pool keyed by name; an empty pool or a repeated name fails."""
    pool_map: dict[str, FactorRecord] = {}
    for rec in records:
        if rec.name in pool_map:
            raise ValueError(f"duplicate factor name {rec.name!r}")
        pool_map[rec.name] = rec
    if not pool_map:
        raise ValueError("empty factor pool")
    return pool_map


def check_table(rm: ReturnMatrix, cfg: EvolutionConfig) -> None:
    """Fail before the loop on a config the table cannot serve."""
    if rm.values.shape[1] < cfg.warmup_steps + 2:
        raise ValueError("dataset shorter than warmup_steps + 2 return steps")
    n_assets = rm.values.shape[0]
    for key in ("m", "recall_n"):
        if getattr(cfg, key) > n_assets:
            raise ValueError(
                f"config key {key}={getattr(cfg, key)} exceeds the table's {n_assets} assets"
            )


def replay_tracker(
    pool: Mapping[str, FactorRecord], scorer: ScoreCache, cfg: EvolutionConfig, upto: int
) -> PerfTracker:
    """The tracker a run holds after step upto, rebuilt by grading each factor
    from max(lookback, created_step) through upto."""
    tracker = PerfTracker()
    for t in range(cfg.lookback, upto + 1):
        update_tracker(tracker, pool, scorer, t, cfg)
    return tracker


def rank_by_quality(
    names: Iterable[str], tracker: PerfTracker, cfg: EvolutionConfig, window: int, upto: int
) -> list[str]:
    """The names with tracker history up to upto, version-filtered and
    ordered best first by quality_metric over their trailing window entries."""
    values = tracker.column(names, window, upto, cfg.quality_metric)
    return sorted(filter_factor_versions(values), key=lambda n: (-values[n], n))


def clean_factor_pool(
    pool: Mapping[str, FactorRecord],
    tracker: PerfTracker,
    cfg: EvolutionConfig,
    t: int,
) -> dict[str, FactorRecord]:
    """Prune an oversized pool to its first max(max_pool_size, seed count)
    names in the order: seeds, the non-seed keep_top_n picks by quality
    after version filtering (best first), the rest newest first. Tracker
    entries of removed factors are dropped in place."""
    if len(pool) <= cfg.max_pool_size:
        return dict(pool)
    ranked = rank_by_quality(pool, tracker, cfg, _report_window(t, cfg), t - 1)
    seeds = [name for name in sorted(pool) if pool[name].origin == "seed"]
    picks = [name for name in ranked[: cfg.keep_top_n] if pool[name].origin != "seed"]
    rest = sorted(pool.keys() - {*seeds, *picks}, key=lambda n: (-pool[n].created_step, n))
    survivors = (seeds + picks + rest)[: max(cfg.max_pool_size, len(seeds))]
    for name in pool.keys() - set(survivors):
        tracker.drop(name)
    return {name: pool[name] for name in sorted(survivors)}


def benchmark_gate(
    candidate: FactorRecord,
    tracker: PerfTracker,
    scorer: ScoreCache,
    cfg: EvolutionConfig,
    t: int,
    pool: Mapping[str, FactorRecord],
) -> tuple[bool, str]:
    """Keep/drop a fresh candidate by a trailing-window standalone backtest.

    Dropped only when both legs fail: final value below (1 + t_drop) times
    the 1/N baseline over the same window AND mean RankIC below the median
    of incumbent pool factors. Costs are ignored here (comparison is c=0).
    """
    start = max(cfg.lookback, t - cfg.search_interval + 1)
    scores = np.stack([scorer.scores(candidate, u) for u in range(start, t + 1)])
    # Contiguous rows: a row mean then sums in the same order as the mean of
    # one return column, so base_fv keeps its bits.
    realized = np.ascontiguousarray(scorer.rm.values[:, start : t + 1].T)
    grosses, ics, _ = metrics.grade_rows(scores, realized, cfg.m, cfg.recall_n)
    fv = float(100.0 * np.prod(grosses))
    base_fv = float(100.0 * np.prod(realized.mean(axis=1)))
    mean_ic = float(np.mean(ics))
    incumbents = [
        name
        for name in pool
        if name != candidate.name
        and pool[name].created_step < t
        and tracker.count(name, t) > 0
    ]
    if not incumbents:
        return True, "no incumbents to compare against"
    gated_fv = (1.0 + cfg.t_drop) * base_fv
    if fv >= gated_fv:
        return True, "cleared benchmark"
    # The pool median is needed only when the value leg fails.
    ics = tracker.column(incumbents, cfg.search_interval, t, "mean_rankic")
    pool_median = median(ics.values())
    if mean_ic < pool_median:
        return False, (
            f"final_value {fv:.4f} < gated baseline {gated_fv:.4f}"
            f" and mean rankic {mean_ic:.4f} < pool median {pool_median:.4f}"
        )
    return True, "cleared benchmark"


# --------------------------------------------------------------- checkpoints


@dataclass(frozen=True)
class SearchRecord:
    """Self-contained checkpoint written after each search step: the pool
    snapshot with expressions, trailing-window stat maps, and the scalars
    needed to resume the backtest mid-run."""

    step: int
    pool: tuple[FactorRecord, ...]
    performance: dict[str, dict[str, float]]
    quality: dict[str, dict[str, float]]
    state: dict

    def pool_map(self) -> dict[str, FactorRecord]:
        return {rec.name: rec for rec in self.pool}


def search_record_to_json(record: SearchRecord) -> dict:
    return {
        "step": record.step,
        "pool": [record_to_json(rec) for rec in record.pool],
        "performance": record.performance,
        "quality": record.quality,
        "state": record.state,
    }


def json_object(doc: dict, key: str) -> dict:
    """doc[key], which must be a JSON object."""
    value = doc[key]
    if not isinstance(value, dict):
        raise ValueError(f"{key!r} must be a JSON object, not {type(value).__name__}")
    return value


def _pool_entry(doc: dict, memo: dict) -> FactorRecord:
    """json_to_record(doc), reusing the record of an earlier entry in memo
    whose every field that json_to_record reads is equal. An entry with an
    unhashable field is decoded on its own."""
    try:
        fields = (doc["name"], doc["expr"], doc["base_name"], doc["version"], doc["origin"])
        key = (*fields, tuple(doc["parents"]), doc["created_step"])
        record = memo.get(key)
    except (KeyError, TypeError):
        return json_to_record(doc)
    if record is None:
        record = memo[key] = json_to_record(doc)
    return record


def json_to_search_record(doc: dict, memo: dict | None = None) -> SearchRecord:
    """One checkpoint line; lines decoded with the same memo share the pool
    records they repeat."""
    for key in ("step", "pool", "performance", "quality", "state"):
        if key not in doc:
            raise ValueError(f"checkpoint record missing key {key!r}")
    memo = {} if memo is None else memo
    return SearchRecord(
        step=int(doc["step"]),
        pool=tuple(_pool_entry(item, memo) for item in doc["pool"]),
        performance={k: dict(v) for k, v in json_object(doc, "performance").items()},
        quality={k: dict(v) for k, v in json_object(doc, "quality").items()},
        state=dict(json_object(doc, "state")),
    )


def write_jsonl(docs: Iterable[dict], path: str) -> None:
    """Write one sorted-key JSON object per line."""
    with open(path, "w") as handle:
        for doc in docs:
            handle.write(json.dumps(doc, sort_keys=True) + "\n")


def read_jsonl(path: str, parse: Callable[[dict], object], what: str) -> list:
    """parse() of each non-blank line; a bad line fails naming path:line."""
    records = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                records.append(parse(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: bad {what} record: {exc}") from exc
    return records


def save_checkpoints(records: Sequence[SearchRecord], path: str) -> None:
    write_jsonl(map(search_record_to_json, records), path)


def load_checkpoints(path: str, memo: dict | None = None) -> list[SearchRecord]:
    """Every checkpoint in path; each distinct pool entry is decoded once per
    file, or once across all calls that pass the same memo."""
    memo = {} if memo is None else memo
    return read_jsonl(path, lambda doc: json_to_search_record(doc, memo), "checkpoint")


def _split_stats(row: dict[str, float]) -> tuple[dict[str, float], dict[str, float]]:
    """A PerfTracker.stat row as its (performance, quality) column maps."""
    perf = {c: row[c] for c in metrics.PERFORMANCE_COLUMNS}
    return perf, {c: v for c, v in row.items() if c not in perf}


@dataclass
class RunState:
    """A run between steps: what a checkpoint stores or replays, and the
    next step to run."""

    returns: ReturnMatrix
    scorer: ScoreCache
    pool: dict[str, FactorRecord]
    tracker: PerfTracker
    value: float = 100.0
    baseline: float = 100.0
    prev: PortfolioWeights | None = None
    t: int = 0


def start_run(
    table: PriceTable,
    cfg: EvolutionConfig,
    pool: Iterable[FactorRecord] | None = None,
    resume_from: SearchRecord | None = None,
) -> RunState:
    """The one place a run is built: fresh from pool (the seed library over
    cfg.seed_windows when None), or after the checkpoint resume_from, whose
    tracker is rebuilt by deterministic replay."""
    rm = to_relative_returns(table)
    check_table(rm, cfg)
    scorer = ScoreCache(to_normalized_prices(rm), rm, cfg.lookback)
    if resume_from is None:
        pool_map = pool_by_name(seed_factors(cfg.seed_windows) if pool is None else pool)
        return RunState(rm, scorer, pool_map, PerfTracker())
    pool_map = resume_from.pool_map()
    state = resume_from.state
    raw_prev = state.get("prev_weights")
    prev = (
        None
        if raw_prev is None
        else PortfolioWeights({int(i): float(w) for i, w in raw_prev}, int(state.get("prev_t", -1)))
    )
    tracker = replay_tracker(pool_map, scorer, cfg, resume_from.step)
    value, baseline = float(state["portfolio_value"]), float(state["baseline_value"])
    return RunState(rm, scorer, pool_map, tracker, value, baseline, prev, resume_from.step + 1)


def _make_search_record(run: RunState, cfg: EvolutionConfig, t: int, phase: str) -> SearchRecord:
    """The checkpoint after step t; stats cover the pool factors graded so far."""
    names = sorted(run.pool)
    stats = run.tracker.stat(names, _report_window(t, cfg), t, cfg.recall_n)
    parts = {n: _split_stats(stats[n]) for n in names if n in stats}
    prev = run.prev
    return SearchRecord(
        step=t,
        pool=tuple(run.pool[name] for name in names),
        performance={n: perf for n, (perf, _) in parts.items()},
        quality={n: qual for n, (_, qual) in parts.items()},
        state={
            "portfolio_value": run.value,
            "baseline_value": run.baseline,
            "prev_weights": None
            if prev is None
            else [[int(i), float(w)] for i, w in sorted(prev.weights.items())],
            "prev_t": -1 if prev is None else prev.t,
            "phase": phase,
        },
    )


# ----------------------------------------------------------------- main loop


@dataclass(frozen=True)
class EvolutionResult:
    pool: tuple[FactorRecord, ...]
    ledger: tuple[LedgerRow, ...]
    records: tuple[SearchRecord, ...]
    tracker: PerfTracker


def _build_request(
    pool: Mapping[str, FactorRecord], tracker: PerfTracker, cfg: EvolutionConfig, t: int
) -> GenerationRequest:
    top = rank_by_quality(pool, tracker, cfg, cfg.search_interval, t - 1)[: cfg.k_top]
    stats = tracker.stat(top, cfg.search_interval, t - 1, cfg.recall_n)
    tops = tuple(TopFactor(pool[n], *_split_stats(stats[n])) for n in top)
    library = tuple(pool[n] for n in sorted(pool) if pool[n].origin == "seed")
    return GenerationRequest(
        step=t,
        top_factors=tops,
        library_factors=library,
        m_candidates=cfg.m_candidates,
        pool_records=tuple(pool[n] for n in sorted(pool)),
        rng_seed=cfg.rng_seed,
        recall_n=cfg.recall_n,
    )


def composite_scores(
    pool: Mapping[str, FactorRecord],
    tracker: PerfTracker,
    scorer: ScoreCache,
    cfg: EvolutionConfig,
    t: int,
) -> list[np.ndarray]:
    """Normalized score rows at step t of the top k_top factors, best first
    by rank_by_quality over the trailing search_interval entries; empty when
    no factor has been graded yet."""
    used = rank_by_quality(pool, tracker, cfg, cfg.search_interval, t)[: cfg.k_top]
    return [dsl.normalize_scores(scorer.scores(pool[n], t)) for n in used]


def trade(
    rows: Sequence[np.ndarray],
    realized: np.ndarray,
    prev: PortfolioWeights | None,
    cfg: EvolutionConfig,
    cost_model: CostModel,
    t: int,
) -> tuple[PortfolioWeights | None, float, float, float, PortfolioWeights | None]:
    """One live step: blend rows into a composite, hold its top-m assets
    weighted by cfg.weighting, and earn the realized returns net of costs.

    Returns (weights, net gross return, turnover, cost, weights drifted by
    the realized returns for the next step's turnover). With no rows, or when
    the step raises ValueError or RuntimeError, it falls back to the market:
    (None, market-average return, 0.0, 0.0, None), which liquidates holdings.
    Only a raised step logs a warning; the ledger's fallback phase records
    both. Any other exception is a bug and propagates.
    """
    if not len(rows):
        return None, portfolio.fallback_market_return(realized), 0.0, 0.0, None
    try:
        composite = portfolio.aggregate_scores(rows)
        sel = portfolio.select_top_m(composite, cfg.m)
        if cfg.weighting == "equal":
            weights = portfolio.equal_weights(sel, t)
        elif cfg.weighting == "positive_score":
            weights = portfolio.positive_score_weights(sel, composite, t)
        else:
            weights = portfolio.temperature_weights(sel, composite, cfg.tau, t)
        r_t, turn, fee = portfolio.step_return(weights, realized, prev, cost_model)
        return weights, r_t, turn, fee, portfolio.drift_weights(weights, realized)
    except (ValueError, RuntimeError) as exc:
        logger.warning("step %d: live step failed (%s); market fallback", t, exc)
        return None, portfolio.fallback_market_return(realized), 0.0, 0.0, None


def run_evolution(
    table: PriceTable,
    cfg: EvolutionConfig,
    gen: Generator | None = None,
    pool: Iterable[FactorRecord] | None = None,
    resume_from: SearchRecord | None = None,
) -> EvolutionResult:
    """Full search-and-backtest loop over the table's steps.

    gen=None disables generation entirely (static-pool backtest). Generator
    failures are logged and skipped; a failed live step falls back to the
    market inside trade. resume_from restarts after the given checkpoint and
    returns only the remaining ledger rows (see start_run).
    """
    run = start_run(table, cfg, pool, resume_from)
    rm, scorer, tracker = run.returns, run.scorer, run.tracker
    cost_model = CostModel(cfg.cost_rate)
    forbidden = ForbiddenTokens(tok for tok in (*table.asset_ids, *table.dates) if len(tok) >= 3)
    rows: list[LedgerRow] = []
    checkpoints: list[SearchRecord] = []

    for t in range(run.t, rm.values.shape[1]):
        realized = rm.values[:, t]
        rbar = portfolio.fallback_market_return(realized)
        searching = (
            gen is not None and t > cfg.warmup_steps and t % cfg.search_interval == 0
        )
        new_names: list[str] = []
        if searching:
            kept = clean_factor_pool(run.pool, tracker, cfg, t)
            for name in run.pool.keys() - kept.keys():
                scorer.drop(name)
            run.pool = kept
            req = _build_request(run.pool, tracker, cfg, t)
            prompt = build_prompt(req)
            leaks = scan_for_leakage(prompt["system"] + "\n" + prompt["user"], forbidden)
            if leaks:
                raise RuntimeError(f"prompt leaks dataset tokens: {leaks[:5]}")
            try:
                result = gen(req)
            except Exception as exc:  # noqa: BLE001 - generator failure is non-fatal
                logger.warning("generator failed at step %d: %s", t, exc)
                result = GenerationResult((), 0, ({"error": str(exc)},), False)
            for cand in result.candidates[: cfg.m_candidates]:
                ok, reason = validate_candidate(cand, run.pool)
                if not ok:
                    logger.info("step %d: rejected %s (%s)", t, cand.name, reason)
                    continue
                cand = reset_created_step(cand, t)
                run.pool[cand.name] = cand
                new_names.append(cand.name)
        if t >= cfg.lookback:
            incumbents = {n: r for n, r in run.pool.items() if n not in new_names}
            update_tracker(tracker, incumbents, scorer, t, cfg)
        # A candidate's first score request is the gate's, at the start of
        # its trailing window; the block it anchors also serves step t.
        admitted: dict[str, FactorRecord] = {}
        for name in new_names:
            keep, why = benchmark_gate(run.pool[name], tracker, scorer, cfg, t, run.pool)
            if keep:
                admitted[name] = run.pool[name]
            else:
                logger.info("step %d: gated out %s (%s)", t, name, why)
                del run.pool[name]
                scorer.drop(name)
        update_tracker(tracker, admitted, scorer, t, cfg)

        weights, r_t, turn, fee, phase = None, rbar, 0.0, 0.0, "warmup"
        if t > cfg.warmup_steps:
            top = composite_scores(run.pool, tracker, scorer, cfg, t)
            weights, r_t, turn, fee, run.prev = trade(top, realized, run.prev, cfg, cost_model, t)
            phase = "fallback" if weights is None else "live"
        held = {} if weights is None else weights.weights
        run.value *= r_t
        run.baseline *= rbar
        run.t = t + 1
        rows.append(
            LedgerRow(
                date=rm.dates[t + 1],
                phase=phase,
                portfolio_value=run.value,
                baseline_value=run.baseline,
                step_return=r_t,
                baseline_return=rbar,
                turnover=turn,
                cost=fee,
                selected_assets=tuple(table.asset_ids[i] for i in held),
                weights=tuple(held.values()),
            )
        )
        if searching:
            checkpoints.append(_make_search_record(run, cfg, t, phase))

    final_pool = tuple(run.pool[name] for name in sorted(run.pool))
    return EvolutionResult(final_pool, tuple(rows), tuple(checkpoints), tracker)
