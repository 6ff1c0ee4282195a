"""Evolutionary factor search: warm-up, periodic candidate generation,
benchmark gating, pool pruning, and the rolling sparse-portfolio backtest.

Timeline convention: step t forms scores from prices up to column t and
realizes the gross return landing on date t+1, rm.values[:, t]. Steps
0..warmup_steps earn the equal-weight market average while factors
accumulate history; live trading starts at warmup_steps+1. Generation fires
at live steps divisible by search_interval.

`step` makes step t's decisions for evolve, backtest and the factor sweep, in
order: at a search step, prune, prompt, scan for leaks, generate, validate;
from lookback on, grade the pool; gate the batch, admit and grade the kept
candidates; after warm-up, rank the top k_top factors into composite rows.

What each decision at step t reads, as the loop runs today:
- step t's grade of a factor scores it against rm.values[:, t];
- the composite's factor ranking and the benchmark gate read grades through
  t, so they see the return being traded (a look-ahead);
- pruning and the generation prompt read grades through t-1.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from functools import cache
from operator import itemgetter
from statistics import median
from typing import Callable, Iterable, Mapping, Sequence

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
from .jsonfields import INTEGER, NUMBER, OBJECT, OBJECTS, WEIGHTS, check, field_error
from .market_data import (
    PriceTable,
    ReturnMatrix,
    to_normalized_prices,
    to_relative_returns,
    window_matrices,
)
from .portfolio import LedgerRow, PortfolioWeights
from .seeds import FactorRecord, json_to_record, record_to_json, seed_factors

logger = logging.getLogger(__name__)

WEIGHTINGS = ("equal", "positive_score", "temperature")
QUALITY_METRICS = ("final_value", "mean_rankic")
# Score elements per grade_rows call that grades a block. Bigger calls grade
# no faster and hold bigger temporaries: one call for the backtest
# workload's 42 factors x 5 steps x 200 assets raised peak RSS by 1.4 MB.
GRADE_CHUNK = 16_000

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
    """Per-factor standalone evaluation series on a contiguous step axis: the
    run's one store of grades. write appends a block of steps to some names'
    rows and marks the last step the run has reached; no read sees past it.

    Each entry holds the factor's own top-m equal-weight gross return, its
    RankIC against next-step returns, and recall@N, kept in one float64 block
    of shape (3, rows, entries): a name's row holds one entry per step from
    its first step on. drop frees the row for the next new name, so memory
    follows the live pool. stat computes every column over trailing windows
    of entries up to a given step, and column the one a ranking reads, each
    from one gather of every name's window into a block ordered by entry
    count.
    """

    def __init__(self) -> None:
        self.reached = -1  # the last step written; every read stops there
        self._rows: dict[str, tuple[int, int, int]] = {}  # name -> (row, first step, step after its last entry)
        self._free: list[int] = []
        self._values = np.empty((3, 0, 0))

    def write(self, names: Sequence[str], t: int, grades: np.ndarray) -> None:
        """Append grades[:, i], the gross, rankic and recall of names[i] at
        steps t, t+1, ..., to its row in one indexed write, the one write
        path, then mark t reached. Each name is new, and its row starts at t,
        or has entries through t - 1 exactly; t never falls behind the
        reached step. A rejected write changes nothing."""
        rows = self._rows
        if t < self.reached or len(set(names)) < len(names) or any(rows[n][2] != t for n in names if n in rows):
            raise ValueError(
                f"a write at step {t} must not fall behind step {self.reached},"
                " must name each factor once and must continue each row at its next step"
            )
        if names:
            for name in names:  # with no free row, every allocated row is live
                row, first, _ = rows.get(name) or (self._free.pop() if self._free else len(rows), t, t)
                rows[name] = (row, first, t + grades.shape[2])
            index = np.array([rows[n][:2] for n in names])
            cols = t - index[:, 1:] + np.arange(grades.shape[2])
            _, have, entries = self._values.shape
            top, n = index[:, 0].max(), cols[:, -1].max()
            if top >= have or n >= entries:
                grown = np.empty((3, max(have, top + 1), max(entries, 2 * n + 16)))
                grown[:, :have, :entries] = self._values
                self._values = grown
            self._values[:, index[:, :1], cols] = grades
        self.reached = t

    def names(self) -> list[str]:
        return sorted(self._rows)

    def count(self, name: str, upto: int | None = None) -> int:
        """name's entries through step upto, or through the reached step."""
        _, first, stop = self._rows.get(name, (0, 0, 0))
        last = self.reached if upto is None else min(upto, self.reached)
        return max(0, min(stop, last + 1) - first)

    def drop(self, name: str) -> None:
        if (entry := self._rows.pop(name, None)) is not None:
            self._free.append(entry[0])

    def series(self, name: str) -> tuple[list[int], list[float], list[float], list[float]]:
        n = self.count(name)
        row, first, _ = self._rows.get(name, (0, 0, 0))
        values = self._values[:, row, :n].tolist() if n else ([], [], [])
        return (list(range(first, first + n)), *values)

    def _gather(self, names: Iterable[str], window: int, upto: int) -> tuple[tuple, tuple, np.ndarray]:
        """(names, their counts n, C-contiguous (k, 3, width) block): each
        name's last n = min(window, entries up to step upto) entries of gross,
        rankic and recall at the end of its row, left-padded with 1.0, rows
        in increasing count order, leaving out names with none."""
        found = [(min(window, hi), name, self._rows[name][0], hi) for name in names if (hi := self.count(name, upto))]
        if not found:
            return (), (), np.empty((0, 3, 0))
        counts, found_names, rows, ends = zip(*sorted(found, key=itemgetter(0)))
        cols = np.add.outer(ends, np.arange(-counts[-1], 0))
        # Array indices on every axis give a new row-major (k, 3, width) block.
        block = self._values[np.arange(3)[:, None], np.array(rows)[:, None, None], cols[:, None, :]]
        np.copyto(block, 1.0, where=(cols < np.subtract(ends, counts)[:, None])[:, None, :])
        return found_names, counts, block

    def stat(
        self, names: Iterable[str], window: int, upto: int, recall_n: int
    ) -> dict[str, dict[str, float]]:
        """Every metrics.window_stats column over each name's last `window`
        entries up to step upto, leaving out names with none, from one
        gathered block."""
        found, counts, block = self._gather(names, window, upto)
        columns = metrics.window_stats(block, counts, recall_n)
        rows = zip(*(values.tolist() for values in columns.values()))
        return {name: dict(zip(columns, row)) for name, row in zip(found, rows)}

    def column(self, names: Iterable[str], window: int, upto: int, metric: str) -> dict[str, float]:
        """stat's column for a metric of QUALITY_METRICS alone, bit for bit,
        from the same gathered block."""
        if metric not in QUALITY_METRICS:
            raise ValueError(f"metric {metric!r} must be one of {QUALITY_METRICS}")
        found, counts, block = self._gather(names, window, upto)
        if metric == "final_value":
            column = 100.0 * np.prod(block[:, 0], axis=1)
        else:
            column = np.empty(len(found))
            for rows, n in metrics.count_runs(counts):
                column[rows] = block[rows, 1, block.shape[-1] - n :].mean(axis=-1)
        return dict(zip(found, column.tolist()))


class ScoreCache:
    """Raw factor scores by step over one return matrix: the run's one scorer.
    It derives the normalized prices from rm, ranks every step's realized
    returns once, and grades factors over a run of steps; it keeps scores
    only, and the tracker keeps the grades.

    Each factor keeps one block of rows. A read of steps t..stop-1 is served
    from it when the block came from the record's expression object and
    covers those steps; otherwise one new block from t replaces it. A factor
    that dsl.panel_equivalent admits gets max(lookback, stop - t) steps, cut
    at the last price step, in one dsl.evaluate_panel call over their price
    columns plus the rf-1 columns of history its dsl.receptive_field rf
    reads; another factor gets the read's steps, each scored on its own
    window. drop() frees a factor that left the pool.
    """

    def __init__(self, rm: ReturnMatrix, lookback: int) -> None:
        self.norm = to_normalized_prices(rm)
        self.rm = rm
        self.lookback = lookback
        # name -> (expr, receptive field or 0 off the panel path, first step, (steps, n_assets) rows)
        self._blocks: dict[str, tuple[dsl.Expr, int, int, np.ndarray]] = {}
        self.realized = metrics.rank_realized(rm.values.T)  # every step, ranked once

    def names(self) -> list[str]:
        return sorted(self._blocks)

    def drop(self, name: str) -> None:
        self._blocks.pop(name, None)

    def scores(self, record: FactorRecord, t: int) -> np.ndarray:
        """(n_assets,) raw scores of record at price step t; read-only."""
        return self.rows(record, t, t + 1)[0]

    def rows(self, record: FactorRecord, t: int, stop: int) -> np.ndarray:
        """(stop - t, n_assets) raw scores of record at price steps t..stop-1,
        in one cache read; read-only."""
        expr, rf, start, rows = self._blocks.get(record.name) or (None, 0, t, ())
        if expr is not record.expr:  # a new expression starts with no rows
            expr, rows = record.expr, ()
            rf = dsl.receptive_field(expr) if dsl.panel_equivalent(expr, self.lookback) else 0
        if not start <= t < stop <= start + len(rows):  # the one refill: a new block from t
            last = self.norm.shape[1] - 1
            if not self.lookback <= t < stop <= last + 1:
                raise ValueError(f"steps {t}..{stop - 1} outside the scorable steps {self.lookback}..{last}")
            start, rows = t, self._evaluate(expr, rf, t, max(self.lookback, stop - t) if rf else stop - t)
            self._blocks[record.name] = (expr, rf, start, rows)
        return rows[t - start : stop - start]

    def grade(self, records: Sequence[FactorRecord], t: int, stop: int, m: int, recall_n: int) -> np.ndarray:
        """(3, len(records), stop - t) gross, rankic and recall of records at
        steps t..stop-1, reading each record's rows in order, GRADE_CHUNK score
        elements per metrics.grade_rows call by step index into self.realized."""
        steps, grades = np.arange(t, stop), np.empty((3, len(records), stop - t))
        per = max(1, GRADE_CHUNK // (len(steps) * self.rm.values.shape[0]))  # factors per call
        for i in range(0, len(records), per):
            group = records[i : i + per]
            scores = np.concatenate([self.rows(rec, t, stop) for rec in group])
            graded = metrics.grade_rows(scores, self.realized, m, recall_n, np.tile(steps, len(group)))
            grades[:, i : i + per] = np.reshape(graded, (3, len(group), -1))
        return grades

    def _evaluate(self, expr: dsl.Expr, rf: int, t: int, steps: int) -> np.ndarray:
        """(steps, n_assets) read-only rows from step t, cut at the last price step."""
        if rf:
            block = dsl.evaluate_panel(
                expr,
                self.norm[:, t - rf + 1 : t + steps],
                self.rm.values[:, t - rf : t + steps - 1],
            )
            rows = block[:, rf - 1 :].T.copy()  # a view would keep the history columns alive
        else:
            windows = (window_matrices(self.norm, self.rm, s, self.lookback) for s in range(t, t + steps))
            rows = np.stack([dsl.evaluate_cross_section(expr, *window) for window in windows])
        rows.flags.writeable = False
        return rows


def filter_factor_versions(values: Mapping[str, float], pool: Mapping[str, FactorRecord]) -> list[str]:
    """Per base factor, keep the latest version and the best-valued one.

    Names group by their pool record's base_name and order by its version.
    Ties (shared top version across windows, or equal values) break toward
    the lexicographically smallest name. Returns sorted kept names.
    """
    groups: dict[str, list[tuple[int, str]]] = {}
    for name in values:
        rec = pool[name]
        groups.setdefault(rec.base_name, []).append((-rec.version, name))
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
    """Grade the pool factors with created_step <= t and no entry at t yet
    through the end of t's block [k*I, (k+1)*I) of the search grid (I =
    search_interval, cut to lookback and the run's end), in one scorer.grade
    call and one tracker write that marks t reached. The pool changes only at
    a block's first step, where every factor is graded; at a later step only
    a factor the tracker lacks is, so each is graded once per block and its
    series starts at max(lookback, created_step) in every run and replay."""
    first = t - t % cfg.search_interval
    start, stop = max(cfg.lookback, first), min(first + cfg.search_interval, scorer.rm.values.shape[1])
    names = sorted(n for n, rec in pool.items() if rec.created_step <= t and (t == start or not tracker.count(n)))
    tracker.write(names, t, scorer.grade([pool[n] for n in names], t, stop, cfg.m, cfg.recall_n))


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
    pool: Mapping[str, FactorRecord], tracker: PerfTracker, cfg: EvolutionConfig, window: int, upto: int
) -> list[str]:
    """The pool names with tracker history up to upto, version-filtered and
    ordered best first by quality_metric over their trailing window entries."""
    values = tracker.column(pool, window, upto, cfg.quality_metric)
    return sorted(filter_factor_versions(values, pool), key=lambda n: (-values[n], n))


def clean_factor_pool(
    pool: Mapping[str, FactorRecord],
    tracker: PerfTracker,
    cfg: EvolutionConfig,
    t: int,
) -> dict[str, FactorRecord]:
    """The survivors of pruning an oversized pool to its first
    max(max_pool_size, seed count) names in the order: seeds, the non-seed
    keep_top_n picks by quality after version filtering (best first), the
    rest newest first. Reads pool and tracker and changes neither."""
    if len(pool) <= cfg.max_pool_size:
        return dict(pool)
    ranked = rank_by_quality(pool, tracker, cfg, _report_window(t, cfg), t - 1)
    seeds = [name for name in sorted(pool) if pool[name].origin == "seed"]
    picks = [name for name in ranked[: cfg.keep_top_n] if pool[name].origin != "seed"]
    rest = sorted(pool.keys() - {*seeds, *picks}, key=lambda n: (-pool[n].created_step, n))
    survivors = (seeds + picks + rest)[: max(cfg.max_pool_size, len(seeds))]
    return {name: pool[name] for name in sorted(survivors)}


def benchmark_gate(
    fv: float, mean_ic: float, gated_fv: float, pool_median: Callable[[], float] | None
) -> tuple[bool, str]:
    """Keep/drop one fresh candidate by a trailing-window standalone
    backtest, given its final value fv and mean RankIC mean_ic.

    Dropped only when both legs fail: fv below gated_fv, (1 + t_drop) times
    the 1/N baseline over the same window, AND mean_ic below pool_median(),
    the median of the pool factors graded through t, which is read only when
    the value leg fails. pool_median is None when no admitted factor is
    graded yet, and then the candidate is kept.
    """
    if pool_median is None:
        return True, "no incumbents to compare against"
    if fv >= gated_fv:
        return True, "cleared benchmark"
    if mean_ic < pool_median():
        return False, (
            f"final_value {fv:.4f} < gated baseline {gated_fv:.4f}"
            f" and mean rankic {mean_ic:.4f} < pool median {pool_median():.4f}"
        )
    return True, "cleared benchmark"


def gate_batch(
    batch: Sequence[FactorRecord],
    tracker: PerfTracker,
    scorer: ScoreCache,
    cfg: EvolutionConfig,
    t: int,
    pool: Mapping[str, FactorRecord],
) -> list[tuple[bool, str]]:
    """benchmark_gate's (keep, reason) for each fresh candidate of a step's
    batch, in batch order; pool holds admitted factors only. Costs are
    ignored here (comparison is c=0). The candidates are graded together,
    and the baseline, the incumbents and their median are computed once per
    batch, the median only if a value leg fails.
    """
    start = max(cfg.lookback, t - cfg.search_interval + 1)
    grosses, ics, _ = scorer.grade(batch, start, t + 1, cfg.m, cfg.recall_n)
    # Contiguous rows: a row mean then sums in the same order as the mean of
    # one return column, so base_fv keeps its bits.
    base_fv = float(100.0 * np.prod(scorer.realized.returns[start : t + 1].mean(axis=1)))
    incumbents = [name for name in pool if tracker.count(name, t) > 0]
    pool_median = cache(lambda: median(tracker.column(incumbents, cfg.search_interval, t, "mean_rankic").values()))
    gated_fv = (1.0 + cfg.t_drop) * base_fv
    fvs, mean_ics = (100.0 * np.prod(grosses, axis=1)).tolist(), np.mean(ics, axis=1).tolist()
    return [benchmark_gate(fv, ic, gated_fv, pool_median if incumbents else None) for fv, ic in zip(fvs, mean_ics)]


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
    source: str = field(default="", compare=False)  # the path:line it was read from, if any

    def pool_map(self) -> dict[str, FactorRecord]:
        return {rec.name: rec for rec in self.pool}


def search_record_to_json(record: SearchRecord, entry: Callable = record_to_json) -> dict:
    """A checkpoint line's document, each pool entry as entry(record) gives it."""
    return {
        "step": record.step,
        "pool": [entry(rec) for rec in record.pool],
        "performance": record.performance,
        "quality": record.quality,
        "state": record.state,
    }


def _pool_entry(doc: dict, memo: dict) -> FactorRecord:
    """json_to_record(doc, memo), reusing the record of an earlier entry in
    memo whose every field that json_to_record reads is equal and of the same
    type. An entry with an unhashable field is decoded on its own. The same
    memo maps expression text to its tree, so entries that differ in any
    other field share one parse."""
    try:
        version, parents, step = doc["version"], doc["parents"], doc["created_step"]
        key = (doc["name"], doc["expr"], doc["base_name"], version, doc["origin"],
               tuple(parents), step, type(version), type(parents), type(step))
        record = memo.get(key)
    except (KeyError, TypeError):
        return json_to_record(doc, memo)
    if record is None:
        record = memo[key] = json_to_record(doc, memo)
    return record


_CHECKPOINT_FIELDS = {"step": INTEGER, "pool": OBJECTS, "performance": OBJECT, "quality": OBJECT, "state": OBJECT}


def json_to_search_record(doc: dict, memo: dict | None = None, source: str = "") -> SearchRecord:
    """One checkpoint line, read from source; lines decoded with the same memo share the pool
    records and expression trees they repeat. performance and quality must name the same pool
    factors and hold the numeric final_value and mean_rankic a merge reads."""
    check(doc, _CHECKPOINT_FIELDS)
    memo = {} if memo is None else memo
    pool = tuple(_pool_entry(item, memo) for item in doc["pool"])
    if doc["performance"].keys() != doc["quality"].keys():
        raise ValueError("'performance' and 'quality' name different factors")
    names = {rec.name for rec in pool}
    for key, column in (("performance", "final_value"), ("quality", "mean_rankic")):
        for name, stats in doc[key].items():
            if name not in names:
                raise ValueError(f"{key} entry {name!r} is not in 'pool'")
            if type(stats) is not dict:
                raise field_error(f"{key} entry {name!r}", stats, OBJECT[0])
            if type(stats.get(column)) not in (float, int):  # JSON true/false is no number here
                lack = f"has a non-numeric {column!r}: {stats[column]!r}" if column in stats else f"lacks {column!r}"
                raise ValueError(f"{key} entry {name!r} {lack}")
    maps = ({k: dict(v) for k, v in doc[key].items()} for key in ("performance", "quality"))
    return SearchRecord(doc["step"], pool, *maps, dict(doc["state"]), source)


# json.dumps(o, sort_keys=True), without building an encoder per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def checkpoint_line(record: SearchRecord, memo: dict[int, tuple[FactorRecord, str]]) -> str:
    """json.dumps(search_record_to_json(record), sort_keys=True), byte for
    byte: the document's values encoded one by one and joined in key order
    with the same separators. A pool entry is encoded once per memo, which
    keeps it by id together with the record itself, so an id is never reused."""

    def entry(rec: FactorRecord) -> str:
        if id(rec) not in memo:
            memo[id(rec)] = rec, _encode(record_to_json(rec))
        return memo[id(rec)][1]

    # Every value is encoded here but the pool's, whose entries come encoded.
    doc = search_record_to_json(record, entry)
    text = {key: f"[{', '.join(value)}]" if key == "pool" else _encode(value) for key, value in doc.items()}
    return "{" + ", ".join(f"{_encode(key)}: {text[key]}" for key in sorted(text)) + "}"


def save_checkpoints(records: Sequence[SearchRecord], path: str) -> None:
    """One checkpoint_line per record, sharing one memo."""
    memo: dict[int, tuple[FactorRecord, str]] = {}
    with open(path, "w") as handle:
        handle.writelines(checkpoint_line(record, memo) + "\n" for record in records)


def load_checkpoints(path: str, memo: dict | None = None) -> list[SearchRecord]:
    """Every checkpoint in path, one per non-blank line; a bad line fails
    naming path:line. Each distinct pool entry is decoded, and each distinct
    expression text parsed, once per file, or once across all calls that
    pass the same memo."""
    memo = {} if memo is None else memo
    records = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                records.append(json_to_search_record(json.loads(line), memo, f"{path}:{line_no}"))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: bad checkpoint record: {exc}") from exc
    return records


def _split_stats(row: dict[str, float]) -> tuple[dict[str, float], dict[str, float]]:
    """A PerfTracker.stat row as its (performance, quality) column maps."""
    perf = {c: row[c] for c in metrics.PERFORMANCE_COLUMNS}
    return perf, {c: v for c, v in row.items() if c not in perf}


@dataclass
class RunState:
    """A run between steps: what a checkpoint stores or replays, and the next
    step t to run. The returns are scorer.rm; prev is None or the weights
    formed at t - 1, drifted. drop is the one way a factor leaves the pool."""

    scorer: ScoreCache
    pool: dict[str, FactorRecord]
    tracker: PerfTracker
    forbidden: ForbiddenTokens  # the table's asset ids and dates, which no prompt may name
    value: float = 100.0
    baseline: float = 100.0
    prev: PortfolioWeights | None = None
    t: int = 0

    def drop(self, names: Iterable[str]) -> None:
        """Evict factors from the pool, the tracker and the score cache."""
        for name in sorted(names):
            self.pool.pop(name, None)
            self.tracker.drop(name)
            self.scorer.drop(name)


_STATE_FIELDS = {"portfolio_value": NUMBER, "baseline_value": NUMBER, "prev_weights": WEIGHTS}


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
    scorer = ScoreCache(rm, cfg.lookback)
    forbidden = ForbiddenTokens((*table.asset_ids, *table.dates))
    if resume_from is None:
        pool_map = pool_by_name(seed_factors(cfg.seed_windows) if pool is None else pool)
        return RunState(scorer, pool_map, PerfTracker(), forbidden)
    state, last = resume_from.state, rm.values.shape[1] - 1
    where = f"{resume_from.source}: resume state" if resume_from.source else "resume state"
    try:
        if not 0 <= resume_from.step <= last:
            raise field_error("step", resume_from.step, f"a step of the table, 0..{last}")
        raw = check(state, _STATE_FIELDS)["prev_weights"]
        if raw is not None and not all(0 <= i < rm.values.shape[0] for i, _ in raw):
            raise field_error("prev_weights", raw, WEIGHTS[0])
        try:
            prev = None if raw is None else PortfolioWeights({i: float(w) for i, w in raw})
        except ValueError as exc:
            raise field_error("prev_weights", raw, f"a portfolio: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None
    pool_map = resume_from.pool_map()
    tracker = replay_tracker(pool_map, scorer, cfg, resume_from.step)
    value, baseline = float(state["portfolio_value"]), float(state["baseline_value"])
    return RunState(scorer, pool_map, tracker, forbidden, value, baseline, prev, resume_from.step + 1)


def _make_search_record(run: RunState, cfg: EvolutionConfig, t: int, phase: str) -> SearchRecord:
    """The checkpoint after step t; stats cover the pool factors graded so far.
    run.prev, when set, holds the weights formed at t, so prev_t is t."""
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
            "prev_t": -1 if prev is None else t,
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
    by rank_by_quality over the trailing search_interval entries, normalized
    as one block; empty when no factor has been graded yet."""
    used = rank_by_quality(pool, tracker, cfg, cfg.search_interval, t)[: cfg.k_top]
    return list(dsl.normalize_scores(np.stack([scorer.scores(pool[n], t) for n in used]))) if used else []


def trade(
    rows: Sequence[np.ndarray],
    realized: np.ndarray,
    prev: PortfolioWeights | None,
    cfg: EvolutionConfig,
    t: int,
) -> tuple[PortfolioWeights | None, float, float, float, PortfolioWeights | None]:
    """One live step: hold the composite's top-m assets weighted by
    cfg.weighting; earn the realized returns less cfg.cost_rate * turnover.

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
            weights = portfolio.equal_weights(sel)
        elif cfg.weighting == "positive_score":
            weights = portfolio.positive_score_weights(sel, composite)
        else:
            weights = portfolio.temperature_weights(sel, composite, cfg.tau)
        r_t, turn, fee = portfolio.step_return(weights, realized, prev, cfg.cost_rate)
        return weights, r_t, turn, fee, portfolio.drift_weights(weights, realized)
    except (ValueError, RuntimeError) as exc:
        logger.warning("step %d: live step failed (%s); market fallback", t, exc)
        return None, portfolio.fallback_market_return(realized), 0.0, 0.0, None


def step(run: RunState, cfg: EvolutionConfig, t: int, gen: Generator | None = None) -> list[np.ndarray] | None:
    """Step t's decisions in the module notes' order: the composite rows step t
    trades, or None in warm-up. gen, passed at search steps only, proposes a
    batch that stays out of run.pool until the gate admits it."""
    batch: dict[str, FactorRecord] = {}  # validated, not yet gated
    if gen is not None:
        run.drop(run.pool.keys() - clean_factor_pool(run.pool, run.tracker, cfg, t).keys())
        req = _build_request(run.pool, run.tracker, cfg, t)
        prompt = build_prompt(req)
        leaks = scan_for_leakage(prompt["system"] + "\n" + prompt["user"], run.forbidden)
        if leaks:
            raise RuntimeError(f"prompt leaks dataset tokens: {leaks[:5]}")
        try:
            result = gen(req)
        except Exception as exc:  # noqa: BLE001 - generator failure is non-fatal
            logger.warning("generator failed at step %d: %s", t, exc)
            result = GenerationResult((), 0, ({"error": str(exc)},))
        for cand in result.candidates[: cfg.m_candidates]:
            ok, reason = validate_candidate(cand, {**run.pool, **batch})
            if not ok:
                logger.info("step %d: rejected %s (%s)", t, cand.name, reason)
                continue
            if cand.created_step != t:
                cand = replace(cand, created_step=t, validated=True)
            batch[cand.name] = cand
    if t >= cfg.lookback:
        update_tracker(run.tracker, run.pool, run.scorer, t, cfg)
    if batch:
        # A candidate's first score request is the gate's, at the start of
        # its trailing window; the block it anchors also serves step t.
        decisions = gate_batch(list(batch.values()), run.tracker, run.scorer, cfg, t, run.pool)
        admitted = {name: cand for (name, cand), (keep, _) in zip(batch.items(), decisions) if keep}
        for name, (keep, why) in zip(batch, decisions):
            if not keep:
                logger.info("step %d: gated out %s (%s)", t, name, why)
        run.drop(batch.keys() - admitted.keys())
        run.pool.update(admitted)
        if admitted:
            update_tracker(run.tracker, admitted, run.scorer, t, cfg)
    return composite_scores(run.pool, run.tracker, run.scorer, cfg, t) if t > cfg.warmup_steps else None


def run_evolution(
    table: PriceTable,
    cfg: EvolutionConfig,
    gen: Generator | None = None,
    pool: Iterable[FactorRecord] | None = None,
    resume_from: SearchRecord | None = None,
) -> EvolutionResult:
    """Full search-and-backtest loop over the table's steps: per step, step's
    decisions, the trade, the ledger row and, after a search, a checkpoint.

    gen=None disables generation (static-pool backtest); a failed generator
    call is logged and skipped, a failed live step falls back to the market
    in trade. resume_from restarts after the given checkpoint and returns
    only the remaining ledger rows (see start_run).
    """
    run = start_run(table, cfg, pool, resume_from)
    rm = run.scorer.rm
    rows: list[LedgerRow] = []
    checkpoints: list[SearchRecord] = []

    for t in range(run.t, rm.values.shape[1]):
        realized = rm.values[:, t]
        rbar = portfolio.fallback_market_return(realized)
        searching = gen is not None and t > cfg.warmup_steps and t % cfg.search_interval == 0
        top = step(run, cfg, t, gen if searching else None)
        weights, r_t, turn, fee, phase = None, rbar, 0.0, 0.0, "warmup"
        if top is not None:
            weights, r_t, turn, fee, run.prev = trade(top, realized, run.prev, cfg, t)
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
    return EvolutionResult(final_pool, tuple(rows), tuple(checkpoints), run.tracker)
