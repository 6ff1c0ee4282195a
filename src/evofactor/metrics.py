"""Portfolio and factor-quality metrics.

Conventions: step returns are gross relatives (wealth multiplies by r_t);
net returns are gross - 1. Standard deviations are sample (n-1) throughout.
Sharpe is the raw per-period ratio unless periods_per_year is given, in
which case it is scaled by sqrt(periods_per_year) (252 daily, 12 monthly).
Max drawdown is the positive peak-to-trough fraction max (P_i - P_j)/P_i.

Functions that can degenerate (flat inputs) return a MetricValue carrying a
`degenerate` flag instead of raising, so a flat factor never kills a run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class MetricValue(NamedTuple):
    value: float
    degenerate: bool = False

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class WealthPath:
    """Portfolio value path P_0..P_T with the gross returns that built it."""

    values: np.ndarray
    step_returns: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        rets = np.asarray(self.step_returns, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "step_returns", rets)
        if len(values) != len(rets) + 1:
            raise ValueError("values must be one longer than step_returns")

    @classmethod
    def from_returns(cls, gross_returns: Sequence[float], initial: float = 1.0) -> "WealthPath":
        rets = np.asarray(gross_returns, dtype=np.float64)
        values = initial * np.concatenate([[1.0], np.cumprod(rets)])
        return cls(values, rets)


def cumulative_wealth(path: WealthPath) -> float:
    """CW: final compounded value minus the initial value."""
    return float(path.values[-1] - path.values[0])


def _mean_std_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample (n-1) std of each row of a (k, n >= 1) block."""
    means = block.mean(axis=1)
    if block.shape[1] < 2:
        return means, np.zeros(len(block))
    # A constant series has zero spread by definition; summation rounding
    # must not leak a tiny std that would explode downstream ratios.
    spread = block.min(axis=1) != block.max(axis=1)
    return means, np.where(spread, block.std(axis=1, ddof=1), 0.0)


def mean_std(values: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Plain mean and sample (n-1) std; std is 0.0 when fewer than 2 points."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0, 0.0
    mean, std = _mean_std_rows(arr.reshape(1, -1))
    return float(mean[0]), float(std[0])


def sharpe_ratio(
    net_returns: Sequence[float] | np.ndarray,
    risk_free: float = 0.0,
    periods_per_year: int | None = None,
) -> MetricValue:
    """(mean - r_f) / sample std, optionally annualized by sqrt(periods)."""
    mean, std = mean_std(net_returns)
    if std == 0.0:
        return MetricValue(0.0, degenerate=True)
    ratio = (mean - risk_free) / std
    if periods_per_year is not None:
        ratio *= math.sqrt(periods_per_year)
    return MetricValue(float(ratio))


def _drawdown_rows(values: np.ndarray) -> np.ndarray:
    """Max drawdown of each row of a (k, n) block of path values. fmax skips
    NaN values, which neither set a peak nor count as a drop."""
    peaks = np.fmax.accumulate(values, axis=1)
    drops = np.divide(peaks - values, peaks, out=np.zeros_like(values), where=peaks > 0)
    return np.fmax.reduce(drops, axis=1, initial=0.0)


def max_drawdown(path: WealthPath | Sequence[float] | np.ndarray) -> float:
    """Largest fractional peak-to-trough decline, in [0, 1)."""
    values = path.values if isinstance(path, WealthPath) else np.asarray(path, dtype=np.float64)
    return float(_drawdown_rows(values.reshape(1, -1))[0])


def _rank_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of each row of a (rows, n) matrix, from one stable sort.

    Returns the 1-based average ranks (tied values share the average of
    their positions) and each entry's 0-based place in the descending order
    that keeps the earlier asset first among ties, the order of
    select_top_m. The places hold for NaN-free rows only.
    """
    rows, n = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    row = np.arange(rows)[:, None]
    sorted_vals = values[row, order]
    # A tie group starts wherever the sorted value changes; NaN != NaN, so
    # each NaN is a group of its own.
    starts = np.ones((rows, n), dtype=bool)
    starts[:, 1:] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
    ends = np.ones((rows, n), dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    pos = np.arange(n)
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, pos, n - 1)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty((rows, n), dtype=np.float64)
    ranks[row, order] = 0.5 * (first + last) + 1.0
    # The group at ascending positions first..last takes descending places
    # n-1-last..n-1-first, its members still in asset order.
    places = np.empty((rows, n), dtype=np.intp)
    places[row, order] = n - 1 - last + (pos - first)
    return ranks, places


def _centered(ranks: np.ndarray) -> np.ndarray:
    # Average ranks and their row means are exact half-integers, so every
    # product and sum of centred ranks below is exact in any order.
    return ranks - ranks.mean(axis=1, keepdims=True)


def spearman_rank_corr(
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray
) -> MetricValue:
    """Pearson correlation of average ranks; flat inputs flag degenerate."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if xa.size < 2:
        return MetricValue(0.0, degenerate=True)
    dx, dy = _centered(_rank_rows(np.stack([xa, ya]))[0])
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        return MetricValue(0.0, degenerate=True)
    return MetricValue(float(dx @ dy) / denom)


def rank_icir(rankics: Sequence[float] | np.ndarray) -> MetricValue:
    """Mean of the RankIC series over its sample std."""
    mean, std = mean_std(rankics)
    if std == 0.0:  # also for fewer than 2 points
        return MetricValue(0.0, degenerate=True)
    return MetricValue(mean / std)


def grade_rows(
    scores: np.ndarray, realized: np.ndarray, m: int, recall_n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grade each row of a (rows, n) score matrix against realized returns.

    realized is one shared (n,) row, ranked once, or one row per score row.
    Returns (gross, rankic, recall), three (rows,) arrays whose entry i is,
    bit for bit, realized_i[select_top_m(scores[i], m)].mean(),
    spearman_rank_corr(scores[i], realized_i).value and
    recall_precision_at_n(scores[i], realized_i, recall_n)[0]. Rows must be
    NaN-free, as DSL scores and returns are.
    """
    scores = np.asarray(scores, dtype=np.float64)
    realized = np.asarray(realized, dtype=np.float64)
    if scores.ndim != 2 or realized.shape not in (scores.shape, scores.shape[1:]):
        raise ValueError("realized must be one score row's shape or the score matrix's")
    rows, n = scores.shape
    if m < 1:
        raise ValueError("m must be positive")
    if not 1 <= recall_n <= n:
        raise ValueError(f"N must be in 1..{n}")
    if np.isnan(scores).any() or np.isnan(realized).any():
        raise ValueError("rows must not hold NaN")
    realized = np.atleast_2d(realized)
    score_ranks, score_places = _rank_rows(scores)
    realized_ranks, realized_places = _rank_rows(realized)
    picked = np.broadcast_to(realized, scores.shape)[score_places < m]
    gross = picked.reshape(rows, min(m, n)).mean(axis=1)
    dx = _centered(score_ranks)
    dy = _centered(realized_ranks)
    denom = np.sqrt((dx * dx).sum(axis=1) * (dy * dy).sum(axis=1))
    rankic = np.divide((dx * dy).sum(axis=1), denom, out=np.zeros(rows), where=denom != 0.0)
    hits = (score_places < recall_n) & (realized_places < recall_n)
    recall = hits.sum(axis=1) / recall_n
    return gross, rankic, recall


# ------------------------------------------------------------------ reports

PERFORMANCE_COLUMNS = (
    "mean_return",
    "std_return",
    "sharpe_ratio",
    "max_drawdown",
    "final_value",
)


def quality_columns(recall_n: int) -> tuple[str, ...]:
    return (
        "mean_rankic",
        "std_rankic",
        f"mean_recall@{recall_n}",
        f"std_recall@{recall_n}",
    )


def report_columns(recall_n: int = 20) -> tuple[str, ...]:
    return ("factor",) + PERFORMANCE_COLUMNS + quality_columns(recall_n)


def window_stats(
    gross: np.ndarray, rankic: np.ndarray, recall: np.ndarray, recall_n: int
) -> dict[str, np.ndarray]:
    """Every report column after `factor`, per row of three (k, n >= 1)
    blocks of trailing gross returns, RankICs and recalls.

    Performance is over the net returns gross - 1 and the wealth path that
    starts at 100; max_drawdown is negative. Each row's values equal, bit
    for bit, those of its series reduced on its own.
    """
    k = len(gross)
    moments = _mean_std_rows(np.concatenate([gross - 1.0, rankic, recall]))
    (mean, mean_ic, mean_rc), (std, std_ic, std_rc) = (a.reshape(3, k) for a in moments)
    path = 100.0 * np.concatenate([np.ones((k, 1)), np.cumprod(gross, axis=1)], axis=1)
    sharpe = np.divide(mean, std, out=np.zeros(k), where=std != 0.0)
    performance = (mean, std, sharpe, -_drawdown_rows(path), 100.0 * np.prod(gross, axis=1))
    quality = (mean_ic, std_ic, mean_rc, std_rc)
    return dict(zip(report_columns(recall_n)[1:], performance + quality))


def write_factor_report(
    rows: Iterable[dict], csv_path: str | None, json_path: str | None, recall_n: int = 20
) -> None:
    """Serialize per-factor metric rows with the canonical column set."""
    columns = report_columns(recall_n)
    materialized = [{c: row.get(c, "") for c in columns} for row in rows]
    if csv_path is not None:
        with open(csv_path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(columns))
            writer.writeheader()
            for row in materialized:
                writer.writerow({k: repr(float(v)) if isinstance(v, float) else v for k, v in row.items()})
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump(materialized, handle, sort_keys=True, indent=2)
            handle.write("\n")
