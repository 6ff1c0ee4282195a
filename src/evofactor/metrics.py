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


def mean_std(values: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Plain mean and sample (n-1) std; std is 0.0 when fewer than 2 points."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0, 0.0
    mean = float(arr.mean())
    # A constant series has zero spread by definition; summation rounding
    # must not leak a tiny std that would explode downstream ratios.
    if arr.size < 2 or arr.min() == arr.max():
        return mean, 0.0
    return mean, float(arr.std(ddof=1))


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


def max_drawdown(path: WealthPath | Sequence[float] | np.ndarray) -> float:
    """Largest fractional peak-to-trough decline, in [0, 1). Streaming O(T)."""
    values = path.values if isinstance(path, WealthPath) else np.asarray(path, dtype=np.float64)
    worst = 0.0
    peak = -math.inf
    for value in values:
        if value > peak:
            peak = value
        elif peak > 0:
            drop = (peak - value) / peak
            if drop > worst:
                worst = drop
    return worst


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    # A tie group starts wherever the sorted value changes; NaN != NaN, so
    # each NaN is a group of its own.
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = sorted_vals[1:] != sorted_vals[:-1]
    first = np.flatnonzero(new_group)
    size = np.diff(np.append(first, n))
    last = first + size - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, size)
    return ranks


def _centered_ranks(values: np.ndarray) -> np.ndarray:
    ranks = _average_ranks(values)
    return ranks - ranks.mean()


class Ranks(NamedTuple):
    """A vector's average ranks minus their mean, as spearman_rank_corr uses them."""

    centered: np.ndarray


def ranks(values: Sequence[float] | np.ndarray) -> Ranks:
    """Rank a vector once, to correlate it with many others."""
    return Ranks(_centered_ranks(np.asarray(values, dtype=np.float64)))


def spearman_rank_corr(
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray | Ranks
) -> MetricValue:
    """Pearson correlation of average ranks; flat inputs flag degenerate.

    y may be given as ranks(y) when it is shared by many calls.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = y.centered if isinstance(y, Ranks) else np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if xa.size < 2:
        return MetricValue(0.0, degenerate=True)
    dx = _centered_ranks(xa)
    dy = ya if isinstance(y, Ranks) else _centered_ranks(ya)
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        return MetricValue(0.0, degenerate=True)
    return MetricValue(float(dx @ dy) / denom)


def rankic_series(
    score_rows: Sequence[Sequence[float] | np.ndarray],
    next_return_rows: Sequence[Sequence[float] | np.ndarray],
) -> tuple[np.ndarray, list[int]]:
    """Per-step Spearman between scores at t and realized returns at t+1.

    Steps with fewer than 2 assets are skipped and their indices returned.
    """
    if len(score_rows) != len(next_return_rows):
        raise ValueError("score and return streams must align")
    values: list[float] = []
    skipped: list[int] = []
    for t, (scores, rets) in enumerate(zip(score_rows, next_return_rows)):
        if len(np.atleast_1d(np.asarray(scores))) < 2:
            skipped.append(t)
            continue
        values.append(spearman_rank_corr(scores, rets).value)
    return np.asarray(values, dtype=np.float64), skipped


def rank_icir(rankics: Sequence[float] | np.ndarray) -> MetricValue:
    """Mean of the RankIC series over its sample std."""
    arr = np.asarray(rankics, dtype=np.float64)
    if arr.size < 2:
        return MetricValue(0.0, degenerate=True)
    mean, std = mean_std(arr)
    if std == 0.0:
        return MetricValue(0.0, degenerate=True)
    return MetricValue(mean / std)


def top_n_indices(values: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest values; ties broken by asset order."""
    order = np.argsort(-np.asarray(values, dtype=np.float64), kind="stable")
    return order[:n]


def recall_precision_at_n(
    scores: Sequence[float] | np.ndarray,
    realized: Sequence[float] | np.ndarray,
    n: int,
) -> tuple[float, float]:
    """Overlap fraction of predicted vs realized top-n sets.

    With equal set sizes recall and precision coincide; both are returned to
    mirror the report fields.
    """
    scores = np.asarray(scores, dtype=np.float64)
    realized = np.asarray(realized, dtype=np.float64)
    if scores.shape != realized.shape:
        raise ValueError("scores and realized returns must align")
    if n < 1 or n > scores.size:
        raise ValueError(f"N must be in 1..{scores.size}")
    predicted = set(top_n_indices(scores, n).tolist())
    actual = set(top_n_indices(realized, n).tolist())
    overlap = len(predicted & actual) / n
    return overlap, overlap


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
                writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump(materialized, handle, sort_keys=True, indent=2)
            handle.write("\n")
