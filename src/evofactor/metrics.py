"""Portfolio and factor-quality metrics.

Conventions: step returns are gross relatives (wealth multiplies by r_t);
net returns are gross - 1. Standard deviations are sample (n-1) throughout.
Sharpe is the raw per-period ratio unless periods_per_year is given, in
which case it is scaled by sqrt(periods_per_year) (252 daily, 12 monthly).
Max drawdown is the positive peak-to-trough fraction max (P_i - P_j)/P_i.

Functions that can degenerate (flat inputs) return a MetricValue carrying a
`degenerate` flag instead of raising, so a flat factor never kills a run.

Grading ranks realized returns once per run and each score block with one
unstable sort: centred average ranks are exact half-integers, so rank-IC sums
are exact in any order, and only tied rows need a stable re-sort for top-m.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Mapping, NamedTuple, Sequence

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


def _centred_desc(desc: np.ndarray) -> np.ndarray:
    """Centred average ranks at the positions of (rows, n) rows sorted in
    descending order: position j has rank n - j, a tie group at first..last
    shares n - (first + last) / 2 in any order, and the mean is (n + 1) / 2."""
    flat, n = desc.ravel(), desc.shape[1]
    starts = np.concatenate(([True], flat[1:] != flat[:-1]))
    starts[::n] = True  # each row starts a group
    first = np.flatnonzero(starts)
    last = np.append(first[1:], flat.size) - 1
    return np.repeat(0.5 * (n - 1 - first % n - last % n), last - first + 1).reshape(desc.shape)


class RealizedRanks(NamedTuple):
    """Realized return rows ranked once for grade_rows, which reads them by
    step index: the contiguous rows, their centred average ranks and sums of
    squares, and each asset's place in the descending order that puts
    earlier ties first."""

    returns: np.ndarray
    centred: np.ndarray
    sumsq: np.ndarray
    places: np.ndarray


def rank_realized(returns: np.ndarray) -> RealizedRanks:
    """Rank each row of a NaN-free (steps, n) block of realized returns."""
    returns = np.ascontiguousarray(returns, dtype=np.float64)
    if np.isnan(returns).any():
        raise ValueError("rows must not hold NaN")
    order = np.argsort(-returns, axis=1, kind="stable")
    centred, places = np.empty_like(returns), np.empty_like(order)
    np.put_along_axis(centred, order, _centred_desc(np.take_along_axis(returns, order, 1)), 1)
    np.put_along_axis(places, order, np.arange(returns.shape[1]), 1)
    return RealizedRanks(returns, centred, (centred * centred).sum(axis=1), places)


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
    dx, dy = rank_realized(np.stack([xa, ya])).centred
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
    scores: np.ndarray, realized: np.ndarray | RealizedRanks, m: int, recall_n: int, steps: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grade each row of a (rows, n) score matrix against realized returns:
    row steps[i] of a table for score row i, or without steps one shared
    (n,) row or one per score row; raw or as rank_realized rows. Realized
    rows are read in place by flat offsets, never copied out per score row.

    Returns (gross, rankic, recall), (rows,) arrays whose entry i is, bit for
    bit, realized_i[select_top_m(scores[i], m)].mean(), spearman_rank_corr(
    scores[i], realized_i).value and recall@recall_n. Rows must be NaN-free.
    A row without an adjacent tie has one descending order, so its centred
    ranks are (n - 1) / 2 - j at position j; a tied row takes average ranks
    from its tie groups and a stable re-sort for its top assets.
    """
    scores = np.asarray(scores, dtype=np.float64)
    realized = realized if isinstance(realized, RealizedRanks) else rank_realized(np.atleast_2d(realized))
    if scores.ndim != 2 or realized.returns.shape[1:] != scores.shape[1:]:
        raise ValueError("realized rows must have the score rows' length")
    rows, n = scores.shape
    if steps is None:  # one shared row, or one per score row
        steps = np.zeros(rows, dtype=np.intp) if len(realized.returns) == 1 else np.arange(len(realized.returns))
    steps = np.asarray(steps)
    if steps.shape != (rows,) or rows and not 0 <= steps.min() <= steps.max() < len(realized.returns):
        raise ValueError("realized needs one shared row, one per score row, or a row index per score row")
    if m < 1:
        raise ValueError("m must be positive")
    if not 1 <= recall_n <= n:
        raise ValueError(f"N must be in 1..{n}")
    if np.isnan(scores).any():
        raise ValueError("rows must not hold NaN")
    offsets = np.arange(0, rows * n, n)[:, None]  # flat indices: take beats axis-1 indexing
    shift = steps[:, None] * n
    order = np.argsort(-scores, axis=1)
    desc = scores.take(order + offsets)
    tied = (desc[:, 1:] == desc[:, :-1]).any(axis=1)
    dy = realized.centred.take(order + shift)
    ranks = 0.5 * (n - 1) - np.arange(n)
    num, sx2 = dy @ ranks, np.full(rows, ranks @ ranks)
    if tied.any():
        dx = _centred_desc(desc[tied])
        num[tied], sx2[tied] = (dx * dy[tied]).sum(axis=1), (dx * dx).sum(axis=1)
        order[tied] = np.argsort(-scores[tied], axis=1, kind="stable")
    denom = np.sqrt(sx2 * realized.sumsq[steps])
    rankic = np.divide(num, denom, out=np.zeros(rows), where=denom != 0.0)
    gross = realized.returns.take(np.sort(order[:, :m], axis=1) + shift).mean(axis=1)
    recall = (realized.places.take(order[:, :recall_n] + shift) < recall_n).sum(axis=1) / recall_n
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


def report_columns(recall_n: int) -> tuple[str, ...]:
    return ("factor",) + PERFORMANCE_COLUMNS + quality_columns(recall_n)


def count_runs(counts: Sequence[int]) -> Iterator[tuple[slice, int]]:
    """(rows, n) for each run of equal adjacent counts n."""
    lo = 0
    for n, run in groupby(counts):
        hi = lo + sum(1 for _ in run)
        yield slice(lo, hi), n
        lo = hi


def window_stats(block: np.ndarray, counts: Sequence[int], recall_n: int) -> tuple[dict, dict]:
    """The performance and quality column maps, keyed by PERFORMANCE_COLUMNS
    and quality_columns(recall_n), with one value per row of a (k, 3, width)
    block of trailing gross returns, RankICs and recalls: row i holds its
    counts[i] >= 1 entries at its end, left-padded with 1.0, and equal
    counts are adjacent. The stats columns split in two here only.

    Performance is over the net returns gross - 1 and the wealth path that
    starts at 100; max_drawdown is negative. Each row's values equal, bit
    for bit, those of its series reduced on its own: the path, drawdown and
    final value read the whole padded block, as leading ones change no
    product and no peak, and the means and stds come from _mean_std_rows
    per run of equal counts.
    """
    k, width = len(block), block.shape[-1]
    series = block - np.array([[1.0], [0.0], [0.0]])  # net returns; x - 0.0 is x
    means, stds = np.empty((k, 3)), np.empty((k, 3))
    for rows, n in count_runs(counts):
        # Unit-stride rows (reshape copies the slice in C order unless it
        # already is): numpy sums a row of any other stride in another order.
        moments = _mean_std_rows(series[rows, :, width - n :].reshape(-1, n))
        means[rows], stds[rows] = (a.reshape(-1, 3) for a in moments)
    (mean, mean_ic, mean_rc), (std, std_ic, std_rc) = means.T, stds.T
    gross = block[:, 0]
    path = 100.0 * np.concatenate([np.ones((k, 1)), np.cumprod(gross, axis=1)], axis=1)
    sharpe = np.divide(mean, std, out=np.zeros(k), where=std != 0.0)
    performance = (mean, std, sharpe, -_drawdown_rows(path), 100.0 * np.prod(gross, axis=1))
    quality = (mean_ic, std_ic, mean_rc, std_rc)
    return dict(zip(PERFORMANCE_COLUMNS, performance)), dict(zip(quality_columns(recall_n), quality))


def write_factor_report(
    performance: Mapping[str, dict], quality: Mapping[str, dict], csv_path: str, json_path: str, recall_n: int
) -> None:
    """Write one row per factor of the name -> column -> value maps that
    PerfTracker.stat returns, in name order, as CSV and as JSON with the
    canonical columns; a missing column is an empty cell."""
    columns = report_columns(recall_n)
    rows = ({"factor": name, **performance[name], **quality[name]} for name in sorted(performance))
    materialized = [{c: row.get(c, "") for c in columns} for row in rows]
    with open(csv_path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns))
        writer.writeheader()
        for row in materialized:
            writer.writerow({k: repr(float(v)) if isinstance(v, float) else v for k, v in row.items()})
    with open(json_path, "w") as handle:
        json.dump(materialized, handle, sort_keys=True, indent=2)
        handle.write("\n")
