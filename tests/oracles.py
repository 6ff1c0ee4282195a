"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written as plain-Python loops over floats,
with no imports from the package and no numpy vectorization, so agreement
with the engine is evidence of correctness rather than shared code. The two
exceptions are bit-exact references built on numpy: tracker_window_stats,
which reduces each series on its own with 1-D numpy calls,
ts_window_reference, which reduces every trailing window on its own, and
grade_rows_reference, which ranks every row with one stable sort. StepTracker
grades the pool a step at a time with the scorer and grader it is given.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_right
from typing import Callable, Iterable, Sequence

import numpy as np

_EPS = 1e-12


def _floats(values: Sequence[float]) -> list[float]:
    return [float(v) for v in values]


def mean(values: Sequence[float]) -> float:
    values = _floats(values)
    return sum(values) / len(values)


def pstd(values: Sequence[float]) -> float:
    values = _floats(values)
    if all(v == values[0] for v in values):
        return 0.0  # constant series: exact zero, no summation residue
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def sstd(values: Sequence[float]) -> float:
    values = _floats(values)
    if len(values) < 2 or all(v == values[0] for v in values):
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def safe_div(a: float, b: float) -> float:
    return a / b if abs(b) >= _EPS else 0.0


# ------------------------------------------------------------- metrics


def average_ranks(values: Sequence[float]) -> list[float]:
    values = _floats(values)
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Pearson correlation of average ranks; None when either side is flat."""
    rx = average_ranks(x)
    ry = average_ranks(y)
    mx, my = mean(rx), mean(ry)
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return sxy / math.sqrt(sxx * syy)


def _rank_rows_reference(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based average ranks of each row of a (rows, n) matrix, and each
    entry's 0-based place in the descending order that keeps the earlier
    asset first among ties, from one stable ascending sort."""
    rows, n = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    row = np.arange(rows)[:, None]
    sorted_vals = values[row, order]
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


def grade_rows_reference(
    scores: np.ndarray, realized: np.ndarray, m: int, recall_n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gross, rankic, recall) of each score row against realized, one shared
    (n,) row or one row per score row, ranking both sides with one stable
    sort per call: the grading the tracker's bits were first recorded with."""
    rows, n = scores.shape
    realized = np.atleast_2d(realized)
    score_ranks, score_places = _rank_rows_reference(scores)
    realized_ranks, realized_places = _rank_rows_reference(realized)
    picked = np.broadcast_to(realized, scores.shape)[score_places < m]
    gross = picked.reshape(rows, min(m, n)).mean(axis=1)
    dx = score_ranks - score_ranks.mean(axis=1, keepdims=True)
    dy = realized_ranks - realized_ranks.mean(axis=1, keepdims=True)
    denom = np.sqrt((dx * dx).sum(axis=1) * (dy * dy).sum(axis=1))
    rankic = np.divide((dx * dy).sum(axis=1), denom, out=np.zeros(rows), where=denom != 0.0)
    hits = (score_places < recall_n) & (realized_places < recall_n)
    recall = hits.sum(axis=1) / recall_n
    return gross, rankic, recall


class StepTracker:
    """Per-name tracker series graded one step at a time, with no block: at
    step t every pool factor with created_step <= t is scored alone by
    score(record, t), and the step's (k, n) rows are graded in one
    grade(rows, t) call against that step alone. drop forgets a name, so
    a name that comes back starts a new series."""

    def __init__(
        self,
        score: Callable[[object, int], np.ndarray],
        grade: Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        self.score, self.grade = score, grade
        self.entries: dict[str, tuple[list[int], list[float], list[float], list[float]]] = {}

    def update(self, pool: dict, t: int) -> None:
        names = sorted(name for name, rec in pool.items() if rec.created_step <= t)
        if not names:
            return
        grades = self.grade(np.stack([self.score(pool[name], t) for name in names]), t)
        for name, gross, rankic, recall in zip(names, *grades):
            steps, *columns = self.entries.setdefault(name, ([], [], [], []))
            steps.append(t)
            for column, value in zip(columns, (gross, rankic, recall)):
                column.append(float(value))

    def drop(self, names: Iterable[str]) -> None:
        for name in names:
            self.entries.pop(name, None)

    def names(self) -> list[str]:
        return sorted(self.entries)

    def series(self, name: str) -> tuple[list[int], list[float], list[float], list[float]]:
        return tuple(list(column) for column in self.entries.get(name, ([], [], [], [])))


def mdd_bruteforce(values: Sequence[float]) -> float:
    """Exhaustive O(T^2) max of (P_i - P_j) / P_i over i <= j with P_i > 0."""
    values = _floats(values)
    worst = 0.0
    for i in range(len(values)):
        if values[i] <= 0.0:
            continue
        for j in range(i, len(values)):
            drop = (values[i] - values[j]) / values[i]
            if drop > worst:
                worst = drop
    return worst


def tracker_window_stats(
    steps: Sequence[int],
    gross: Sequence[float],
    rankic: Sequence[float],
    recall: Sequence[float],
    window: int,
    upto: int,
    recall_n: int,
) -> dict[str, float] | None:
    """One factor's trailing tracker stats over its last `window` entries up
    to step upto, each series reduced on its own as a 1-D array, with a
    streaming drawdown; None when that window holds no entry."""
    hi = bisect_right(list(steps), upto)
    lo = max(0, hi - window)
    if lo >= hi:
        return None

    def moments(arr: np.ndarray) -> tuple[float, float]:
        if arr.size < 2 or arr.min() == arr.max():
            return float(arr.mean()), 0.0
        return float(arr.mean()), float(arr.std(ddof=1))

    g = np.asarray(gross[lo:hi], dtype=np.float64)
    mean_r, std_r = moments(g - 1.0)
    worst, peak = 0.0, -math.inf
    for value in 100.0 * np.concatenate([[1.0], np.cumprod(g)]):
        if value > peak:
            peak = value
        elif peak > 0 and (peak - value) / peak > worst:
            worst = (peak - value) / peak
    mean_ic, std_ic = moments(np.asarray(rankic[lo:hi], dtype=np.float64))
    mean_rc, std_rc = moments(np.asarray(recall[lo:hi], dtype=np.float64))
    return {
        "mean_return": mean_r,
        "std_return": std_r,
        "sharpe_ratio": mean_r / std_r if std_r != 0.0 else 0.0,
        "max_drawdown": -float(worst),
        "final_value": float(100.0 * np.prod(g)),
        "mean_rankic": mean_ic,
        "std_rankic": std_ic,
        f"mean_recall@{recall_n}": mean_rc,
        f"std_recall@{recall_n}": std_rc,
    }


def ts_window_reference(op: str, child: np.ndarray, window: int) -> np.ndarray:
    """A DSL time-series op over an (n, steps) array, one trailing window at a
    time: numpy reduces the last axis of an (n, steps, window) view. The
    series is edge-padded with its first column; lag clamps to column 0."""
    n, steps = child.shape
    lag_index = np.maximum(np.arange(steps) - window, 0)
    if op == "lag":
        return child[:, lag_index]
    if op == "ts_delta":
        return child - child[:, lag_index]
    pad = np.concatenate([np.repeat(child[:, :1], window - 1, axis=1), child], axis=1)
    win = np.lib.stride_tricks.sliding_window_view(pad, window, axis=1)  # (n, steps, window)
    if op == "ts_sum":
        return win.sum(axis=-1)
    if op == "ts_mean":
        return win.mean(axis=-1)
    if op == "ts_std":
        return win.std(axis=-1)  # population std, matches the seed formulas
    if op == "ts_min":
        return win.min(axis=-1)
    if op == "ts_max":
        return win.max(axis=-1)
    if op == "ts_ema":
        alpha = 2.0 / (window + 1.0)
        coef = alpha * (1.0 - alpha) ** np.arange(window - 1, -1, -1, dtype=np.float64)
        coef[0] = (1.0 - alpha) ** (window - 1)  # recursion seeded at the oldest value
        return win @ coef
    if op == "ts_rank_pos":
        last = win[..., -1:]
        if window == 1:
            return np.full((n, steps), 0.5)
        less = (win < last).sum(axis=-1)
        equal = (win == last).sum(axis=-1)
        return (less + 0.5 * (equal - 1)) / (window - 1)
    if op == "ts_drawdown":
        runmax = np.maximum.accumulate(win, axis=-1)
        safe = np.where(np.abs(runmax) >= _EPS, runmax, 1.0)
        dd = np.where(np.abs(runmax) >= _EPS, (win - runmax) / safe, 0.0)
        return dd.min(axis=-1)
    if op == "ts_argmax_recency":
        # Last index attaining the window max, scaled to (0, 1].
        from_end = np.argmax(win[..., ::-1], axis=-1)
        return (window - from_end).astype(np.float64) / window
    raise ValueError(f"unknown time-series op {op!r}")


def scan_for_leakage(text: str, forbidden: Iterable[str], min_len: int = 3) -> list[str]:
    """Per-token reference scan: one bounded regex search per digit token."""
    found = []
    for token in forbidden:
        if len(token) < min_len:
            continue
        if token.isdigit():
            if re.search(r"(?<![0-9.])" + re.escape(token) + r"(?![0-9.])", text):
                found.append(token)
        elif token in text:
            found.append(token)
    return sorted(set(found))


def sharpe(
    net_returns: Sequence[float],
    risk_free: float = 0.0,
    periods_per_year: int | None = None,
) -> float | None:
    std = sstd(net_returns)
    if std == 0.0:
        return None
    ratio = (mean(net_returns) - risk_free) / std
    if periods_per_year is not None:
        ratio *= math.sqrt(periods_per_year)
    return ratio


def rank_icir(series: Sequence[float]) -> float | None:
    if len(series) < 2:
        return None
    std = sstd(series)
    if std == 0.0:
        return None
    return mean(series) / std


def top_n(values: Sequence[float], n: int) -> list[int]:
    values = _floats(values)
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return order[:n]


def recall_at_n(scores: Sequence[float], realized: Sequence[float], n: int) -> float:
    predicted = set(top_n(scores, n))
    actual = set(top_n(realized, n))
    return len(predicted & actual) / n


def equal_weight_path(net_return_rows: Sequence[Sequence[float]]) -> list[float]:
    """Wealth path of a 1/N portfolio rebalanced every step, starting at 1."""
    path = [1.0]
    for row in net_return_rows:
        path.append(path[-1] * (1.0 + mean(row)))
    return path


# -------------------------------------------------------- seed formulas
#
# Window conventions mirror the engine's documented edge policy: windows
# ending at the final step pad with the first element when they reach past
# the series start, and lags clamp to index 0. `returns` are gross
# relatives p_t / p_{t-1}.


def window_tail(values: Sequence[float], w: int) -> list[float]:
    values = _floats(values)
    n = len(values)
    return [values[max(i, 0)] for i in range(n - w, n)]


def lagged_last(values: Sequence[float], w: int) -> float:
    values = _floats(values)
    return values[max(len(values) - 1 - w, 0)]


def ema_last(values: Sequence[float], w: int) -> float:
    tail = window_tail(values, w)
    alpha = 2.0 / (w + 1.0)
    out = tail[0]
    for v in tail[1:]:
        out = alpha * v + (1.0 - alpha) * out
    return out


def _mean_return(p: Sequence[float], r: Sequence[float], w: int) -> float:
    return mean([v - 1.0 for v in window_tail(r, w)])


def _std_return(p: Sequence[float], r: Sequence[float], w: int) -> float:
    return pstd(window_tail(r, w))


def _momentum(p: Sequence[float], r: Sequence[float], w: int) -> float:
    return safe_div(float(p[-1]), lagged_last(p, w)) - 1.0


def _max_drawdown(p: Sequence[float], r: Sequence[float], w: int) -> float:
    tail = window_tail(p, w)
    worst = 0.0
    peak = tail[0]
    for v in tail:
        peak = max(peak, v)
        dd = (v - peak) / peak if abs(peak) >= _EPS else 0.0
        worst = min(worst, dd)
    return worst


def _sharpe_ratio(p: Sequence[float], r: Sequence[float], w: int) -> float:
    return safe_div(_mean_return(p, r, w), _std_return(p, r, w))


def _volatility(p: Sequence[float], r: Sequence[float], w: int) -> float:
    logs = [math.log(v) if v > 0.0 else 0.0 for v in window_tail(r, w)]
    return pstd(logs)


def _price_position(p: Sequence[float], r: Sequence[float], w: int) -> float:
    tail = window_tail(p, w)
    low, high = min(tail), max(tail)
    return safe_div(float(p[-1]) - low, high - low)


def _ma(p: Sequence[float], r: Sequence[float], w: int) -> float:
    return mean(window_tail(p, w))


def _bb_width(p: Sequence[float], r: Sequence[float], w: int) -> float:
    tail = window_tail(p, w)
    return safe_div(2.0 * pstd(tail), mean(tail))


def _ema_ratio(p: Sequence[float], r: Sequence[float], w: int) -> float:
    return safe_div(float(p[-1]), ema_last(p, w))


def _log_return_1(p: Sequence[float], r: Sequence[float]) -> float:
    last = float(r[-1])
    return math.log(last) if last > 0.0 else 0.0


def _rsi_14(p: Sequence[float], r: Sequence[float]) -> float:
    tail = window_tail(r, 14)
    gains = mean([max(v - 1.0, 0.0) for v in tail])
    losses = mean([max(1.0 - v, 0.0) for v in tail])
    return 100.0 * safe_div(gains, gains + losses)


_PARAMETRIC = {
    "mean_return": _mean_return,
    "std_return": _std_return,
    "momentum": _momentum,
    "max_drawdown": _max_drawdown,
    "sharpe_ratio": _sharpe_ratio,
    "volatility": _volatility,
    "price_position": _price_position,
    "ma": _ma,
    "bb_width": _bb_width,
    "ema_ratio": _ema_ratio,
}

_FIXED = {
    "log_return_1": _log_return_1,
    "rsi_14": _rsi_14,
}


def seed_oracle(name: str) -> Callable[[Sequence[float], Sequence[float]], float]:
    """Reference evaluator for a seed factor name such as momentum_7."""
    if name in _FIXED:
        return _FIXED[name]
    base, _, suffix = name.rpartition("_")
    window = int(suffix)
    fn = _PARAMETRIC[base]
    return lambda p, r: fn(p, r, window)


SEED_BASE_NAMES = tuple(_PARAMETRIC) + tuple(_FIXED)
