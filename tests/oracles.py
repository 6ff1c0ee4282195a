"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written as plain-Python loops over floats,
with no imports from the package and no numpy vectorization, so agreement
with the engine is evidence of correctness rather than shared code. The one
exception is tracker_window_stats, a bit-exact reference that reduces each
series on its own with 1-D numpy calls.
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
