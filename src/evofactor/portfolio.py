"""Sparse top-m portfolio construction, transaction costs, and the ledger.

The weight vector always satisfies w >= 0, sum(w) = 1 and at most m nonzero
entries. Costs are cost_rate (checked by EvolutionConfig) per unit of
one-way turnover: half the L1 distance between today's weights and
yesterday's weights after they have drifted with realized returns; the
first allocation from cash pays the half buy-in charge. A weight map does
not record its step: the caller that trades it knows the step.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .jsonfields import STRINGS, check

LEDGER_COLUMNS = (
    "date",
    "phase",
    "portfolio_value",
    "baseline_value",
    "step_return",
    "baseline_return",
    "turnover",
    "cost",
    "selected_assets",
    "weights",
)
_FLOAT_COLUMNS = LEDGER_COLUMNS[2:-2]  # portfolio_value .. cost


@dataclass(frozen=True)
class PortfolioWeights:
    """Sparse long-only weights at one step: asset index -> weight."""

    weights: dict[int, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("empty weight map")
        total = sum(self.weights.values())
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"weights sum to {total}, not 1")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("weights must be nonnegative")


def aggregate_scores(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Composite score: arithmetic mean of the k normalized factor rows."""
    if not rows:
        raise ValueError("need at least one factor row")
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("rows must share one asset dimension")
    return matrix.mean(axis=0)


def select_top_m(scores: Sequence[float] | np.ndarray, m: int) -> np.ndarray:
    """Indices of the m best scores; ties keep the earlier asset."""
    scores = np.asarray(scores, dtype=np.float64)
    if m < 1:
        raise ValueError("m must be positive")
    m = min(m, scores.size)
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:m])


def equal_weights(selection: Sequence[int] | np.ndarray) -> PortfolioWeights:
    selection = list(selection)
    if not selection:
        raise ValueError("empty selection")
    w = 1.0 / len(selection)
    return PortfolioWeights({int(i): w for i in selection})


def positive_score_weights(
    selection: Sequence[int] | np.ndarray,
    scores: Sequence[float] | np.ndarray,
) -> PortfolioWeights:
    """Weights proportional to max(score, 0); all-nonpositive falls back to
    equal weights."""
    selection = [int(i) for i in selection]
    if not selection:
        raise ValueError("empty selection")
    scores = np.asarray(scores, dtype=np.float64)
    clipped = np.maximum(scores[selection], 0.0)
    total = clipped.sum()
    if total <= 0.0:
        return equal_weights(selection)
    return PortfolioWeights({i: float(c / total) for i, c in zip(selection, clipped)})


def temperature_weights(
    selection: Sequence[int] | np.ndarray,
    scores: Sequence[float] | np.ndarray,
    tau: float,
) -> PortfolioWeights:
    """Softmax over the selected scores; tau controls concentration."""
    if not tau > 0.0:
        raise ValueError(f"temperature must be positive, got {tau!r}")
    selection = [int(i) for i in selection]
    if not selection:
        raise ValueError("empty selection")
    scores = np.asarray(scores, dtype=np.float64)
    logits = scores[selection] / tau
    logits -= logits.max()  # overflow-safe
    expw = np.exp(logits)
    expw /= expw.sum()
    return PortfolioWeights({i: float(w) for i, w in zip(selection, expw)})


def drift_weights(
    weights: PortfolioWeights, realized_gross: Sequence[float] | np.ndarray
) -> PortfolioWeights:
    """Let held weights ride the realized returns, then renormalize."""
    realized = np.asarray(realized_gross, dtype=np.float64)
    grown = {i: w * float(realized[i]) for i, w in weights.weights.items()}
    total = sum(grown.values())
    if total <= 0.0:
        raise ValueError("non-positive portfolio value after drift")
    return PortfolioWeights({i: w / total for i, w in grown.items()})


def turnover(current: PortfolioWeights, previous: PortfolioWeights | None) -> float:
    """Half-L1 distance to the (already drifted) previous weights.

    From cash (previous is None) the distance to the zero vector gives the
    half buy-in turnover of 0.5.
    """
    if previous is None:
        return 0.5 * sum(abs(w) for w in current.weights.values())
    keys = set(current.weights) | set(previous.weights)
    return 0.5 * sum(
        abs(current.weights.get(i, 0.0) - previous.weights.get(i, 0.0)) for i in keys
    )


def step_return(
    weights: PortfolioWeights,
    gross_returns_next: Sequence[float] | np.ndarray,
    prev_weights: PortfolioWeights | None,
    cost_rate: float,
) -> tuple[float, float, float]:
    """One backtest step: (net gross return, turnover, cost_rate * turnover).

    prev_weights must already be drifted by the intra-period returns (see
    drift_weights); pass None for the first allocation from cash.
    """
    gross = np.asarray(gross_returns_next, dtype=np.float64)
    raw = sum(w * float(gross[i]) for i, w in weights.weights.items())
    turn = turnover(weights, prev_weights)
    cost = cost_rate * turn
    return raw - cost, turn, cost


def fallback_market_return(gross_returns: Sequence[float] | np.ndarray) -> float:
    """Equal-weight market proxy: plain mean of the gross returns."""
    gross = np.asarray(gross_returns, dtype=np.float64)
    if gross.size == 0:
        raise ValueError("empty return vector")
    return float(gross.mean())


# ------------------------------------------------------------------- ledger


@dataclass(frozen=True)
class LedgerRow:
    """One backtest step. Warm-up and fallback steps hold no sparse
    portfolio: they earn the market average and carry empty selections."""

    date: str
    phase: str  # warmup | live | fallback
    portfolio_value: float
    baseline_value: float
    step_return: float
    baseline_return: float
    turnover: float
    cost: float
    selected_assets: tuple[str, ...]
    weights: tuple[float, ...]


def write_ledger(rows: Sequence[LedgerRow], path: str) -> None:
    """CSV export; floats keep full repr precision for byte-stable replays."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(LEDGER_COLUMNS)
        for row in rows:
            writer.writerow(
                [row.date, row.phase]
                + [repr(getattr(row, col)) for col in _FLOAT_COLUMNS]
                + [json.dumps(list(row.selected_assets)), json.dumps([repr(w) for w in row.weights])]
            )


# The ledger's JSON cells, and the kind the reader checks each one for:
# write_ledger writes each weight as its repr.
_JSON_CELLS = {"selected_assets": STRINGS, "weights": STRINGS}


def _decoded(cell: str | None) -> object:
    """A cell's JSON value, or the cell itself when it holds none."""
    try:
        return json.loads(cell)
    except (TypeError, ValueError):
        return cell


def read_ledger(path: str) -> list[LedgerRow]:
    """The rows write_ledger wrote; a bad row fails naming path:line, and
    a bad JSON cell its column."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != list(LEDGER_COLUMNS):
            raise ValueError(f"{path}: unexpected ledger columns {reader.fieldnames}")
        rows = []
        for rec in reader:
            try:
                cells = check({key: _decoded(rec[key]) for key in _JSON_CELLS}, _JSON_CELLS)
                rows.append(LedgerRow(rec["date"], rec["phase"], *(float(rec[col]) for col in _FLOAT_COLUMNS),
                                      tuple(cells["selected_assets"]), tuple(map(float, cells["weights"]))))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        return rows
