"""Price ingestion, return matrices, normalized price paths and rolling windows.

Raw close prices come in as wide or long CSV. Assets that do not cover the
full calendar (gaps, late listings, early delistings, bad cells) are dropped
with a log line; everything downstream works on a dense (n_assets, n_steps)
float64 matrix.

Per-step relative returns are gross: r_t = p_t / p_{t-1}. Normalized prices
rebase every asset to 100 at the first step, p_norm_t = 100 * prod r_s, so
price-level factors are comparable across assets; to_normalized_prices
returns them as a plain (n_assets, n_steps) array. A ReturnMatrix keeps the
calendar, and the asset ids live only on the PriceTable.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .jsonfields import ROWS, STRINGS, check

logger = logging.getLogger(__name__)

SNAPSHOT_SCHEMA = "evofactor/price-table@1"

# Sentinel date labelling the synthetic base column when a file of return
# relatives is ingested; it sorts before any real ISO date.
BASE_DATE = "0000-00-00"


class IngestError(ValueError):
    """Raised when an input file cannot be turned into a dense price table."""


@dataclass(frozen=True)
class PriceTable:
    """Dense close-price matrix: prices[i, t] is asset i at date t."""

    asset_ids: tuple[str, ...]
    dates: tuple[str, ...]
    prices: np.ndarray  # (n_assets, n_steps) float64, strictly positive
    dropped: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        prices = np.asarray(self.prices, dtype=np.float64)
        object.__setattr__(self, "prices", prices)
        if prices.ndim != 2:
            raise ValueError("prices must be a 2-d matrix")
        n, steps = prices.shape
        if n != len(self.asset_ids):
            raise ValueError("asset_ids length does not match price rows")
        if steps != len(self.dates):
            raise ValueError("dates length does not match price columns")
        if n < 1 or steps < 2:
            raise ValueError("need at least one asset and two dates")
        if len(set(self.asset_ids)) != n:
            raise ValueError("duplicate asset ids")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
            raise ValueError("prices must be finite and strictly positive")


@dataclass(frozen=True)
class ReturnMatrix:
    """Gross relative returns: values[i, t] = prices[i, t+1] / prices[i, t].

    dates is the full price calendar (length n_steps); values[:, t] is the
    return landing on dates[t+1]. Row i is the PriceTable's asset i.
    """

    dates: tuple[str, ...]
    values: np.ndarray  # (n_assets, n_steps - 1)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape[1] != len(self.dates) - 1:
            raise ValueError("return columns must be one fewer than dates")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValueError("relative returns must be finite and positive")


def _parse_cell(text: str) -> float | None:
    text = text.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    if not np.isfinite(value) or value <= 0.0:
        return None
    return value


def _read_wide(path: str) -> tuple[list[str], list[str], dict[str, dict[str, float | None]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or len(rows[0]) < 2:
        raise IngestError(f"{path}: expected a header of date plus asset columns")
    header = [c.strip() for c in rows[0]]
    assets = header[1:]
    if len(set(assets)) != len(assets):
        raise IngestError(f"{path}: duplicate asset column in header")
    dates: list[str] = []
    cells: dict[str, dict[str, float | None]] = {a: {} for a in assets}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise IngestError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
        date = row[0].strip()
        if date in cells[assets[0]]:
            raise IngestError(f"{path}:{lineno}: duplicated date {date!r}")
        dates.append(date)
        for asset, cell in zip(assets, row[1:]):
            cells[asset][date] = _parse_cell(cell)
    return assets, dates, cells


def _read_long(path: str) -> tuple[list[str], list[str], dict[str, dict[str, float | None]]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows or len(rows[0]) < 3:
        raise IngestError(f"{path}: expected a header of date,asset_id,value")
    assets: list[str] = []
    dates: list[str] = []
    seen_dates: set[str] = set()
    cells: dict[str, dict[str, float | None]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 3:
            raise IngestError(f"{path}:{lineno}: expected date,asset_id,value")
        date, asset = row[0].strip(), row[1].strip()
        if asset not in cells:
            cells[asset] = {}
            assets.append(asset)
        held = cells[asset]
        # Each asset's dates must sort in file order, so that the calendar,
        # sorted as text, keeps the order of every asset's rows.
        if held and date <= (prev := next(reversed(held))):
            if date in held:
                raise IngestError(f"{path}:{lineno}: duplicated date {date!r} for asset {asset!r}")
            raise IngestError(f"{path}:{lineno}: date {date!r} for asset {asset!r} does not sort after {prev!r}")
        if date not in seen_dates:
            seen_dates.add(date)
            dates.append(date)
        held[date] = _parse_cell(row[2])
    dates.sort()
    return assets, dates, cells


def load_price_table(path: str, layout: str = "wide", values: str = "prices") -> PriceTable:
    """Load a CSV of close prices (or return relatives) into a PriceTable.

    layout: "wide" (date column + one column per asset) or "long"
        (date, asset_id, value rows, each asset's in increasing date order).
    values: "prices" for close prices, "relatives" for gross per-step
        returns r_t = p_t / p_{t-1}. Relatives are rebuilt into prices from
        a base of 100 under a synthetic leading date, so every input row
        contributes one realized return.

    Assets missing any calendar date, or carrying a non-positive or
    non-numeric cell, are dropped and logged. Dropping every asset is an
    IngestError.
    """
    if layout == "wide":
        assets, dates, cells = _read_wide(path)
    elif layout == "long":
        assets, dates, cells = _read_long(path)
    else:
        raise ValueError(f"unknown layout {layout!r}")
    if values not in ("prices", "relatives"):
        raise ValueError(f"unknown values mode {values!r}")
    if len(dates) < 2 and values == "prices":
        raise IngestError(f"{path}: need at least two dates, got {len(dates)}")
    if not dates:
        raise IngestError(f"{path}: no data rows")

    kept: list[str] = []
    dropped: list[tuple[str, str]] = []
    columns: list[list[float]] = []
    for asset in assets:
        series = [cells[asset].get(d) for d in dates]
        bad = next((i for i, v in enumerate(series) if v is None), None)
        if bad is not None:
            reason = f"missing or invalid value at {dates[bad]}"
            dropped.append((asset, reason))
            logger.info("dropping asset %s: %s", asset, reason)
            continue
        kept.append(asset)
        columns.append(series)  # type: ignore[arg-type]
    if not kept:
        raise IngestError(f"{path}: all assets dropped")

    matrix = np.asarray(columns, dtype=np.float64)
    if values == "relatives":
        # Each input row is a gross return; integrate from a base of 100.
        matrix = 100.0 * np.cumprod(matrix, axis=1)
        matrix = np.hstack([np.full((matrix.shape[0], 1), 100.0), matrix])
        dates = [BASE_DATE] + dates
    return PriceTable(tuple(kept), tuple(dates), matrix, tuple(dropped))


def to_relative_returns(table: PriceTable) -> ReturnMatrix:
    """Gross per-step returns; column t is the return landing on date t+1."""
    values = table.prices[:, 1:] / table.prices[:, :-1]
    return ReturnMatrix(table.dates, values)


def to_normalized_prices(returns: ReturnMatrix) -> np.ndarray:
    """Base-100 price paths, (n_assets, n_steps): a row cumprod of the
    relatives from 100, so column 0 is 100 for every asset."""
    n = returns.values.shape[0]
    return np.hstack([np.full((n, 1), 100.0), 100.0 * np.cumprod(returns.values, axis=1)])


def window_matrices(
    norm: np.ndarray, returns: ReturnMatrix, t: int, lookback: int
) -> tuple[np.ndarray, np.ndarray]:
    """All-asset window at price step t: (prices, returns), each (n, lookback).

    norm is to_normalized_prices(returns). Prices cover steps
    t-lookback+1 .. t; returns cover the same span (return landing on step s
    sits at returns.values[:, s-1]).
    """
    if lookback < 1:
        raise ValueError("lookback must be positive")
    if t < lookback:
        raise ValueError(
            f"insufficient history: step {t} needs {lookback} prior steps"
        )
    if t >= norm.shape[1]:
        raise ValueError(f"step {t} out of range")
    prices = norm[:, t - lookback + 1 : t + 1]
    rets = returns.values[:, t - lookback : t]
    return prices, rets


def save_snapshot(table: PriceTable, path: str) -> None:
    """Write a versioned JSON snapshot; byte-stable for identical tables."""
    doc = {
        "schema": SNAPSHOT_SCHEMA,
        "asset_ids": list(table.asset_ids),
        "dates": list(table.dates),
        "prices": [[float(v) for v in row] for row in table.prices],
    }
    with open(path, "w") as handle:  # one dumps call runs the C encoder; json.dump never does
        handle.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


_SNAPSHOT_FIELDS = {"schema": (repr(SNAPSHOT_SCHEMA), lambda v: v == SNAPSHOT_SCHEMA),
                    "asset_ids": STRINGS, "dates": STRINGS, "prices": ROWS}


def load_snapshot(path: str) -> PriceTable:
    try:
        with open(path) as handle:
            doc = json.load(handle)
        check(doc, _SNAPSHOT_FIELDS)
        return PriceTable(tuple(doc["asset_ids"]), tuple(doc["dates"]), np.asarray(doc["prices"], dtype=np.float64))
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from None
