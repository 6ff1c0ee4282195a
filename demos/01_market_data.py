"""Load prices, build return matrices, and slice rolling windows.

Generates a small synthetic price table (or ingests a CSV when --csv is
given), then walks through the transforms every other component consumes:
gross return relatives, base-100 normalized paths, and lookback windows.
"""
from __future__ import annotations

import argparse
import logging

from evofactor.market_data import (
    load_price_table,
    to_normalized_prices,
    to_relative_returns,
    window_matrices,
)
from evofactor.synthetic import random_walk_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", help="optional wide CSV of prices to ingest instead")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    if args.csv:
        table = load_price_table(args.csv)
    else:
        table = random_walk_table(n_assets=6, n_steps=40, seed=args.seed)
    print(f"assets: {table.asset_ids}")
    print(f"steps:  {len(table.dates)} price records, {table.dates[0]} .. {table.dates[-1]}")

    rm = to_relative_returns(table)
    norm = to_normalized_prices(rm)
    print(f"\nreturn matrix shape {rm.values.shape} (asset x step, gross relatives)")
    print(f"first asset, first 5 relatives: {[round(float(v), 4) for v in rm.values[0, :5]]}")
    print(f"normalized path starts at {norm[0, 0]:.1f} for every asset")

    # A factor at step t sees exactly the trailing `lookback` columns.
    t, lookback = 30, 14
    prices_win, returns_win = window_matrices(norm, rm, t, lookback)
    print(f"\nwindow at t={t}, lookback={lookback}: prices {prices_win.shape}, "
          f"returns {returns_win.shape}")
    print(f"window closes on the value used for step {t} scoring: "
          f"{prices_win[0, -1]:.3f}")


if __name__ == "__main__":
    main()
