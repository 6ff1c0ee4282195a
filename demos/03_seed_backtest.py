"""Static backtest of the built-in factor library.

Runs the sparse top-m strategy with a frozen seed library on a synthetic
market where one asset quietly outperforms, then prints the wealth path
summary and the per-factor report the search loop would use for ranking.
"""
from __future__ import annotations

import argparse
import logging

import numpy as np

from evofactor import metrics
from evofactor.evolution import EvolutionConfig, run_evolution
from evofactor.seeds import seed_factors
from evofactor.synthetic import dominant_asset_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--steps", type=int, default=220)
    parser.add_argument("--m", type=int, default=3, help="portfolio cardinality")
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    table = dominant_asset_table(n_assets=12, n_steps=args.steps, seed=args.seed)
    cfg = EvolutionConfig(m=args.m, k_top=3, seed_windows=(7, 14), recall_n=5)
    result = run_evolution(table, cfg, gen=None, pool=seed_factors((7, 14)))

    grosses = [row.step_return for row in result.ledger]
    path = metrics.WealthPath.from_returns(grosses, initial=100.0)
    baseline = metrics.WealthPath.from_returns(
        [row.baseline_return for row in result.ledger], initial=100.0
    )
    print(f"strategy final {path.values[-1]:.2f} vs 1/N final {baseline.values[-1]:.2f}")
    print(f"sharpe {metrics.sharpe_ratio(np.asarray(grosses) - 1.0).value:.3f}  "
          f"max drawdown {metrics.max_drawdown(path):.3f}")

    held = {}
    for row in result.ledger:
        for asset in row.selected_assets:
            held[asset] = held.get(asset, 0) + 1
    top_held = sorted(held.items(), key=lambda kv: -kv[1])[:3]
    print("most held assets:", ", ".join(f"{a} ({c} steps)" for a, c in top_held))

    print(f"\nper-factor trailing stats at step {result.tracker.reached}:")
    print(f"{'factor':>22}  {'final_value':>11}  {'mean_rankic':>11}")
    names = sorted(rec.name for rec in result.pool)[:8]
    perf, qual = result.tracker.stat(names, cfg.stats_window, cfg.recall_n)
    for name in names:
        print(f"{name:>22}  {perf[name]['final_value']:>11.3f}  {qual[name]['mean_rankic']:>11.4f}")


if __name__ == "__main__":
    main()
