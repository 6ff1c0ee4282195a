"""Merge several independent search runs into one pooled library.

Repeats the offline search under different rng seeds, aligns the checkpoint
streams, applies the max-merge tie rule, and re-backtests the pooled
library once -- the aggregated evaluation workflow.
"""
from __future__ import annotations

import argparse
import logging

from evofactor.aggregation import merge_runs, pooled_library
from evofactor.evolution import EvolutionConfig, run_evolution
from evofactor.generator import generate_offline
from evofactor.synthetic import planted_momentum_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--steps", type=int, default=240)
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING)

    table = planted_momentum_table(n_assets=15, n_steps=args.steps, seed=7, signal=0.5)

    def cfg(seed: int) -> EvolutionConfig:
        return EvolutionConfig(
            m=4, k_top=3, m_candidates=4, recall_n=5,
            seed_windows=(7,), max_pool_size=24, keep_top_n=8, rng_seed=seed,
        )

    streams = []
    for seed in range(args.runs):
        outcomes = []
        result = run_evolution(table, cfg(seed), gen=generate_offline, emit=outcomes.append)
        streams.append([outcome.record for outcome in outcomes if outcome.record is not None])
        print(f"run {seed}: final {result.ledger[-1].portfolio_value:.2f}, "
              f"pool {len(result.pool)}")

    merged = merge_runs(streams)
    library = pooled_library(merged)
    print(f"\nmerged {len(merged)} aligned checkpoints -> pooled library of "
          f"{len(library)} factors")

    final = merged[-1]
    ranked = sorted(final.performance, key=lambda n: -final.performance[n])[:5]
    print("\nbest factors across runs (max-merged final_value):")
    for name in ranked:
        print(f"  {name:<34} fv {final.performance[name]:>8.3f}  "
              f"rankic {final.quality[name]:>7.4f}")
        print(f"    {final.expressions[name]}")

    pooled = run_evolution(table, cfg(0), gen=None, pool=list(library))
    last = pooled.ledger[-1]
    print(f"\npooled-library backtest: final {last.portfolio_value:.2f} "
          f"vs 1/N {last.baseline_value:.2f}")


if __name__ == "__main__":
    main()
