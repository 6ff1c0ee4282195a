"""Full evolutionary search with the deterministic offline generator.

Plants a momentum signal in synthetic returns, lets the search mutate and
recombine the seed library, and prints what it decided, from the outcome of
every step: how many candidates were rejected, gated out, admitted and
pruned; then what survived: the discovered expressions, their lineage, and
the wealth edge over the 1/N baseline.
"""
from __future__ import annotations

import argparse
import logging

from evofactor.evolution import EvolutionConfig, run_evolution
from evofactor.generator import generate_offline
from evofactor.synthetic import momentum_rankic_oracle, planted_momentum_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="search rng seed")
    parser.add_argument("--steps", type=int, default=240)
    parser.add_argument("--signal", type=float, default=0.5)
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    table = planted_momentum_table(
        n_assets=15, n_steps=args.steps, seed=7, signal=args.signal
    )
    print(f"planted 7-step momentum, oracle RankIC "
          f"{momentum_rankic_oracle(table):.3f}")

    cfg = EvolutionConfig(
        m=4, k_top=3, m_candidates=4, recall_n=5,
        seed_windows=(7,), max_pool_size=24, keep_top_n=8, rng_seed=args.seed,
    )
    outcomes = []
    result = run_evolution(table, cfg, gen=generate_offline, emit=outcomes.append)
    searches = [outcome for outcome in outcomes if outcome.record is not None]

    last = result.ledger[-1]
    print(f"\nstrategy final {last.portfolio_value:.2f} vs 1/N {last.baseline_value:.2f} "
          f"({len(searches)} search steps, pool size {len(result.pool)})")
    gated_out = sum(not keep for o in searches for _, (keep, _), _ in o.gates)
    print(f"decisions: {sum(len(o.rejected) for o in searches)} rejected, {gated_out} gated out, "
          f"{sum(len(o.admitted) for o in searches)} admitted, {sum(len(o.pruned) for o in searches)} pruned")

    discovered = [r for r in result.pool if r.origin != "seed"]
    print(f"\n{len(discovered)} factors survived mutation/crossover and pruning:")
    for rec in sorted(discovered, key=lambda r: r.created_step)[:10]:
        parents = " + ".join(rec.parents) if rec.parents else "-"
        print(f"  step {rec.created_step:>3}  {rec.origin:<9} {rec.name}")
        print(f"           from {parents}")
        print(f"           {rec.expr_text}")


if __name__ == "__main__":
    main()
