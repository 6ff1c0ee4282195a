"""Evolutionary factor search over rolling price windows: an expression
DSL, a sparse top-m portfolio backtester, and a generate/validate/prune
evolution loop with offline or remote candidate generators."""

from __future__ import annotations

__version__ = "0.1.0"

from .aggregation import MergedRecord, aggregate_records, merge_runs, pooled_library
from .dsl import ALLOWED_WINDOWS, Expr, evaluate_cross_section, parse, print_expr
from .evolution import (
    EvolutionConfig,
    EvolutionResult,
    PerfTracker,
    ScoreCache,
    SearchRecord,
    benchmark_gate,
    clean_factor_pool,
    filter_factor_versions,
    replay_tracker,
    run_evolution,
)
from .generator import (
    GenerationRequest,
    GenerationResult,
    GeneratorConfig,
    build_prompt,
    generate_offline,
    generate_remote,
    validate_candidate,
)
from .market_data import (
    NormalizedPrices,
    PriceTable,
    ReturnMatrix,
    load_price_table,
    load_snapshot,
    save_snapshot,
    to_normalized_prices,
    to_relative_returns,
    window_matrices,
)
from .metrics import (
    WealthPath,
    cumulative_wealth,
    grade_rows,
    max_drawdown,
    rank_icir,
    rankic_series,
    recall_precision_at_n,
    sharpe_ratio,
    spearman_rank_corr,
)
from .portfolio import (
    CostModel,
    LedgerRow,
    PortfolioWeights,
    equal_weights,
    positive_score_weights,
    select_top_m,
    step_return,
    temperature_weights,
)
from .seeds import FactorRecord, load_library, save_library, seed_factors

__all__ = [
    "ALLOWED_WINDOWS",
    "CostModel",
    "EvolutionConfig",
    "EvolutionResult",
    "Expr",
    "FactorRecord",
    "GenerationRequest",
    "GenerationResult",
    "GeneratorConfig",
    "LedgerRow",
    "MergedRecord",
    "NormalizedPrices",
    "PerfTracker",
    "PortfolioWeights",
    "PriceTable",
    "ReturnMatrix",
    "ScoreCache",
    "SearchRecord",
    "WealthPath",
    "aggregate_records",
    "benchmark_gate",
    "build_prompt",
    "clean_factor_pool",
    "cumulative_wealth",
    "equal_weights",
    "evaluate_cross_section",
    "filter_factor_versions",
    "generate_offline",
    "generate_remote",
    "grade_rows",
    "load_library",
    "load_price_table",
    "load_snapshot",
    "max_drawdown",
    "merge_runs",
    "parse",
    "pooled_library",
    "positive_score_weights",
    "print_expr",
    "rank_icir",
    "rankic_series",
    "recall_precision_at_n",
    "replay_tracker",
    "run_evolution",
    "save_library",
    "save_snapshot",
    "seed_factors",
    "select_top_m",
    "sharpe_ratio",
    "spearman_rank_corr",
    "step_return",
    "temperature_weights",
    "to_normalized_prices",
    "to_relative_returns",
    "validate_candidate",
    "window_matrices",
]
