"""The benchmark tracer's function names must name functions of the package:
a name that no longer resolves makes its per-layer metric read 0 on working
code. Its hooks must count from the arguments and results those functions
take and return. The tracer is imported and read, never written or
installed."""
from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from evofactor import dsl, evolution, generator
from evofactor.evolution import EvolutionConfig, PerfTracker, SearchRecord
from evofactor.generator import GenerationRequest, GeneratorConfig
from evofactor.seeds import make_record, seed_factors

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.append(str(PERFBENCH))
from tracer import HOOKS, NAMED, PACKAGE  # noqa: E402

# Names the tracer still lists for functions that were renamed or removed.
# Mending the tracer's groups empties this set.
KNOWN_STALE = {
    "dsl.evaluate",
    "market_data.window_at",
    "metrics.rankic_series",
    "metrics.recall_precision_at_n",
    "evolution.PerfTracker.performance_stats",
    "evolution.PerfTracker.quality_stats",
    "portfolio.write_ledger_json",
}


def _resolves(name: str) -> bool:
    layer, *path = name.split(".")
    obj = importlib.import_module(f"{PACKAGE}.{layer}")
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return callable(obj)


def test_every_traced_name_resolves_but_the_known_stale_ones() -> None:
    names = NAMED | HOOKS.keys()
    assert {name for name in names if not _resolves(name)} == KNOWN_STALE
    for name in ("evolution.PerfTracker.stat", "evolution.benchmark_gate",
                 "evolution.composite_scores", "evolution.clean_factor_pool"):
        assert name in names and _resolves(name)


def _hooked_calls(tmp_path: Path) -> dict[str, tuple[str, float, list[tuple[tuple, object]]]]:
    """Each hooked name's real calls as (positional args, result), with the
    key its hook adds to and the total those calls are known to make."""
    def call(fn, *args):
        return args, fn(*args)

    def record(name: str, text: str):
        return make_record(name, dsl.parse(text), "mutated", (), 65)

    seeds = tuple(seed_factors((7,)))  # 12 seeds
    pool = {rec.name: rec for rec in seeds}
    relatives = np.exp(np.random.default_rng(0).normal(0.0, 0.02, size=(7, 30)))
    req = GenerationRequest(65, (), {}, {}, seeds, 3, 5, seeds, rng_seed=0)
    # Three items parse; the fourth names no operator.
    scripted = json.dumps(
        [
            "gen0_7_v1 = ts_delta(prices, 7)",
            "gen1_3_v1 = ts_mean(returns, 3)",
            "gen2_14_v1 = ts_std(prices, 14)",
            "gen3_7_v1 = no_such_op(prices)",
        ]
    )
    fresh = record("gen0_7_v1", "mul(ts_delta(prices, 7), 2.0)")
    flat = record("gen1_7_v1", "add(1.0, 2.0)")  # constant scores: rejected
    extras = [record(f"extra{w}_{w}_v1", f"ts_mean(returns, {w})") for w in dsl.ALLOWED_WINDOWS]
    state = {"portfolio_value": 100.0, "baseline_value": 100.0, "prev_weights": None, "prev_t": -1, "phase": "live"}
    path = str(tmp_path / "checkpoints.jsonl")
    evolution.save_checkpoints([SearchRecord(t, seeds, {}, {}, state) for t in (65, 70, 75)], path)
    return {
        "dsl.evaluate_cross_section": (
            "dsl.eval_rows", 7, [call(dsl.evaluate_cross_section, seeds[0].expr, 100.0 * relatives, relatives)]
        ),
        "generator.generate_offline": ("generator.proposed", 3, [call(generator.generate_offline, req)]),
        "generator.generate_remote": (
            "generator.proposed",
            3,
            [call(generator.generate_remote, dataclasses.replace(req, m_candidates=4), GeneratorConfig(),
                  lambda system, user: scripted, ())],
        ),
        "generator.validate_candidate": (
            "generator.valid",
            1,
            [call(generator.validate_candidate, fresh, pool), call(generator.validate_candidate, flat, pool)],
        ),
        "evolution.clean_factor_pool": (  # 16 factors pruned to 12
            "evolution.pruned",
            4,
            [call(evolution.clean_factor_pool, {**pool, **{rec.name: rec for rec in extras}}, PerfTracker(),
                  EvolutionConfig(max_pool_size=12, keep_top_n=4))],
        ),
        "evolution.benchmark_gate": (
            "evolution.gate_kept",
            1,
            [call(evolution.benchmark_gate, 101.0, 0.0, 100.0, 0.1), call(evolution.benchmark_gate, 99.0, 0.0, 100.0, 0.1)],
        ),
        "evolution.load_checkpoints": ("evolution.checkpoint_records_read", 3, [call(evolution.load_checkpoints, path)]),
    }


def test_each_hook_counts_what_its_calls_did(tmp_path) -> None:
    # A hook reads its call's arguments and result by position and shape; a
    # change to either would skew its per-layer count without an error.
    calls = _hooked_calls(tmp_path)
    assert calls.keys() == HOOKS.keys()
    for name, (key, total, made) in calls.items():
        counts: dict[str, float] = defaultdict(float)
        for args, result in made:
            HOOKS[name](counts, args, result)
        assert counts == {key: total}, name
