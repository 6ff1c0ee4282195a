"""The benchmark tracer's function names must name functions of the package:
a name that no longer resolves makes its per-layer metric read 0 on working
code. The tracer is imported and read, never written or installed."""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

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
