"""Grading microbenchmark: metrics.grade_rows on the loop's block shapes.

Each case grades a block of score rows against realized rows ranked once by
metrics.rank_realized, as update_tracker and gate_batch do:

- `backtest`: the `backtest` workload's 42 seed factors x 200 assets, one
  shared step;
- `backtest_block`: those 42 factors over a 5-step search block, each score
  row graded by step index into the run's 90-step realized table, in one
  call (ScoreCache.grade splits this block into calls of at most
  evolution.GRADE_CHUNK score elements);
- `search`: a `search` pool of 35 factors x 40 assets, one shared step;
- `search_block`: 33 factors x 5 steps x 40 assets by step index into a
  300-step table;
- `gate`: gate_batch's 5 steps x 40 assets, one realized row per step.

A block case grades as many rows as five one-step cases of its pool. Each
shape runs with tie-free rows and with tied rows, where every seventh row is
drawn from five values. m and recall_n are the workloads' 10 and 20. The
file is not named test_*.py, so the test suite does not collect it. Run it
with

    PYTHONPATH=src python -m pytest tests/bench_metrics.py --benchmark-only
"""
from __future__ import annotations

import numpy as np
import pytest

from evofactor import metrics

# name -> (factors, steps graded, assets, realized rows: 1 shared, one per
# score row, or a run's table addressed by step index)
SHAPES = {
    "backtest": (42, 1, 200, "shared"),
    "backtest_block": (42, 5, 200, 90),
    "search": (35, 1, 40, "shared"),
    "search_block": (33, 5, 40, 300),
    "gate": (1, 5, 40, "per_row"),
}
M, RECALL_N = 10, 20


def _block(
    factors: int, steps: int, n: int, realized_rows: int | str, tied: bool
) -> tuple[np.ndarray, metrics.RealizedRanks, np.ndarray | None]:
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(factors * steps, n))
    if tied:
        scores[::7] = rng.integers(0, 5, size=scores[::7].shape)
    if realized_rows == "shared":
        table, index = rng.lognormal(0.0, 0.02, size=(1, n)), None
    elif realized_rows == "per_row":
        table, index = rng.lognormal(0.0, 0.02, size=(len(scores), n)), None
    else:
        first = realized_rows // 2  # a block in mid-run
        table = rng.lognormal(0.0, 0.02, size=(realized_rows, n))
        index = np.tile(np.arange(first, first + steps), factors)
    return scores, metrics.rank_realized(table), index


@pytest.mark.parametrize("ties", ("tie_free", "tied"))
@pytest.mark.parametrize("shape", SHAPES)
def test_grade_rows(benchmark, shape: str, ties: str) -> None:
    factors, steps, n, realized_rows = SHAPES[shape]
    scores, realized, index = _block(factors, steps, n, realized_rows, ties == "tied")
    grades = benchmark(metrics.grade_rows, scores, realized, M, RECALL_N, index)
    assert [len(g) for g in grades] == [factors * steps] * 3
