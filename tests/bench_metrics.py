"""Grading microbenchmark: metrics.grade_rows on the loop's block shapes.

Each case grades a block of score rows against realized rows ranked once by
metrics.rank_realized, as update_tracker and benchmark_gate do:

- `backtest`: the `backtest` workload's 42 seed factors x 200 assets, one
  shared step;
- `search`: a `search` pool of 35 factors x 40 assets, one shared step;
- `gate`: benchmark_gate's 5 steps x 40 assets, one realized row per step.

Each shape runs with tie-free rows and with tied rows, where every seventh
row is drawn from five values. m and recall_n are the workloads' 10 and 20.
The file is not named test_*.py, so the test suite does not collect it. Run
it with

    PYTHONPATH=src python -m pytest tests/bench_metrics.py --benchmark-only
"""
from __future__ import annotations

import numpy as np
import pytest

from evofactor import metrics

SHAPES = {"backtest": (42, 200, True), "search": (35, 40, True), "gate": (5, 40, False)}
M, RECALL_N = 10, 20


def _block(rows: int, n: int, shared: bool, tied: bool) -> tuple[np.ndarray, metrics.RealizedRanks]:
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(rows, n))
    if tied:
        scores[::7] = rng.integers(0, 5, size=scores[::7].shape)
    realized = rng.lognormal(0.0, 0.02, size=(1 if shared else rows, n))
    return scores, metrics.rank_realized(realized)


@pytest.mark.parametrize("ties", ("tie_free", "tied"))
@pytest.mark.parametrize("shape", SHAPES)
def test_grade_rows(benchmark, shape: str, ties: str) -> None:
    rows, n, shared = SHAPES[shape]
    scores, realized = _block(rows, n, shared, ties == "tied")
    grades = benchmark(metrics.grade_rows, scores, realized, M, RECALL_N)
    assert [len(g) for g in grades] == [rows] * 3
