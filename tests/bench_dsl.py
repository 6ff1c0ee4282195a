"""DSL-layer microbenchmark: evaluate_panel on one time-series op per case.

Each case evaluates `op(prices, window)` over one panel block, at windows 3
and 21, on the block shapes of the benchmark's `search` workload (40 assets
x 59 steps) and `backtest` workload (200 assets x 89 steps). The file is not
named test_*.py, so the test suite does not collect it. Run it with

    PYTHONPATH=src python -m pytest tests/bench_dsl.py --benchmark-only
"""
from __future__ import annotations

import numpy as np
import pytest

from evofactor import dsl
from evofactor.dsl import TS_OPS, Feature, TimeSeries

SHAPES = {"search": (40, 59), "backtest": (200, 89)}


def _block(n: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, size=(n, steps)), axis=1))
    returns = rng.lognormal(0.0, 0.02, size=(n, steps))
    return prices, returns


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("window", (3, 21))
@pytest.mark.parametrize("op", TS_OPS)
def test_evaluate_panel(benchmark, op: str, window: int, shape: str) -> None:
    prices, returns = _block(*SHAPES[shape])
    expr = TimeSeries(op, Feature("prices"), window)
    out = benchmark(dsl.evaluate_panel, expr, prices, returns)
    assert out.shape == prices.shape
