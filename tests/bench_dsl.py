"""DSL-layer microbenchmarks: evaluate_panel on the loop's panel blocks, and parse.

`test_evaluate_panel` evaluates `op(prices, window)` over one panel block, at
windows 3 and 21, on these block shapes:

- `search`, `backtest`: the blocks of the benchmark's `search` workload (40
  assets x 59 steps) and `backtest` workload (200 assets x 89 steps) when a
  block carried lookback - 1 columns of history;
- `<workload>_rf4`, `<workload>_rf22`: a full block of `lookback` steps plus
  the rf - 1 history columns ScoreCache now feeds a factor of receptive field
  rf, with the workloads' lookbacks 30 and 60.

`test_seed_library` evaluates the 42 seed factors over one `backtest` block:
30 steps of 200 assets, each factor on its own rf - 1 columns of history, as
the `backtest` workload's ScoreCache does.

`test_parse_expressions` parses the 42 seed factors' texts and the printed
texts of `RANDOM_TREES` random trees from tests/strategies.py (drawn with a
fixed seed), each once, as a checkpoint reader parses the distinct texts of
its inputs.

The file is not named test_*.py, so the test suite does not collect it.
Run it with

    PYTHONPATH=src python -m pytest tests/bench_dsl.py --benchmark-only
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from strategies import expressions

from evofactor import dsl, seeds
from evofactor.dsl import TS_OPS, Feature, TimeSeries

SHAPES = {
    "search": (40, 59),
    "backtest": (200, 89),
    **{f"search_rf{rf}": (40, 30 + rf - 1) for rf in (4, 22)},
    **{f"backtest_rf{rf}": (200, 60 + rf - 1) for rf in (4, 22)},
}
BACKTEST_STEPS = 30  # live steps of the `backtest` workload, all in one block
RANDOM_TREES = 100


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


def test_seed_library(benchmark) -> None:
    library = [rec.expr for rec in seeds.seed_factors()]
    spans = [BACKTEST_STEPS + dsl.receptive_field(expr) - 1 for expr in library]
    prices, returns = _block(200, max(spans))

    def evaluate_all() -> list[np.ndarray]:
        return [
            dsl.evaluate_panel(expr, prices[:, -span:], returns[:, -span:])
            for expr, span in zip(library, spans)
        ]

    out = benchmark(evaluate_all)
    assert len(out) == 42 and all(block.shape == (200, span) for block, span in zip(out, spans))


def _random_texts(count: int) -> list[str]:
    texts: list[str] = []

    @settings(max_examples=count, derandomize=True, database=None, phases=[Phase.generate])
    @given(expressions())
    def draw(expr: dsl.Expr) -> None:
        texts.append(dsl.print_expr(expr))

    draw()
    return texts


def test_parse_expressions(benchmark) -> None:
    texts = [rec.expr_text for rec in seeds.seed_factors()] + _random_texts(RANDOM_TREES)
    out = benchmark(lambda: [dsl.parse(text) for text in texts])
    assert [dsl.print_expr(expr) for expr in out] == texts
