"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each criterion states its tolerance inline; shared heavy work (the planted
three-run search) lives in a module-scoped fixture.
"""
from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

import oracles
from evofactor import dsl, metrics, portfolio
from evofactor.aggregation import merge_runs, pooled_library
from evofactor.dsl import (
    ALLOWED_WINDOWS,
    BINARY_OPS,
    FEATURES,
    TS_OPS,
    UNARY_OPS,
    Binary,
    Const,
    Feature,
    Last,
    TimeSeries,
    Unary,
)
from evofactor.evolution import EvolutionConfig, StepOutcome, run_evolution
from evofactor.generator import generate_offline
from evofactor.market_data import (
    to_normalized_prices,
    to_relative_returns,
    window_matrices,
)
from evofactor.seeds import make_record, seed_factors
from evofactor.synthetic import (
    momentum_rankic_oracle,
    planted_momentum_table,
    random_walk_table,
)

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@contextmanager
def _criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {label}: FAIL")
        raise
    print(f"[criterion {number:02d}] {label}: PASS")


def _close(a: float, b: float, tol: float) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


# ------------------------------------------------- shared planted search


def _planted_cfg(seed: int, cost: float = 0.0) -> EvolutionConfig:
    return EvolutionConfig(
        search_interval=5,
        m_candidates=5,
        m=10,
        rng_seed=seed,
        seed_windows=(7,),
        max_pool_size=30,
        keep_top_n=10,
        cost_rate=cost,
    )


def _checkpoints(records: list) -> Callable[[StepOutcome], None]:
    """A run's emit that keeps each search step's checkpoint in records."""

    def keep(outcome: StepOutcome) -> None:
        if outcome.record is not None:
            records.append(outcome.record)

    return keep


@pytest.fixture(scope="module")
def planted() -> SimpleNamespace:
    # Process CPU time: other processes sharing the CPUs do not count.
    start = time.process_time()
    table = planted_momentum_table(n_assets=40, n_steps=800, seed=7)
    oracle_ic = momentum_rankic_oracle(table, window=7, start=30)
    streams: tuple[list, ...] = ([], [], [])
    runs = [
        run_evolution(table, _planted_cfg(s), gen=generate_offline, emit=_checkpoints(streams[s])) for s in (0, 1, 2)
    ]
    merged = merge_runs(streams)
    library = pooled_library(merged)

    # Best pooled factor by merged quality, then its RankIC measured on data.
    final = merged[-1]
    best_name = max(final.quality, key=lambda n: (final.quality[n], n))
    best = next(rec for rec in library if rec.name == best_name)
    rm = to_relative_returns(table)
    norm = to_normalized_prices(rm)
    ics = []
    for t in range(30, rm.values.shape[1] - 1):
        pw, rw = window_matrices(norm, rm, t, 30)
        val = metrics.spearman_rank_corr(
            dsl.evaluate_cross_section(best.expr, pw, rw), rm.values[:, t + 1]
        )
        if not val.degenerate:
            ics.append(val.value)
    strategy = run_evolution(table, _planted_cfg(0), gen=None, pool=list(library))
    return SimpleNamespace(
        table=table,
        oracle_ic=oracle_ic,
        runs=runs,
        merged=merged,
        library=library,
        best=best,
        best_mean_ic=float(np.mean(ics)),
        strategy=strategy,
        elapsed=time.process_time() - start,
    )


# ------------------------------------------------------------ criterion 1


def _equal_weight_engine_numbers(rows) -> tuple[float, float, float]:
    grosses = [row.step_return for row in rows]
    path = metrics.WealthPath.from_returns(grosses, initial=1.0)
    return (
        metrics.cumulative_wealth(path),
        metrics.sharpe_ratio(np.asarray(grosses) - 1.0).value,
        metrics.max_drawdown(path),
    )


def _ff25_csv() -> str:
    env = os.environ.get("FF25_CSV", "")
    if env and os.path.exists(env):
        return env
    local = os.path.join(_DATA_DIR, "ff25.csv")
    return local if os.path.exists(local) else ""


def _ff25_within_tolerance(path: str) -> bool:
    """Wide CSV of monthly percent returns for the 25 portfolios."""
    import csv

    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        rows = [[1.0 + float(cell) / 100.0 for cell in line[1:]] for line in reader]
    grosses = [float(np.mean(row)) for row in rows]
    path_w = metrics.WealthPath.from_returns(grosses, initial=1.0)
    cw = metrics.cumulative_wealth(path_w)
    sr = metrics.sharpe_ratio(np.asarray(grosses) - 1.0).value
    mdd = metrics.max_drawdown(path_w)
    return (
        len(rows) == 623
        and abs(cw - 374.13) / 374.13 <= 0.02
        and abs(sr - 0.229) / 0.229 <= 0.02
        and abs(mdd - 0.548) / 0.548 <= 0.02
    )


def test_criterion_01_equal_weight_baseline() -> None:
    start = time.perf_counter()
    vintage = _ff25_csv()
    if vintage and _ff25_within_tolerance(vintage):
        with _criterion(1, "1/N baseline matches the published monthly numbers"):
            assert time.perf_counter() - start < 5.0
        return
    # No compatible data vintage: internal-consistency downgrade. The engine
    # ledger for an m=n, equal-weight, zero-cost run must match a plain
    # spreadsheet-style recomputation on the same rows to 1e-9.
    with _criterion(1, "1/N baseline internally consistent to 1e-9"):
        table = random_walk_table(25, 623, seed=11, mu=0.009, sigma=0.05)
        cfg = EvolutionConfig(m=25, seed_windows=(7,))
        result = run_evolution(table, cfg, gen=None, pool=seed_factors((7,))[:1])
        assert len(result.ledger) == 623  # one row per monthly return record
        cw, sr, mdd = _equal_weight_engine_numbers(result.ledger)

        prices = table.prices
        net_rows = [
            [float(prices[i, t + 1] / prices[i, t]) - 1.0 for i in range(25)]
            for t in range(623)
        ]
        o_path = oracles.equal_weight_path(net_rows)
        o_cw = o_path[-1] - o_path[0]
        o_sr = oracles.sharpe([oracles.mean(row) for row in net_rows])
        o_mdd = oracles.mdd_bruteforce(o_path)
        assert _close(cw, o_cw, 1e-9)
        assert _close(sr, o_sr, 1e-9)
        assert _close(mdd, o_mdd, 1e-9)
        assert time.perf_counter() - start < 5.0


# ------------------------------------------------------------ criterion 2


def test_criterion_02_metric_oracles() -> None:
    with _criterion(2, "metric suite matches brute-force oracles to 1e-12"):
        rng = np.random.default_rng(20260814)
        start = time.perf_counter()
        for _ in range(1000):  # Spearman with ties
            n = int(rng.integers(3, 40))
            tied = rng.random() < 0.5
            draw = lambda: (
                rng.integers(0, 6, n).astype(float) if tied else rng.normal(size=n)
            )
            x, y = draw(), draw()
            got = metrics.spearman_rank_corr(x, y)
            want = oracles.spearman(list(x), list(y))
            if want is None:
                assert got.degenerate
            else:
                assert _close(got.value, want, 1e-12)
        for _ in range(1000):  # streaming MDD vs exhaustive O(T^2)
            steps = int(rng.integers(2, 60))
            grosses = np.exp(rng.normal(0.0, 0.05, steps))
            if rng.random() < 0.1:
                grosses[rng.integers(0, steps)] = 0.1  # crash step
            path = metrics.WealthPath.from_returns(grosses, initial=float(rng.uniform(0.5, 200)))
            assert _close(
                metrics.max_drawdown(path), oracles.mdd_bruteforce(list(path.values)), 1e-12
            )
        for _ in range(1000):  # Sharpe with options
            n = int(rng.integers(2, 50))
            nets = (
                np.full(n, float(rng.normal(0, 0.02)))
                if rng.random() < 0.1
                else rng.normal(0.005, 0.04, n)
            )
            rf = float(rng.choice([0.0, 0.001]))
            ppy = [None, 12, 252][int(rng.integers(0, 3))]
            got = metrics.sharpe_ratio(nets, risk_free=rf, periods_per_year=ppy)
            want = oracles.sharpe(list(nets), risk_free=rf, periods_per_year=ppy)
            if want is None:
                assert got.degenerate
            else:
                assert _close(got.value, want, 1e-12)
        for _ in range(1000):  # RankICIR
            n = int(rng.integers(1, 30))
            series = (
                np.full(n, 0.03) if rng.random() < 0.1 else rng.uniform(-0.5, 0.5, n)
            )
            got = metrics.rank_icir(series)
            want = oracles.rank_icir(list(series))
            if want is None:
                assert got.degenerate
            else:
                assert _close(got.value, want, 1e-12)
        assert time.perf_counter() - start < 10.0


# ------------------------------------------------------------ criterion 3


def test_criterion_03_seed_formula_fidelity() -> None:
    with _criterion(3, "12 seed formulas match hand oracles on 1000 windows each"):
        rng = np.random.default_rng(31)
        records = seed_factors((7,))
        assert len(records) == 12
        refs = {rec.name: oracles.seed_oracle(rec.name) for rec in records}
        for _ in range(100):  # 100 batches x 10 assets = 1000 windows per factor
            length = int(rng.integers(2, 46))
            full = rng.uniform(20.0, 180.0, size=(10, length + 1))
            prices = full[:, 1:]
            returns = full[:, 1:] / full[:, :-1]
            for rec in records:
                got = dsl.evaluate_cross_section(rec.expr, prices, returns)
                for i in range(10):
                    want = refs[rec.name](list(prices[i]), list(returns[i]))
                    assert _close(float(got[i]), want, 1e-9), rec.name


# ------------------------------------------------------------ criterion 4


def _random_expr(rng: np.random.Generator, depth_left: int) -> dsl.Expr:
    if depth_left <= 1:
        if rng.random() < 0.75:
            return Feature(str(rng.choice(FEATURES)))
        return Const(float(rng.normal()) if rng.random() < 0.8 else float(rng.integers(-5, 6)))
    roll = rng.random()
    if roll < 0.18:
        return _random_expr(rng, 1)
    if roll < 0.40:
        return Unary(str(rng.choice(UNARY_OPS)), _random_expr(rng, depth_left - 1))
    if roll < 0.68:
        return Binary(
            str(rng.choice(BINARY_OPS)),
            _random_expr(rng, depth_left - 1),
            _random_expr(rng, depth_left - 1),
        )
    if roll < 0.94:
        return TimeSeries(
            str(rng.choice(TS_OPS)),
            _random_expr(rng, depth_left - 1),
            int(rng.choice(ALLOWED_WINDOWS)),
        )
    return Last(_random_expr(rng, depth_left - 1))


def test_criterion_04_dsl_soundness() -> None:
    with _criterion(4, "10000 expressions round-trip and evaluate finite"):
        rng = np.random.default_rng(44)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(6, 24)), axis=1))
        returns = np.exp(rng.normal(0, 0.02, size=(6, 24)))
        for _ in range(10000):
            expr = _random_expr(rng, int(rng.integers(1, 6)))
            dsl.validate_expr(expr)
            text = dsl.print_expr(expr)
            assert dsl.parse(text) == expr
            assert dsl.print_expr(dsl.parse(text)) == text
            scores = dsl.evaluate_cross_section(expr, prices, returns)
            assert np.all(np.isfinite(scores))


# ------------------------------------------------------------ criterion 5


def test_criterion_05_planted_signal_recovery(planted: SimpleNamespace) -> None:
    with _criterion(5, "3-run search + aggregation recovers the planted factor"):
        assert 0.25 <= planted.oracle_ic <= 0.35  # planted RankIC sits near 0.3
        assert planted.best_mean_ic >= 0.2
        last = planted.strategy.ledger[-1]
        strategy_cw = last.portfolio_value - 100.0
        baseline_cw = last.baseline_value - 100.0
        assert strategy_cw > baseline_cw
        assert planted.elapsed < 120.0


# ------------------------------------------------------------ criterion 6


def test_criterion_06_sparsity_and_budget(planted: SimpleNamespace) -> None:
    with _criterion(6, "every held portfolio obeys card <= m and unit budget"):
        live_rows = 0
        for result in planted.runs + [planted.strategy]:
            for row in result.ledger:
                if row.phase != "live":
                    assert not row.weights  # baseline phases hold no portfolio
                    continue
                live_rows += 1
                assert len(row.weights) <= 10
                assert all(w > 0.0 for w in row.weights)
                assert abs(sum(row.weights) - 1.0) <= 1e-9
        assert live_rows > 0


# ------------------------------------------------------------ criterion 7


def test_criterion_07_temperature_limits() -> None:
    with _criterion(7, "softmax weights hit the equal and argmax limits"):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            scores = rng.normal(0.0, 1.0, n)
            m = int(rng.integers(1, n + 1))
            sel = portfolio.select_top_m(scores, m)
            hot = portfolio.temperature_weights(sel, scores, tau=1e6)
            for w in hot.weights.values():
                assert abs(w - 1.0 / len(sel)) <= 1e-4
            cold = portfolio.temperature_weights(sel, scores, tau=1e-6)
            top = max(sel, key=lambda i: scores[i])
            assert cold.weights[top] >= 1.0 - 1e-6


# ------------------------------------------------------------ criterion 8


def test_criterion_08_cost_monotonicity(planted: SimpleNamespace) -> None:
    with _criterion(8, "cumulative wealth never rises with the cost rate"):
        wealth = [planted.strategy.ledger[-1].portfolio_value - 100.0]
        for rate in (0.001, 0.002):
            rerun = run_evolution(
                planted.table, _planted_cfg(0, cost=rate), gen=None, pool=list(planted.library)
            )
            wealth.append(rerun.ledger[-1].portfolio_value - 100.0)
        assert wealth[0] >= wealth[1] >= wealth[2]
        traded = sum(row.turnover for row in planted.strategy.ledger)
        if traded > 0.0:
            assert wealth[0] > wealth[1] > wealth[2]


# ------------------------------------------------------------ criterion 9


def test_criterion_09_determinism_and_resume(tmp_path) -> None:
    with _criterion(9, "identical seeds replay and resume byte-identically"):
        table = planted_momentum_table(n_assets=12, n_steps=120, seed=3, signal=0.5)
        cfg = EvolutionConfig(
            search_interval=5, m_candidates=4, m=4, k_top=3, recall_n=5,
            seed_windows=(7,), max_pool_size=20, keep_top_n=8, rng_seed=9,
        )

        def ledger_bytes(rows, name):
            path = tmp_path / name
            portfolio.write_ledger(rows, str(path))
            return path.read_bytes()

        records: list = []
        first = run_evolution(table, cfg, gen=generate_offline, emit=_checkpoints(records))
        second = run_evolution(table, cfg, gen=generate_offline)
        assert ledger_bytes(first.ledger, "a.csv") == ledger_bytes(second.ledger, "b.csv")

        assert len(records) >= 5
        for rec in records[:-1]:  # resume from every mid-run checkpoint
            resumed = run_evolution(table, cfg, gen=generate_offline, resume_from=rec)
            suffix = first.ledger[rec.step + 1:]  # ledger row index == step
            assert ledger_bytes(resumed.ledger, "r.csv") == ledger_bytes(suffix, "s.csv")


# ------------------------------------------------------------ criterion 10


def _golden_run(described: object):
    from evofactor.evolution import SearchRecord

    if isinstance(described, str):  # "len:N:tag" shorthand
        _, count, tag = described.split(":")
        described = [
            {
                "step": 60 + 5 * i,
                "factors": {f"{tag}_7_v1": [100.0 + i, 0.01 * i, "ts_delta(prices, 7)"]},
            }
            for i in range(int(count))
        ]
    out = []
    for doc in described:
        factors = doc["factors"]
        out.append(
            SearchRecord(
                step=doc["step"],
                pool=tuple(
                    make_record(name, dsl.parse(expr), "mutated", (), 0)
                    for name, (_, _, expr) in sorted(factors.items())
                ),
                performance={n: {"final_value": fv} for n, (fv, _, _) in factors.items()},
                quality={n: {"mean_rankic": ic} for n, (_, ic, _) in factors.items()},
                state={},
            )
        )
    return out


def test_criterion_10_merge_golden_suite() -> None:
    with _criterion(10, "merge tie rule and truncation match 20 golden cases"):
        with open(os.path.join(_DATA_DIR, "merge_golden.json")) as handle:
            cases = json.load(handle)
        assert len(cases) == 20
        for case in cases:
            runs = [_golden_run(described) for described in case["runs"]]
            expect = case["expect"]
            if expect.get("error"):
                with pytest.raises(ValueError):
                    merge_runs(runs, n_limit=case["n_limit"], ratio=case["ratio"])
                continue
            merged = merge_runs(runs, n_limit=case["n_limit"], ratio=case["ratio"])
            assert len(merged) == expect["n_records"], case["name"]
            if "steps" in expect:
                assert [m.step for m in merged] == expect["steps"], case["name"]
            for got, want in zip(merged, expect.get("records", [])):
                assert got.step == want["step"], case["name"]
                assert got.performance == want["performance"], case["name"]
                assert got.quality == want["quality"], case["name"]
                assert got.expressions == want["expressions"], case["name"]
