"""Metric tests against brute-force oracles and scipy cross-checks."""
from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import oracles
from evofactor.metrics import (
    PERFORMANCE_COLUMNS,
    WealthPath,
    cumulative_wealth,
    grade_rows,
    max_drawdown,
    mean_std,
    quality_columns,
    rank_icir,
    rank_realized,
    report_columns,
    sharpe_ratio,
    spearman_rank_corr,
    write_factor_report,
)
from evofactor.portfolio import select_top_m

# ---------------------------------------------------------- wealth path


def test_wealth_path_from_returns() -> None:
    path = WealthPath.from_returns([1.1, 0.9, 1.05], initial=100.0)
    assert path.values == pytest.approx([100.0, 110.0, 99.0, 103.95])
    assert cumulative_wealth(path) == pytest.approx(3.95)
    with pytest.raises(ValueError):
        WealthPath(np.ones(3), np.ones(3))


def test_cumulative_wealth_is_final_minus_initial() -> None:
    path = WealthPath(np.array([2.0, 3.0, 2.5]), np.array([1.5, 2.5 / 3.0]))
    assert cumulative_wealth(path) == pytest.approx(0.5)


# ------------------------------------------------------------ mean/std


def test_mean_std_conventions() -> None:
    assert mean_std([]) == (0.0, 0.0)
    assert mean_std([4.0]) == (4.0, 0.0)
    mean, std = mean_std([1.0, 2.0, 3.0, 4.0])
    assert mean == pytest.approx(2.5)
    assert std == pytest.approx(oracles.sstd([1.0, 2.0, 3.0, 4.0]), rel=1e-12)


# ------------------------------------------------------------- sharpe


def test_sharpe_ratio_matches_oracle() -> None:
    rng = np.random.default_rng(10)
    for _ in range(300):
        rets = rng.normal(0.001, 0.02, size=int(rng.integers(2, 40)))
        got = sharpe_ratio(rets)
        want = oracles.sharpe(list(rets))
        if want is None:
            assert got.degenerate
        else:
            assert not got.degenerate
            assert got.value == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_sharpe_ratio_options() -> None:
    rets = [0.01, 0.03, -0.02, 0.02]
    raw = sharpe_ratio(rets).value
    assert sharpe_ratio(rets, periods_per_year=12).value == pytest.approx(raw * math.sqrt(12))
    assert sharpe_ratio(rets, periods_per_year=252).value == pytest.approx(raw * math.sqrt(252))
    shifted = sharpe_ratio(rets, risk_free=0.01).value
    assert shifted == pytest.approx(oracles.sharpe(rets, risk_free=0.01), rel=1e-12)
    flat = sharpe_ratio([0.01, 0.01, 0.01])
    assert flat.degenerate and flat.value == 0.0
    assert sharpe_ratio([0.05]).degenerate
    assert float(sharpe_ratio(rets)) == raw  # MetricValue coerces to float


# ------------------------------------------------------------ drawdown


def test_max_drawdown_matches_bruteforce() -> None:
    rng = np.random.default_rng(20)
    for _ in range(300):
        steps = int(rng.integers(2, 60))
        values = np.cumprod(1.0 + rng.normal(0, 0.05, size=steps))
        got = max_drawdown(values)
        assert got == pytest.approx(oracles.mdd_bruteforce(values), rel=1e-12, abs=1e-12)
        assert 0.0 <= got < 1.0


def test_max_drawdown_edge_cases() -> None:
    assert max_drawdown([1.0, 1.1, 1.2, 1.3]) == 0.0  # monotone climb
    assert max_drawdown([2.0, 1.0]) == pytest.approx(0.5)
    assert max_drawdown([1.0, 2.0, 1.0, 4.0, 1.0]) == pytest.approx(0.75)
    # Non-positive prefix is ignored until a positive peak exists.
    mixed = [-1.0, -2.0, 3.0, 1.5]
    assert max_drawdown(mixed) == pytest.approx(oracles.mdd_bruteforce(mixed))
    path = WealthPath.from_returns([0.5, 2.0, 0.25])
    assert max_drawdown(path) == pytest.approx(0.75)
    assert type(max_drawdown(path)) is float  # not a numpy scalar
    assert max_drawdown([]) == 0.0
    # A NaN value neither sets a peak nor counts as a drop.
    assert max_drawdown([float("nan"), 2.0, float("nan"), 1.0]) == pytest.approx(0.5)


# ------------------------------------------------------------- spearman


def test_spearman_matches_scipy_and_oracle() -> None:
    rng = np.random.default_rng(30)
    for trial in range(300):
        n = int(rng.integers(3, 30))
        if trial % 2 == 0:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        else:  # heavy ties
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
        want = oracles.spearman(x, y)
        got = spearman_rank_corr(x, y)
        assert grade_rows(x[None, :], y, 1, 1)[1].tolist() == [got.value]
        if want is None:
            assert got.degenerate and got.value == 0.0
            continue
        assert got.value == pytest.approx(want, rel=1e-12, abs=1e-12)
        scipy_rho = stats.spearmanr(x, y).statistic
        assert got.value == pytest.approx(scipy_rho, rel=1e-9, abs=1e-9)


def test_spearman_edges() -> None:
    assert spearman_rank_corr([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]).value == pytest.approx(1.0)
    assert spearman_rank_corr([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]).value == pytest.approx(-1.0)
    assert spearman_rank_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]).degenerate
    assert spearman_rank_corr([2.0], [3.0]).degenerate
    assert grade_rows(np.array([[2.0]]), np.array([3.0]), 1, 1)[1].tolist() == [0.0]
    with pytest.raises(ValueError):
        spearman_rank_corr([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        grade_rows(np.array([[1.0, 2.0]]), np.array([1.0, 2.0, 3.0]), 1, 1)


# ------------------------------------------------------------ grade_rows

# Ties, signed zeros and constant rows come from the small value sets.
_TIED = st.sampled_from([-2.0, -0.0, 0.0, 1.0, 3.5])
_ROW_VALUES = st.sampled_from([
    st.floats(-1e6, 1e6, allow_nan=False),
    _TIED,
    st.just(0.75),
])


@st.composite
def _graded(draw):
    n = draw(st.integers(1, 3) | st.integers(4, 30))
    rows = draw(st.integers(1, 5))
    scores = draw(arrays(np.float64, (rows, n), elements=draw(_ROW_VALUES)))
    shape = draw(st.sampled_from([(n,), (rows, n)]))
    realized = draw(arrays(np.float64, shape, elements=draw(_ROW_VALUES)))
    m = draw(st.integers(1, n + 2))
    recall_n = draw(st.integers(1, n) | st.just(n))
    return scores, realized, m, recall_n


@settings(max_examples=400, deadline=None)
@given(_graded())
def test_grade_rows_equals_the_per_row_metrics(case) -> None:
    scores, realized, m, recall_n = case
    gross, rankic, recall = grade_rows(scores, realized, m, recall_n)
    for i, row in enumerate(scores):
        real = realized if realized.ndim == 1 else realized[i]
        # repr compares bits: -0.0 and 0.0 differ.
        assert repr(float(gross[i])) == repr(float(real[select_top_m(row, m)].mean()))
        assert repr(float(rankic[i])) == repr(spearman_rank_corr(row, real).value)
        assert recall[i] == oracles.recall_at_n(row, real, recall_n)
    ranked = rank_realized(scores)
    for i, row in enumerate(scores):
        assert (ranked.centred[i] + (len(row) + 1) / 2).tolist() == oracles.average_ranks(row)
        assert np.argsort(ranked.places[i]).tolist() == np.argsort(-row, kind="stable").tolist()


# Row kinds: tie-free (distinct integers, scaled), one tied pair, a few
# tied values (signed zeros and 1e300 among them) and a constant row.
_TIE_VALUES = np.array([-1e300, -2.0, -0.0, 0.0, 1.0, 3.5, 1e300])


def _row(rng: np.random.Generator, kind: int, n: int) -> np.ndarray:
    if kind == 0:
        return rng.permutation(n) * rng.choice([1e-3, 1.0, 1e290]) - n / 2
    if kind == 1:
        row = rng.permutation(n).astype(float)
        i, j = rng.integers(0, n, size=2)
        row[i] = row[j]
        return row
    if kind == 2:
        return rng.choice(_TIE_VALUES[: rng.integers(2, 8)], size=n)
    return np.full(n, rng.choice(_TIE_VALUES))


@st.composite
def _graded_blocks(draw):
    # n below and above 16 runs both numpy's small-array and partitioning sorts.
    n = draw(st.integers(1, 16) | st.integers(17, 250))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.integers(0, 3), min_size=rows + 1, max_size=rows + 1))
    scores = np.stack([_row(rng, kind, n) for kind in kinds[:rows]])
    if draw(st.booleans()):
        realized = _row(rng, kinds[rows], n)
    else:
        realized = np.stack([_row(rng, draw(st.integers(0, 3)), n) for _ in range(rows)])
    m = draw(st.integers(1, n + 2))
    recall_n = draw(st.integers(1, n))
    return scores, realized, m, recall_n


@settings(max_examples=300, deadline=None)
@given(_graded_blocks())
def test_grade_rows_equals_the_stable_sort_reference(case) -> None:
    scores, realized, m, recall_n = case
    want = [[repr(float(v)) for v in a] for a in oracles.grade_rows_reference(*case)]
    ranked = rank_realized(np.atleast_2d(realized))
    for given_realized in (realized, ranked):
        got = grade_rows(scores, given_realized, m, recall_n)
        assert [[repr(float(v)) for v in a] for a in got] == want


@settings(max_examples=200, deadline=None)
@given(_graded_blocks(), st.integers(1, 7), st.data())
def test_grade_rows_by_step_index_equals_the_reference_on_each_row(case, steps_in_table, data) -> None:
    # Score row i is graded against row steps[i] of one ranked table, read in place.
    scores, _, m, recall_n = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="table_seed"))
    kinds = data.draw(st.lists(st.integers(0, 3), min_size=steps_in_table, max_size=steps_in_table))
    table = np.stack([_row(rng, kind, scores.shape[1]) for kind in kinds])
    index = st.integers(0, steps_in_table - 1)
    steps = np.array(data.draw(st.lists(index, min_size=len(scores), max_size=len(scores))))
    want = oracles.grade_rows_reference(scores, table[steps], m, recall_n)
    want = [[repr(float(v)) for v in a] for a in want]
    got = grade_rows(scores, rank_realized(table), m, recall_n, steps)
    assert [[repr(float(v)) for v in a] for a in got] == want


def test_grade_rows_rejects_bad_input() -> None:
    scores = np.array([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        grade_rows(scores[0], scores[0], 1, 1)  # not a matrix
    with pytest.raises(ValueError):
        grade_rows(scores, np.ones((2, 3)), 1, 1)  # one realized row per score row
    with pytest.raises(ValueError):
        grade_rows(scores, scores[0], 0, 1)
    with pytest.raises(ValueError):
        grade_rows(scores, scores[0], 1, 4)
    with pytest.raises(ValueError):
        grade_rows(scores, scores[0], 1, 0)
    with pytest.raises(ValueError):
        grade_rows(np.array([[1.0, np.nan, 3.0]]), scores[0], 1, 1)
    for steps in ([2], [-1], [0, 1]):  # out of the table, or not one per score row
        with pytest.raises(ValueError):
            grade_rows(scores, np.ones((2, 3)), 1, 1, np.array(steps))


# --------------------------------------------------------------- rankic


def test_rankic_series_and_icir() -> None:
    rng = np.random.default_rng(40)
    scores = rng.normal(size=(20, 8))
    rets = rng.normal(size=(20, 8))
    _, series, _ = grade_rows(scores, rets, 1, 1)
    assert len(series) == 20
    for k in range(20):
        assert series[k] == pytest.approx(oracles.spearman(scores[k], rets[k]), rel=1e-12)
    got = rank_icir(series)
    assert got.value == pytest.approx(oracles.rank_icir(list(series)), rel=1e-12)
    assert rank_icir([0.3]).degenerate
    assert rank_icir([0.3, 0.3, 0.3]).degenerate


def test_grade_rows_recall_extremes() -> None:
    # Reversed orders share no top-2 asset; identical orders share all three.
    scores = np.array([[5.0, 4.0, 3.0, 2.0, 1.0]])
    assert grade_rows(scores, scores[0, ::-1], 1, 2)[2].tolist() == [0.0]
    assert grade_rows(scores, scores[0], 1, 3)[2].tolist() == [1.0]


# -------------------------------------------------------------- reports


def test_report_columns() -> None:
    assert report_columns(20) == ("factor",) + PERFORMANCE_COLUMNS + quality_columns(20)
    assert quality_columns(5) == ("mean_rankic", "std_rankic", "mean_recall@5", "std_recall@5")


def test_write_factor_report_round_trip(tmp_path) -> None:
    performance = {
        "rsi_14": {},  # missing metrics render as empty cells
        "momentum_7": {
            "mean_return": 0.0123456789012345,
            "std_return": 0.05,
            "sharpe_ratio": 0.2469,
            "max_drawdown": -0.3,
            "final_value": 181.25,
        },
    }
    quality = {
        "rsi_14": {},
        "momentum_7": {"mean_rankic": 0.031, "std_rankic": 0.2, "mean_recall@20": 0.55, "std_recall@20": 0.1},
    }
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_factor_report(performance, quality, str(csv_path), str(json_path), recall_n=20)

    with open(csv_path, newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert parsed[0]["factor"] == "momentum_7"
    # repr round-trip: the CSV cell reparses to the exact float
    assert float(parsed[0]["mean_return"]) == performance["momentum_7"]["mean_return"]
    assert parsed[1]["mean_return"] == ""

    doc = json.loads(json_path.read_text())
    assert doc[0]["mean_return"] == performance["momentum_7"]["mean_return"]
    assert list(doc[0]) == sorted(report_columns(20))
    assert doc[1]["final_value"] == ""
