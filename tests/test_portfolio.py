"""Portfolio construction tests: weights, costs, turnover, ledger IO."""
from __future__ import annotations

import math

import numpy as np
import pytest

from evofactor.portfolio import (
    LedgerRow,
    PortfolioWeights,
    aggregate_scores,
    drift_weights,
    equal_weights,
    fallback_market_return,
    positive_score_weights,
    read_ledger,
    select_top_m,
    step_return,
    temperature_weights,
    turnover,
    write_ledger,
)

# ------------------------------------------------------------- weights


def test_portfolio_weights_invariants() -> None:
    w = PortfolioWeights({0: 0.5, 3: 0.5})
    assert sum(1 for v in w.weights.values() if v > 0) == 2
    assert [w.weights.get(i, 0.0) for i in range(5)] == [0.5, 0.0, 0.0, 0.5, 0.0]
    with pytest.raises(ValueError):
        PortfolioWeights({})
    with pytest.raises(ValueError):
        PortfolioWeights({0: 0.6, 1: 0.5})
    with pytest.raises(ValueError):
        PortfolioWeights({0: 1.5, 1: -0.5})
    with pytest.raises(ValueError):
        PortfolioWeights({0: math.nan, 1: math.nan})
    with pytest.raises(ValueError):
        PortfolioWeights({0: math.nan})
    with pytest.raises(ValueError):
        temperature_weights([0, 1], np.array([0.2, 0.1]), math.nan)
    # Tolerance is 1e-9 on the budget.
    PortfolioWeights({0: 0.5 + 4e-10, 1: 0.5})


def test_select_top_m() -> None:
    scores = np.array([0.1, 0.9, 0.5, 0.9, 0.2])
    assert select_top_m(scores, 2).tolist() == [1, 3]  # tie -> earlier asset
    assert select_top_m(scores, 3).tolist() == [1, 2, 3]
    assert select_top_m(scores, 99).tolist() == [0, 1, 2, 3, 4]  # capped at n
    assert select_top_m(scores, 1).tolist() == [1]
    with pytest.raises(ValueError):
        select_top_m(scores, 0)
    # Output is always sorted by asset index, not by score.
    assert list(select_top_m(np.array([3.0, 1.0, 2.0]), 2)) == [0, 2]


def test_equal_weights() -> None:
    w = equal_weights([4, 1, 7])
    assert w.weights == {4: 1 / 3, 1: 1 / 3, 7: 1 / 3}
    with pytest.raises(ValueError):
        equal_weights([])


def test_positive_score_weights() -> None:
    scores = np.array([0.0, 2.0, -1.0, 6.0])
    w = positive_score_weights([1, 3], scores)
    assert w.weights == pytest.approx({1: 0.25, 3: 0.75})
    # Negative scores clip to zero before normalizing.
    w = positive_score_weights([1, 2, 3], scores)
    assert w.weights == pytest.approx({1: 0.25, 2: 0.0, 3: 0.75})
    # All-nonpositive selections fall back to equal weights.
    w = positive_score_weights([0, 2], scores)
    assert w.weights == pytest.approx({0: 0.5, 2: 0.5})


def test_temperature_weights_softmax() -> None:
    scores = np.array([1.0, 2.0, 3.0])
    w = temperature_weights([0, 1, 2], scores, tau=1.0)
    expw = np.exp(scores - scores.max())
    expw /= expw.sum()
    assert [w.weights[i] for i in range(3)] == pytest.approx(expw)
    with pytest.raises(ValueError):
        temperature_weights([0, 1], scores, tau=0.0)
    with pytest.raises(ValueError):
        temperature_weights([0, 1], scores, tau=-1.0)
    # Overflow-safe for huge logits.
    w = temperature_weights([0, 1], np.array([1e8, 0.0]), tau=1e-4)
    assert sum(w.weights.values()) == pytest.approx(1.0)


def test_temperature_limits() -> None:
    rng = np.random.default_rng(14)
    for _ in range(50):
        scores = rng.normal(size=9)
        sel = list(range(9))
        hot = temperature_weights(sel, scores, tau=1e6).weights
        assert max(abs(hot[i] - 1.0 / 9.0) for i in sel) < 1e-4
        cold = temperature_weights(sel, scores, tau=1e-6).weights
        assert cold[int(np.argmax(scores))] >= 1.0 - 1e-6


# ---------------------------------------------------------------- costs


def test_turnover_arithmetic() -> None:
    a = PortfolioWeights({0: 0.5, 1: 0.5})
    b = PortfolioWeights({1: 0.5, 2: 0.5})
    assert turnover(a, a) == 0.0
    assert turnover(b, a) == pytest.approx(0.5)  # one name swapped
    c = PortfolioWeights({3: 1.0})
    assert turnover(c, a) == pytest.approx(1.0)  # full rotation
    assert turnover(a, None) == pytest.approx(0.5)  # buy-in from cash


def test_drift_weights() -> None:
    w = PortfolioWeights({0: 0.5, 1: 0.5})
    gross = np.array([1.1, 0.9, 1.0])
    drifted = drift_weights(w, gross)
    assert drifted.weights == pytest.approx({0: 0.55 / 1.0, 1: 0.45 / 1.0})
    assert sum(drifted.weights.values()) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        drift_weights(w, np.array([0.0, 0.0, 1.0]))


def test_step_return_accounting() -> None:
    w = PortfolioWeights({0: 0.6, 2: 0.4})
    gross = np.array([1.05, 0.5, 0.95])
    net, turn, cost = step_return(w, gross, None, 0.001)
    raw = 0.6 * 1.05 + 0.4 * 0.95
    assert turn == pytest.approx(0.5)
    assert cost == pytest.approx(0.0005) and cost == 0.001 * turn
    assert net == pytest.approx(raw - 0.0005)

    prev = PortfolioWeights({0: 1.0})
    net2, turn2, cost2 = step_return(w, gross, prev, 0.001)
    assert turn2 == pytest.approx(0.4)
    assert net2 == pytest.approx(raw - 0.001 * 0.4)
    # A zero cost rate returns the raw weighted gross return.
    net3, _, cost3 = step_return(w, gross, prev, 0.0)
    assert cost3 == 0.0 and net3 == pytest.approx(raw)


def test_cost_ordering_on_fixed_path() -> None:
    # Same weight path, increasing cost rate -> non-increasing wealth.
    rng = np.random.default_rng(9)
    gross = 1.0 + rng.normal(0.001, 0.01, size=(40, 6))
    finals = []
    for rate in (0.0, 0.001, 0.002):
        value = 1.0
        prev = None
        for t in range(40):
            w = equal_weights([t % 6, (t + 1) % 6, (t + 2) % 6])
            net, _, _ = step_return(w, gross[t], prev, rate)
            value *= net
            prev = drift_weights(w, gross[t])
        finals.append(value)
    assert finals[0] > finals[1] > finals[2]


def test_aggregate_scores_and_fallback() -> None:
    rows = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    assert aggregate_scores(rows).tolist() == [2.0, 3.0]
    with pytest.raises(ValueError):
        aggregate_scores([])
    assert fallback_market_return([1.1, 0.9]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fallback_market_return([])


# --------------------------------------------------------------- ledger


def _rows() -> list[LedgerRow]:
    return [
        LedgerRow("2020-01-02", "warmup", 1.0012, 1.0012, 1.0012, 1.0012, 0.0, 0.0, (), ()),
        LedgerRow(
            "2020-01-03",
            "live",
            1.0 / 3.0,
            0.997,
            0.99123456789,
            0.996,
            0.5,
            0.0005,
            ("AAA", "BBB"),
            (0.625, 0.375),
        ),
        LedgerRow("2020-01-06", "fallback", 0.998, 0.995, 0.9, 0.95, 0.0, 0.0, (), ()),
    ]


def test_ledger_round_trip(tmp_path) -> None:
    rows = _rows()
    path = str(tmp_path / "ledger.csv")
    write_ledger(rows, path)
    loaded = read_ledger(path)
    assert loaded == rows  # repr precision makes the round trip exact
    assert dict(zip(loaded[1].selected_assets, loaded[1].weights)) == {"AAA": 0.625, "BBB": 0.375}
    write_ledger(loaded, str(tmp_path / "ledger2.csv"))
    assert (tmp_path / "ledger.csv").read_bytes() == (tmp_path / "ledger2.csv").read_bytes()


def test_ledger_rejects_foreign_csv(tmp_path) -> None:
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_ledger(str(path))
