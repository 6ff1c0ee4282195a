"""Expression DSL tests: parsing, structure caps, and evaluator semantics.

Every time-series operator is checked against an independent pure-Python
oracle that applies the documented edge policy (pad with the first element,
lag clamps to the series start). Full-vector semantics are observed through
the public API by exploiting causality: the root value at step t equals the
evaluation of the prefix [0..t].
"""
from __future__ import annotations

import gc
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import ts_window_reference
from strategies import expressions, panels

from evofactor import dsl
from evofactor.dsl import (
    ALLOWED_WINDOWS,
    BINARY_OPS,
    FEATURES,
    MAX_DEPTH,
    MAX_NODES,
    TS_OPS,
    UNARY_OPS,
    Binary,
    Const,
    ExprError,
    Feature,
    Last,
    ParseError,
    TimeSeries,
    Unary,
    count_nodes,
    evaluate_cross_section,
    normalize_scores,
    parse,
    print_expr,
    replace_at,
    subtree_at,
    validate_expr,
    windows_in,
)

# ------------------------------------------------------------- oracles


def _padded(series: list[float], t: int, window: int) -> list[float]:
    # Window ending at t; indices before 0 repeat the first element.
    return [series[max(i, 0)] for i in range(t - window + 1, t + 1)]


def _oracle_ts(op: str, series: list[float], t: int, window: int) -> float:
    if op == "lag":
        return series[max(t - window, 0)]
    if op == "ts_delta":
        return series[t] - series[max(t - window, 0)]
    w = _padded(series, t, window)
    if op == "ts_sum":
        return sum(w)
    if op == "ts_mean":
        return sum(w) / window
    if op == "ts_std":
        m = sum(w) / window
        return math.sqrt(sum((v - m) ** 2 for v in w) / window)
    if op == "ts_min":
        return min(w)
    if op == "ts_max":
        return max(w)
    if op == "ts_ema":
        alpha = 2.0 / (window + 1.0)
        ema = w[0]
        for v in w[1:]:
            ema = alpha * v + (1.0 - alpha) * ema
        return ema
    if op == "ts_rank_pos":
        if window == 1:
            return 0.5
        last = w[-1]
        less = sum(1 for v in w if v < last)
        equal = sum(1 for v in w if v == last)
        return (less + 0.5 * (equal - 1)) / (window - 1)
    if op == "ts_drawdown":
        worst = 0.0
        peak = w[0]
        for v in w:
            peak = max(peak, v)
            dd = (v - peak) / peak if abs(peak) >= 1e-12 else 0.0
            worst = min(worst, dd)
        return worst
    if op == "ts_argmax_recency":
        top = max(w)
        pos = max(i for i, v in enumerate(w) if v == top)
        return (pos + 1) / window
    raise AssertionError(op)


def _eval_prefix(expr: dsl.Expr, prices: np.ndarray, returns: np.ndarray, t: int) -> np.ndarray:
    # Causality: the node value at step t only depends on the prefix [0..t].
    return evaluate_cross_section(expr, prices[:, : t + 1], returns[:, : t + 1])


# ------------------------------------------------ time-series operators


@pytest.mark.parametrize("op", TS_OPS)
@pytest.mark.parametrize("window", ALLOWED_WINDOWS)
def test_ts_op_matches_oracle(op: str, window: int) -> None:
    rng = np.random.default_rng(hash((op, window)) % (2**32))
    steps = 30
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(3, steps)), axis=1))
    returns = rng.normal(0, 0.01, size=(3, steps))
    expr = TimeSeries(op, Feature("prices"), window)
    for t in range(steps):
        got = _eval_prefix(expr, prices, returns, t)
        for a in range(3):
            want = _oracle_ts(op, list(prices[a]), t, window)
            assert got[a] == pytest.approx(want, rel=1e-12, abs=1e-12), (op, window, t, a)


def test_ts_ops_with_ties_match_oracle() -> None:
    # Integer plateaus exercise the tie handling of rank and argmax recency.
    rng = np.random.default_rng(11)
    series = rng.integers(1, 4, size=25).astype(np.float64)
    prices = series[None, :]
    returns = np.zeros_like(prices)
    for op in ("ts_rank_pos", "ts_argmax_recency", "ts_min", "ts_max"):
        expr = TimeSeries(op, Feature("prices"), 7)
        for t in range(25):
            got = _eval_prefix(expr, prices, returns, t)[0]
            want = _oracle_ts(op, list(series), t, 7)
            assert got == pytest.approx(want, abs=1e-12), (op, t)


def test_ts_drawdown_zero_peak_guard() -> None:
    # A window whose running peak sits at zero must not divide by it.
    prices = np.array([[0.0, 0.0, -1.0, -2.0, 3.0]])
    returns = np.zeros_like(prices)
    expr = TimeSeries("ts_drawdown", Feature("prices"), 3)
    for t in range(5):
        got = _eval_prefix(expr, prices, returns, t)[0]
        want = _oracle_ts("ts_drawdown", list(prices[0]), t, 3)
        assert got == pytest.approx(want, abs=1e-12)
        assert np.isfinite(got)


def test_ts_ema_reduces_to_recursion_from_first_value() -> None:
    # Closed form must equal the textbook recursion seeded at the oldest value.
    rng = np.random.default_rng(5)
    series = rng.normal(0, 1, size=21)
    prices = series[None, :]
    returns = np.zeros_like(prices)
    got = _eval_prefix(TimeSeries("ts_ema", Feature("prices"), 21), prices, returns, 20)[0]
    alpha = 2.0 / 22.0
    ema = series[0]
    for v in series[1:]:
        ema = alpha * v + (1.0 - alpha) * ema
    assert got == pytest.approx(ema, rel=1e-12)


def test_lag_clamps_to_series_start() -> None:
    prices = np.arange(1.0, 11.0)[None, :]
    returns = np.zeros_like(prices)
    expr = TimeSeries("lag", Feature("prices"), 7)
    assert _eval_prefix(expr, prices, returns, 2)[0] == 1.0  # clamped
    assert _eval_prefix(expr, prices, returns, 9)[0] == 3.0  # 10 - 7


# Values at the drawdown guard (|peak| < 1e-12), signed zeros and overflow.
_EDGE_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 1e-13, 1e300, -1e300])


@st.composite
def ts_children(draw) -> np.ndarray:
    """(n, steps) inputs of a time-series op, often shorter than its window:
    random walks, integer plateaus (ties) or picks from _EDGE_VALUES."""
    n = draw(st.integers(1, 12))
    steps = draw(st.one_of(st.integers(1, 21), st.integers(1, 90)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    regime = draw(st.sampled_from(("walk", "plateau", "edge")))
    if regime == "walk":
        scale = draw(st.sampled_from((1e-8, 1.0, 1e8)))
        return scale * np.cumsum(rng.normal(size=(n, steps)), axis=1)
    if regime == "plateau":
        moves = rng.integers(-1, 2, size=(n, steps)) * (rng.random((n, steps)) < 0.3)
        return np.cumsum(moves, axis=1).astype(np.float64)
    return rng.choice(_EDGE_VALUES, size=(n, steps))


@pytest.mark.parametrize("op", TS_OPS)
@pytest.mark.parametrize("window", ALLOWED_WINDOWS)
@settings(max_examples=40, deadline=None)
@given(child=ts_children())
def test_ts_ops_match_the_windowed_reference_bit_for_bit(op: str, window: int, child) -> None:
    # _scrub maps NaN/inf to 0 as _eval does; array_equal counts -0.0 == 0.0,
    # which scores, ranks and _safe_div treat alike.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = dsl._scrub(dsl._eval_ts(op, child.T.copy(), window).T)
        want = dsl._scrub(ts_window_reference(op, child, window))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("window", (14, 21))
def test_window_sums_keep_numpys_pairwise_order(window: int) -> None:
    # 1e16 + 1 rounds back to 1e16, so a left-to-right sum drops both ones;
    # numpy's reduction pairs (1 + 1) before adding it to 1e16.
    row = np.zeros(window)
    row[0], row[2], row[3] = 1e16, 1.0, 1.0
    left_to_right = 0.0
    for value in row:
        left_to_right += value
    assert left_to_right == 1e16
    assert ts_window_reference("ts_sum", row[None, :], window)[0, -1] == 1e16 + 2.0
    for op in ("ts_sum", "ts_mean", "ts_std"):
        got = dsl._eval_ts(op, row[:, None], window).T
        assert np.array_equal(got, ts_window_reference(op, row[None, :], window)), op


def test_parse_and_window_sums_leave_no_reference_cycles() -> None:
    # Garbage in a cycle waits for the cyclic collector, and a window sum's
    # garbage would hold the window's padded copy of the panel until then.
    rng = np.random.default_rng(0)
    prices, returns = rng.lognormal(size=(2, 5, 40))
    gc.collect()
    gc.disable()
    try:
        expr = parse("sub(ts_std(returns, 21), ts_mean(ts_sum(prices, 14), 7))")
        dsl.evaluate_panel(expr, prices, returns)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------- scalar operators


def test_unary_semantics() -> None:
    x = np.array([[-4.0, 0.0, 9.0]])
    z = np.zeros_like(x)
    cases = {
        "abs": [4.0, 0.0, 9.0],
        "neg": [4.0, 0.0, -9.0],
        "sign": [-1.0, 0.0, 1.0],
        "sqrt_abs": [2.0, 0.0, 3.0],
        "log": [0.0, 0.0, math.log(9.0)],  # non-positive input maps to 0
    }
    for op, want in cases.items():
        expr = Unary(op, Feature("prices"))
        got = [_eval_prefix(expr, x, z, t)[0] for t in range(3)]
        assert got == pytest.approx(want, abs=1e-12), op


def test_binary_semantics_and_div_guard() -> None:
    a = np.array([[6.0, -2.0, 5.0]])
    b = np.array([[3.0, 0.0, 1e-13]])
    expr = Binary("div", Feature("prices"), Feature("returns"))
    got = [_eval_prefix(expr, a, b, t)[0] for t in range(3)]
    assert got == pytest.approx([2.0, 0.0, 0.0], abs=1e-12)  # tiny divisor -> 0

    for op, fn in [
        ("add", lambda u, v: u + v),
        ("sub", lambda u, v: u - v),
        ("mul", lambda u, v: u * v),
        ("min2", min),
        ("max2", max),
    ]:
        expr = Binary(op, Feature("prices"), Feature("returns"))
        got = [_eval_prefix(expr, a, b, t)[0] for t in range(3)]
        want = [fn(a[0, t], b[0, t]) for t in range(3)]
        assert got == pytest.approx(want, abs=1e-12), op


def test_div_at_exact_threshold_divides() -> None:
    a = np.array([[2.0]])
    b = np.array([[1e-12]])
    got = evaluate_cross_section(Binary("div", Feature("prices"), Feature("returns")), a, b)
    assert got[0] == pytest.approx(2e12)


def test_const_and_last_nodes() -> None:
    rng = np.random.default_rng(3)
    prices = rng.uniform(50, 150, size=(4, 10))
    returns = rng.normal(0, 0.01, size=(4, 10))
    got = evaluate_cross_section(Const(2.5), prices, returns)
    assert np.array_equal(got, np.full(4, 2.5))
    # last() pins every step to the final value, so subtracting it from the
    # raw series zeroes the root regardless of history.
    expr = Binary("sub", Feature("prices"), Last(Feature("prices")))
    assert evaluate_cross_section(expr, prices, returns) == pytest.approx(np.zeros(4), abs=1e-12)
    got = evaluate_cross_section(Last(Feature("returns")), prices, returns)
    assert np.array_equal(got, returns[:, -1])
    # An aggregate over the pinned series sees a flat window.
    expr = TimeSeries("ts_std", Last(Feature("prices")), 7)
    assert evaluate_cross_section(expr, prices, returns) == pytest.approx(np.zeros(4), abs=1e-12)


def test_overflow_and_domain_errors_scrub_to_zero() -> None:
    prices = np.array([[1.0, 2.0]])
    returns = np.array([[0.0, 0.0]])
    cases = [
        Binary("mul", Const(1e200), Const(1e200)),          # overflow -> inf
        Unary("log", Unary("neg", Feature("prices"))),       # log of negative
        Binary("div", Const(1.0), Feature("returns")),       # divide by zero
        Binary("mul", Const(0.0), Binary("mul", Const(1e300), Const(1e300))),
    ]
    for expr in cases:
        got = evaluate_cross_section(expr, prices, returns)
        assert np.all(np.isfinite(got))
        assert got == pytest.approx([0.0], abs=1e-12), print_expr(expr)


def test_evaluate_single_window_matches_cross_section() -> None:
    rng = np.random.default_rng(8)
    prices = rng.uniform(50, 150, size=(5, 14))
    returns = rng.normal(0, 0.02, size=(5, 14))
    expr = parse("div(ts_delta(prices, 7), ts_std(returns, 14))")
    batch = evaluate_cross_section(expr, prices, returns)
    for a in range(5):
        single = evaluate_cross_section(expr, prices[a : a + 1], returns[a : a + 1])
        assert single[0] == pytest.approx(batch[a], rel=1e-12)


def test_shape_mismatch_rejected() -> None:
    with pytest.raises(ValueError):
        evaluate_cross_section(Feature("prices"), np.ones((2, 5)), np.ones((2, 4)))


# ---------------------------------------------------------- normalize


def test_normalize_scores_endpoints_and_degenerate() -> None:
    out = normalize_scores([3.0, 1.0, 2.0])
    assert out == pytest.approx([1.0, -1.0, 0.0])
    assert out.max() == 1.0 and out.min() == -1.0
    assert np.array_equal(normalize_scores([5.0, 5.0, 5.0]), np.zeros(3))
    assert normalize_scores([]).size == 0
    assert np.array_equal(normalize_scores([7.0]), np.zeros(1))
    # Non-finite inputs are scrubbed before scaling.
    out = normalize_scores([np.nan, 1.0, -1.0])
    assert out == pytest.approx([0.0, 1.0, -1.0])


def test_normalize_scores_affine_invariant_ordering() -> None:
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.normal(size=12)
        a = normalize_scores(x)
        b = normalize_scores(3.5 * x + 2.0)
        assert a == pytest.approx(b, abs=1e-12)


_EXTREMES = st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 0.0])
_ORDINARY = st.floats(-1e6, 1e6, allow_nan=False)
_ZEROS = st.sampled_from([-0.0, 0.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_EXTREMES, _ORDINARY), min_size=1, max_size=12))
def test_normalize_scores_stays_finite_on_extreme_rows(row) -> None:
    values = np.array(row)
    out = normalize_scores(values)
    assert np.all(np.isfinite(out)) and np.all(np.abs(out) <= 1.0)
    low, high = float(values.min()), float(values.max())
    if low == high:
        assert np.array_equal(out, np.zeros_like(values))
        return
    assert np.all(out[values == high] == 1.0) and np.all(out[values == low] == -1.0)
    order = np.argsort(values, kind="stable")
    assert np.all(np.diff(out[order]) >= 0.0)  # rescaling keeps the order
    if math.isfinite(2.0 * (high - low)):
        # Where the old formula did not overflow, every bit is kept.
        assert np.array_equal(out, 2.0 * (values - low) / (high - low) - 1.0)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(
            st.one_of(
                st.lists(st.one_of(_EXTREMES, _ORDINARY, _ZEROS), min_size=n, max_size=n),
                st.builds(lambda v: [v] * n, st.one_of(_EXTREMES, _ORDINARY, st.just(-0.0))),
            ),
            min_size=1,
            max_size=6,
        )
    )
)
def test_normalize_scores_block_equals_each_row_alone(rows) -> None:
    # Overflowing spans, constant rows and signed zeros keep their bits,
    # those of a row scaled with Python float bounds as well.
    def scaled_alone(row: list[float]) -> list[float]:
        values, low, high = np.array(row), min(row), max(row)
        if high == low:
            return [0.0] * len(row)
        if math.isinf(high - low):
            values, low, high = values / 2.0, low / 2.0, high / 2.0
        return (2.0 * ((values - low) / (high - low)) - 1.0).tolist()

    block = normalize_scores(np.array(rows))
    assert block.shape == (len(rows), len(rows[0]))
    assert repr(block.tolist()) == repr([normalize_scores(row).tolist() for row in rows])
    assert repr(block.tolist()) == repr([scaled_alone(row) for row in rows])


def test_normalize_scores_overflowing_span_examples() -> None:
    assert normalize_scores([1e308, -1e308, 0.0]).tolist() == [1.0, -1.0, 0.0]
    assert normalize_scores([1.7e308, 0.0, 1.0]).tolist() == [1.0, -1.0, -1.0]


# ------------------------------------------------------ parse / print


def test_parse_canonical_example() -> None:
    text = "div(ts_delta(prices, 7), max2(ts_std(returns, 14), 0.001))"
    expr = parse(text)
    assert isinstance(expr, Binary) and expr.op == "div"
    assert windows_in(expr) == (7, 14)
    assert print_expr(parse(print_expr(expr))) == print_expr(expr)


def test_parse_numbers_and_whitespace() -> None:
    assert parse(" -0.5 ") == Const(-0.5)
    assert parse("add( prices ,returns )") == Binary("add", Feature("prices"), Feature("returns"))
    assert parse("1e-05") == Const(1e-05)
    assert parse("ts_mean(prices,3)") == TimeSeries("ts_mean", Feature("prices"), 3)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "prices extra",
        "ts_mean(prices, 5)",        # window outside the whitelist
        "ts_mean(prices, 3.5)",      # non-integer window
        "ts_mean(prices)",           # missing window
        "add(prices)",               # missing operand
        "bogus(prices)",
        "add(prices, returns",       # unbalanced
        "prices)",
        "add(prices; returns)",      # illegal character
        "Prices",                    # case sensitive
    ],
)
def test_parse_rejects_malformed(text: str) -> None:
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("add(prices ;x)", "unexpected character ';' at position 11"),
        ("prices  extra", "trailing input at position 8: 'extra'"),
        ("add( prices returns)", "expected punct at position 12, got 'returns'"),
    ],
)
def test_parse_error_positions_name_the_offending_character(text: str, message: str) -> None:
    # A position indexes the character or token named, never the space before it.
    with pytest.raises(ParseError) as failed:
        parse(text)
    assert str(failed.value) == message


def test_validate_rejects_bad_nodes() -> None:
    with pytest.raises(ExprError):
        validate_expr(Unary("tanh", Feature("prices")))
    with pytest.raises(ExprError):
        validate_expr(Binary("pow", Feature("prices"), Const(2.0)))
    with pytest.raises(ExprError):
        validate_expr(TimeSeries("ts_mean", Feature("prices"), 5))
    with pytest.raises(ExprError):
        validate_expr(Feature("volume"))
    with pytest.raises(ExprError):
        validate_expr(Const(float("inf")))
    with pytest.raises(ExprError):
        validate_expr(Const(float("nan")))


def test_validate_enforces_caps() -> None:
    expr: dsl.Expr = Feature("prices")
    for _ in range(MAX_DEPTH - 1):
        expr = Unary("neg", expr)
    validate_expr(expr)  # exactly at the cap
    with pytest.raises(ExprError):
        validate_expr(Unary("neg", expr))

    wide: dsl.Expr = Feature("prices")
    while count_nodes(wide) + 2 <= MAX_NODES:
        wide = Binary("add", wide, Feature("returns"))
    # Keep within the depth cap by flattening: chain of adds is deep, so use
    # a balanced construction instead.
    def balanced(n: int) -> dsl.Expr:
        if n <= 1:
            return Feature("prices")
        left = balanced((n - 1) // 2)
        right = balanced(n - 1 - (n - 1) // 2 - 1 + 1)
        return Binary("add", left, right)

    big = balanced(63)
    assert count_nodes(big) == 63
    validate_expr(big)  # within the depth cap too
    too_big = Unary("neg", Binary("add", balanced(63), Feature("prices")))
    assert count_nodes(too_big) > MAX_NODES
    with pytest.raises(ExprError):
        validate_expr(too_big)


# --------------------------------------------------- structure helpers


def test_structure_helpers() -> None:
    expr = parse("div(ts_delta(prices, 7), max2(ts_std(returns, 14), 0.001))")
    assert count_nodes(expr) == 7
    # depth 4: MAX_DEPTH - 4 wrappers reach the cap, one more passes it
    wrapped = expr
    for _ in range(MAX_DEPTH - 4):
        wrapped = Unary("neg", wrapped)
    validate_expr(wrapped)
    with pytest.raises(ExprError, match=f"depth {MAX_DEPTH + 1} "):
        validate_expr(Unary("neg", wrapped))
    assert subtree_at(expr, 0) is expr
    assert subtree_at(expr, 1) == TimeSeries("ts_delta", Feature("prices"), 7)
    with pytest.raises(IndexError):
        subtree_at(expr, 7)
    with pytest.raises(IndexError):
        replace_at(expr, 7, Const(1.0))
    # Identity: swapping a subtree for itself rebuilds an equal tree.
    for pos in range(count_nodes(expr)):
        assert replace_at(expr, pos, subtree_at(expr, pos)) == expr
    swapped = replace_at(expr, 1, Const(9.0))
    assert print_expr(swapped) == "div(9.0, max2(ts_std(returns, 14), 0.001))"
    assert expr == parse("div(ts_delta(prices, 7), max2(ts_std(returns, 14), 0.001))")


# ------------------------------------------------- randomized properties


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


def test_round_trip_and_totality_on_random_expressions() -> None:
    rng = np.random.default_rng(2026)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(8, 30)), axis=1))
    returns = rng.normal(0, 0.02, size=(8, 30))
    for _ in range(2000):
        expr = _random_expr(rng, int(rng.integers(1, 6)))
        validate_expr(expr)
        text = print_expr(expr)
        assert parse(text) == expr, text
        scores = evaluate_cross_section(expr, prices, returns)
        assert scores.shape == (8,)
        assert np.all(np.isfinite(scores)), text


def test_evaluation_rowwise_independence() -> None:
    # Stacking assets must not let one row's data affect another.
    rng = np.random.default_rng(77)
    prices = rng.uniform(10, 200, size=(6, 21))
    returns = rng.normal(0, 0.05, size=(6, 21))
    for _ in range(60):
        expr = _random_expr(rng, int(rng.integers(2, 5)))
        batch = evaluate_cross_section(expr, prices, returns)
        for a in range(6):
            solo = evaluate_cross_section(expr, prices[a : a + 1], returns[a : a + 1])
            assert solo[0] == pytest.approx(batch[a], rel=1e-12, abs=1e-12)


# ------------------------------------------------------------ panel form


def test_receptive_field_counts() -> None:
    assert dsl.receptive_field(parse("prices")) == 1
    assert dsl.receptive_field(parse("ts_mean(prices, 7)")) == 7
    assert dsl.receptive_field(parse("lag(prices, 7)")) == 8
    assert dsl.receptive_field(parse("ts_delta(ts_std(returns, 14), 3)")) == 17
    assert dsl.receptive_field(parse("add(last(ts_max(prices, 21)), ts_sum(returns, 3))")) == 21
    assert dsl.panel_equivalent(parse("sub(div(last(prices), last(lag(prices, 7))), 1.0)"), 8)
    assert not dsl.panel_equivalent(parse("lag(prices, 7)"), 7)
    assert not dsl.panel_equivalent(parse("ts_mean(last(prices), 3)"), 30)
    assert not dsl.panel_equivalent(parse("ts_mean(abs(last(prices)), 3)"), 30)


@settings(max_examples=300, deadline=None)
@given(expressions(), panels())
def test_evaluate_panel_is_total(expr, panel) -> None:
    out = dsl.evaluate_panel(expr, *panel)
    assert out.shape == panel[0].shape
    assert np.all(np.isfinite(out))


@settings(max_examples=300, deadline=None)
@given(expressions(), st.integers(0, 4), st.data())
def test_evaluate_panel_equals_windowed_when_equivalent(expr, slack, data) -> None:
    # Lookbacks at and just past the receptive field, where padding would show.
    lookback = max(2, dsl.receptive_field(expr) + slack)
    assume(dsl.panel_equivalent(expr, lookback))
    prices, returns = data.draw(panels(min_steps=lookback))
    out = dsl.evaluate_panel(expr, prices, returns)
    for c in range(lookback - 1, prices.shape[1]):
        window = slice(c - lookback + 1, c + 1)
        expected = evaluate_cross_section(expr, prices[:, window], returns[:, window])
        assert np.array_equal(out[:, c], expected), (print_expr(expr), c)


@settings(max_examples=300, deadline=None)
@given(expressions(), st.integers(0, 4), st.data())
def test_evaluate_panel_needs_only_the_receptive_field(expr, slack, data) -> None:
    # A span cut to rf-1 history columns scores its steps as the
    # lookback-wide span does: the cut drops only columns no step reads.
    rf = dsl.receptive_field(expr)
    lookback = max(2, rf + slack)
    assume(dsl.panel_equivalent(expr, lookback))
    prices, returns = data.draw(panels(min_steps=lookback))
    wide = dsl.evaluate_panel(expr, prices, returns)
    cut = lookback - rf
    narrow = dsl.evaluate_panel(expr, prices[:, cut:], returns[:, cut:])
    assert np.array_equal(narrow[:, rf - 1 :], wide[:, lookback - 1 :]), print_expr(expr)
