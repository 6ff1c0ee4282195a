"""Hypothesis strategies shared by the DSL and scorer property tests."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from evofactor import dsl
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


def expressions(max_leaves: int = 6) -> st.SearchStrategy[dsl.Expr]:
    """Random valid trees over every node type."""
    leaves = st.one_of(
        st.sampled_from(FEATURES).map(Feature),
        st.floats(-5.0, 5.0, allow_nan=False).map(Const),
    )

    def extend(kids: st.SearchStrategy[dsl.Expr]) -> st.SearchStrategy[dsl.Expr]:
        return st.one_of(
            st.builds(Unary, st.sampled_from(UNARY_OPS), kids),
            st.builds(Binary, st.sampled_from(BINARY_OPS), kids, kids),
            st.builds(TimeSeries, st.sampled_from(TS_OPS), kids, st.sampled_from(ALLOWED_WINDOWS)),
            st.builds(Last, kids),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves).filter(within_caps)


def within_caps(expr: dsl.Expr) -> bool:
    """Whether the tree passes validate_expr; built trees can fail only its
    node and depth caps."""
    try:
        dsl.validate_expr(expr)
    except dsl.ExprError:
        return False
    return True


@st.composite
def panels(draw, min_steps: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(prices, returns) of equal (n, steps) shape; some with ties, some huge."""
    n = draw(st.integers(1, 5))
    steps = draw(st.integers(min_steps, min_steps + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1.0, 1e150)))
    prices = scale * 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.05, size=(n, steps)), axis=1))
    returns = rng.lognormal(0.0, 0.05, size=(n, steps))
    if draw(st.booleans()):  # coarse grids make ties in ranks, maxima and drawdowns
        prices = np.round(prices / scale, -1) * scale
        returns = np.round(returns, 1)
    return prices, returns
