"""Seed library tests: naming grammar, record validation, formula fidelity."""
from __future__ import annotations

import dataclasses
import functools
import json
import re

import numpy as np
import pytest

from evofactor import dsl
from evofactor.seeds import (
    FactorRecord,
    is_generated_name,
    json_to_record,
    load_library,
    make_name,
    make_record,
    parse_name,
    record_to_json,
    save_library,
    seed_factors,
)
from oracles import seed_oracle

# ------------------------------------------------------------- naming


@pytest.mark.parametrize(
    "name, expected",
    [
        ("momentum_7", ("momentum", 7, 1)),
        ("momentum_7_v3", ("momentum", 7, 3)),
        ("momentum_21_v12", ("momentum", 21, 12)),
        ("rsi_14", ("rsi", 14, 1)),
        ("log_return_1", ("log_return_1", None, 1)),  # 1 is not a legal window
        ("momentum_comb_sharpe_ratio_14_v2", ("momentum_comb_sharpe_ratio", 14, 2)),
        ("bb_width_3", ("bb_width", 3, 1)),
        ("alpha", ("alpha", None, 1)),
        ("alpha_v2", ("alpha", None, 2)),
        ("f_5", ("f_5", None, 1)),  # 5 is not a legal window either
    ],
)
def test_parse_name(name: str, expected: tuple) -> None:
    assert parse_name(name) == expected


@pytest.mark.parametrize("name", ["", "Momentum_7", "7momentum", "a-b", "x_v0", "a b"])
def test_parse_name_rejects(name: str) -> None:
    with pytest.raises(ValueError):
        parse_name(name)


def test_make_name_round_trips() -> None:
    name = make_name("momentum", 7, 2)
    assert name == "momentum_7_v2"
    assert parse_name(name) == ("momentum", 7, 2)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("momentum_7_v2", True),
        ("a_comb_b_21_v1", True),
        ("momentum_7", False),   # seeds carry no version suffix
        ("rsi_14", False),
        ("momentum_5_v1", False),  # illegal window token
        ("momentum_v2", False),    # no window token
    ],
)
def test_is_generated_name(name: str, expected: bool) -> None:
    assert is_generated_name(name) is expected


# ------------------------------------------------------------- records


def test_factor_record_validation() -> None:
    expr = dsl.parse("ts_mean(prices, 7)")
    with pytest.raises(ValueError, match="unknown origin 'alien'"):
        FactorRecord("x_7_v1", expr, origin="alien")
    with pytest.raises(ValueError, match="exactly 2 parents"):
        FactorRecord("a_comb_b_7_v1", expr, "crossover", ("a_7_v1",))
    with pytest.raises(ValueError, match="restart at version 1"):
        FactorRecord("a_comb_b_7_v2", expr, "crossover", ("a", "b"))
    with pytest.raises(ValueError, match="must contain '_comb_'"):
        FactorRecord("ab_7_v1", expr, "crossover", ("a", "b"))
    with pytest.raises(ValueError, match="at most 2 parents"):
        FactorRecord("x_7_v1", expr, "mutated", ("a", "b", "c"))
    with pytest.raises(ValueError, match="invalid factor name 'X_7_v1'"):
        FactorRecord("X_7_v1", expr)
    with pytest.raises(dsl.ExprError):  # expression is validated on build
        FactorRecord("x_7_v1", dsl.TimeSeries("ts_mean", dsl.Feature("prices"), 5))
    rec = FactorRecord("a_comb_b_7_v1", expr, "crossover", ("a", "b"))
    assert rec.expr_text == "ts_mean(prices, 7)"
    assert (rec.base_name, rec.window, rec.version) == ("a_comb_b", 7, 1)


@pytest.mark.parametrize(
    "tree, message",
    [
        pytest.param(dsl.Unary("tanh", dsl.Feature("prices")), "unknown Unary op 'tanh'", id="op"),
        pytest.param(dsl.Binary("add", dsl.Feature("volume"), dsl.Const(1.0)), "unknown feature 'volume'", id="feature"),
        pytest.param(dsl.Last(dsl.Const(float("nan"))), "non-finite constant nan", id="constant"),
        pytest.param(dsl.TimeSeries("ts_mean", dsl.Feature("prices"), 5), "window 5 not in allowed set", id="window"),
        pytest.param(functools.reduce(lambda t, _: dsl.Unary("neg", t), range(dsl.MAX_DEPTH), dsl.Feature("prices")),
                     f"expression depth {dsl.MAX_DEPTH + 1} exceeds cap {dsl.MAX_DEPTH}", id="depth"),
        pytest.param(functools.reduce(lambda t, _: dsl.Binary("add", t, t), range(6), dsl.Const(1.0)),
                     f"expression has 127 nodes, cap is {dsl.MAX_NODES}", id="nodes"),
        pytest.param(dsl.Last(dsl.Unary("abs", dsl.Feature("prices"))), None, id="valid"),
    ],
)
def test_a_hand_built_tree_is_validated_on_every_build_until_it_passes(tree, message) -> None:
    for _ in range(2):  # a failure caches nothing, so a second build fails alike
        if message is None:
            assert FactorRecord("x_7_v1", tree).expr is tree
        else:
            with pytest.raises(dsl.ExprError, match=re.escape(message)):
                FactorRecord("x_7_v1", tree)
    assert ("valid" in vars(tree)) is (message is None)


def test_make_record_derives_fields() -> None:
    assert make_record is FactorRecord
    rec = FactorRecord("momentum_14_v3", dsl.parse("ts_delta(prices, 14)"), "mutated", ("momentum_14_v2",), 40)
    assert (rec.base_name, rec.window, rec.version) == ("momentum", 14, 3)
    assert rec.created_step == 40
    bumped = dataclasses.replace(rec, created_step=55)
    assert bumped.created_step == 55 and rec.created_step == 40
    assert bumped.name == rec.name
    # The derived fields follow a new name through replace, too.
    renamed = dataclasses.replace(rec, name="log_return_1")
    assert (renamed.base_name, renamed.window, renamed.version) == ("log_return_1", None, 1)
    assert (renamed.expr, renamed.parents, renamed.created_step) == (rec.expr, rec.parents, 40)
    bumped = dataclasses.replace(rec, name="momentum_21_v4", created_step=55)
    assert (bumped.base_name, bumped.window, bumped.version, bumped.created_step) == ("momentum", 21, 4, 55)
    # A derived field is no argument, so it cannot disagree with the name.
    with pytest.raises(TypeError):
        FactorRecord("momentum_14_v3", rec.expr, base_name="other")
    with pytest.raises(ValueError):
        dataclasses.replace(rec, version=9)
    with pytest.raises(ValueError, match="restart at version 1"):
        dataclasses.replace(rec, name="a_comb_b_7_v2", origin="crossover", parents=("a", "b"))


# ------------------------------------------------------------- library


def test_seed_factors_shape() -> None:
    records = seed_factors()
    assert len(records) == 42  # 10 windowed families x 4 windows + 2 fixed
    names = [r.name for r in records]
    assert len(set(names)) == 42
    assert all(r.origin == "seed" and r.version == 1 for r in records)
    assert all(not is_generated_name(r.name) for r in records)
    assert "momentum_7" in names and "rsi_14" in names and "log_return_1" in names

    subset = seed_factors((7,))
    assert len(subset) == 12
    assert {r.name for r in subset} >= {"momentum_7", "rsi_14", "log_return_1"}

    with pytest.raises(ValueError):
        seed_factors(())
    with pytest.raises(ValueError):
        seed_factors((7, 5))


def _score(expr: dsl.Expr, prices: np.ndarray, returns: np.ndarray) -> float:
    """Score of one asset's window, evaluated as a one-row cross-section."""
    return float(dsl.evaluate_cross_section(expr, prices[None, :], returns[None, :])[0])


def _consistent_window(rng: np.random.Generator, lookback: int) -> tuple[np.ndarray, np.ndarray]:
    full = 100.0 * np.exp(np.cumsum(rng.normal(0.0002, 0.02, size=lookback + 1)))
    prices = full[1:]
    returns = full[1:] / full[:-1]
    return prices, returns


def test_seed_formulas_match_oracles() -> None:
    rng = np.random.default_rng(4242)
    records = seed_factors()
    for _ in range(150):
        prices, returns = _consistent_window(rng, 30)
        for rec in records:
            got = _score(rec.expr, prices, returns)
            want = seed_oracle(rec.name)(prices, returns)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), rec.name


def test_seed_formulas_match_oracles_short_history() -> None:
    # Lookback below the largest window exercises the edge-padding path.
    rng = np.random.default_rng(99)
    records = seed_factors()
    for _ in range(60):
        prices, returns = _consistent_window(rng, 10)
        for rec in records:
            got = _score(rec.expr, prices, returns)
            want = seed_oracle(rec.name)(prices, returns)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), rec.name


def test_rsi_known_regimes() -> None:
    rsi = next(r for r in seed_factors((7,)) if r.name == "rsi_14")
    up = (np.linspace(100, 120, 20), np.full(20, 1.01))
    assert _score(rsi.expr, *up) == pytest.approx(100.0)  # gain-only
    down = (np.linspace(120, 100, 20), np.full(20, 0.99))
    assert _score(rsi.expr, *down) == pytest.approx(0.0)  # loss-only
    flat = (np.full(20, 100.0), np.ones(20))
    assert _score(rsi.expr, *flat) == 0.0  # no moves at all


def test_momentum_spot_value() -> None:
    momentum = next(r for r in seed_factors((7,)) if r.name == "momentum_7")
    prices = np.array([100.0] * 23 + [110.0] * 7)
    returns = np.ones(30)
    assert _score(momentum.expr, prices, returns) == pytest.approx(0.10)


# -------------------------------------------------------- serialization


def test_library_round_trip(tmp_path) -> None:
    records = seed_factors((3, 14))
    extra = make_record("momentum_14_v2", dsl.parse("ts_delta(prices, 14)"), "mutated", ("momentum_14",), 65)
    records = records + [extra]
    path = str(tmp_path / "lib.json")
    save_library(records, path)
    loaded = load_library(path)
    assert loaded == records
    assert loaded[-1].parents == ("momentum_14",)
    save_library(loaded, str(tmp_path / "lib2.json"))
    assert (tmp_path / "lib.json").read_bytes() == (tmp_path / "lib2.json").read_bytes()


def test_load_library_rejects_foreign_documents(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something-else", "factors": []}))
    with pytest.raises(ValueError):
        load_library(str(path))
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError):
        load_library(str(path))


def test_json_to_record_validation() -> None:
    doc = record_to_json(seed_factors((7,))[0])
    assert json_to_record(doc) == seed_factors((7,))[0]
    broken = dict(doc)
    del broken["expr"]
    with pytest.raises(ValueError):
        json_to_record(broken)
    mismatched = dict(doc, base_name="other")
    with pytest.raises(ValueError):
        json_to_record(mismatched)


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("version", 2, id="version"),
        pytest.param("version", "3", id="version_text"),
        pytest.param("parents", [1], id="parents_int"),
        pytest.param("parents", ["alpha_7_v1", None], id="parents_none"),
    ],
)
def test_json_to_record_rejects_fields_that_disagree_naming_the_key(key, value) -> None:
    rec = make_record("alpha_7_v1", dsl.parse("ts_delta(prices, 7)"), "mutated")
    doc = dict(record_to_json(rec), **{key: value})
    with pytest.raises(ValueError, match=rf"^{key} {re.escape(repr(value))} "):
        json_to_record(doc)
    # Only a JSON integer is a version, even one int() maps to the name's;
    # parents that are strings but no factor names still decode.
    for bad in (1.0, "1", True):
        with pytest.raises(ValueError, match=rf"^version {re.escape(repr(bad))} must be an integer$"):
            json_to_record(dict(record_to_json(rec), version=bad))
    assert json_to_record(dict(record_to_json(rec), parents=["alpha_7_v0x"])).version == 1
