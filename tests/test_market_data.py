"""Ingestion, return matrices, normalized paths, and rolling windows."""

from __future__ import annotations

import random

import numpy as np
import pytest

from evofactor.market_data import (
    BASE_DATE,
    IngestError,
    PriceTable,
    load_price_table,
    load_snapshot,
    save_snapshot,
    to_normalized_prices,
    to_relative_returns,
    window_matrices,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


def _wide_csv(tmp_path, name="prices.csv"):
    return _write(
        tmp_path / name,
        "date,AAA,BBB,CCC\n"
        "2024-01-01,100,50,20\n"
        "2024-01-02,110,49,21\n"
        "2024-01-03,121,51,19\n",
    )


def test_wide_load_happy_path(tmp_path):
    table = load_price_table(_wide_csv(tmp_path))
    assert table.asset_ids == ("AAA", "BBB", "CCC")
    assert table.dates == ("2024-01-01", "2024-01-02", "2024-01-03")
    np.testing.assert_allclose(table.prices[0], [100.0, 110.0, 121.0])
    assert table.dropped == ()


def test_long_load_matches_wide(tmp_path):
    wide = load_price_table(_wide_csv(tmp_path))
    lines = ["date,asset_id,close"]
    for t, date in enumerate(wide.dates):
        for i, asset in enumerate(wide.asset_ids):
            lines.append(f"{date},{asset},{wide.prices[i, t]}")
    long_table = load_price_table(
        _write(tmp_path / "long.csv", "\n".join(lines) + "\n"), layout="long"
    )
    assert long_table.asset_ids == wide.asset_ids
    assert long_table.dates == wide.dates
    np.testing.assert_array_equal(long_table.prices, wide.prices)


def test_long_dates_out_of_text_order_are_rejected_naming_the_line(tmp_path):
    # As text, 1/10/2024 sorts before 1/8/2024, so sorting the calendar
    # would scramble these rows; the wide layout rejects the same cells.
    dates = ["1/8/2024", "1/9/2024", "1/10/2024", "1/11/2024"]
    lines = ["date,asset_id,close"]
    for t, date in enumerate(dates):
        lines += [f"{date},AAA,{100 + t}", f"{date},BBB,{50 + t}"]
    path = _write(tmp_path / "long.csv", "\n".join(lines) + "\n")
    message = r"long\.csv:6: date '1/10/2024' for asset 'AAA' does not sort after '1/9/2024'"
    with pytest.raises(IngestError, match=message):
        load_price_table(path, layout="long")
    wide = ["date,AAA,BBB"] + [f"{date},{100 + t},{50 + t}" for t, date in enumerate(dates)]
    with pytest.raises(ValueError, match="dates must be strictly increasing"):
        load_price_table(_write(tmp_path / "wide.csv", "\n".join(wide) + "\n"))


def test_long_rows_by_asset_load_and_shuffled_rows_fail(tmp_path):
    wide = load_price_table(_wide_csv(tmp_path))
    rows = [
        f"{date},{asset},{wide.prices[i, t]}"
        for i, asset in enumerate(wide.asset_ids)
        for t, date in enumerate(wide.dates)
    ]
    path = _write(tmp_path / "by_asset.csv", "\n".join(["date,asset_id,close", *rows]))
    by_asset = load_price_table(path, layout="long")
    assert (by_asset.asset_ids, by_asset.dates) == (wide.asset_ids, wide.dates)
    np.testing.assert_array_equal(by_asset.prices, wide.prices)
    random.Random(0).shuffle(rows)
    path = _write(tmp_path / "shuffled.csv", "\n".join(["date,asset_id,close", *rows]))
    with pytest.raises(IngestError, match=r"shuffled\.csv:\d+: date .* does not sort after"):
        load_price_table(path, layout="long")


def test_gappy_asset_dropped_and_logged(tmp_path, caplog):
    path = _write(
        tmp_path / "gap.csv",
        "date,AAA,BBB\n2024-01-01,100,\n2024-01-02,110,49\n2024-01-03,121,51\n",
    )
    with caplog.at_level("INFO", logger="evofactor.market_data"):
        table = load_price_table(path)
    assert table.asset_ids == ("AAA",)
    assert table.dropped[0][0] == "BBB"
    assert any("BBB" in rec.message for rec in caplog.records)


def test_non_positive_cell_drops_asset(tmp_path):
    path = _write(
        tmp_path / "neg.csv",
        "date,AAA,BBB\n2024-01-01,100,50\n2024-01-02,-3,49\n2024-01-03,121,51\n",
    )
    table = load_price_table(path)
    assert table.asset_ids == ("BBB",)


def test_all_assets_dropped_raises(tmp_path):
    path = _write(tmp_path / "bad.csv", "date,AAA\n2024-01-01,\n2024-01-02,1\n")
    with pytest.raises(IngestError):
        load_price_table(path)


def test_duplicate_date_raises(tmp_path):
    path = _write(
        tmp_path / "dup.csv",
        "date,AAA\n2024-01-01,100\n2024-01-01,110\n",
    )
    with pytest.raises(IngestError):
        load_price_table(path)


def test_relatives_mode_integrates_from_base_100(tmp_path):
    path = _write(
        tmp_path / "rel.csv",
        "date,AAA,BBB\n2024-01-01,1.10,0.90\n2024-01-02,1.00,1.10\n",
    )
    table = load_price_table(path, values="relatives")
    assert table.dates[0] == BASE_DATE
    np.testing.assert_allclose(table.prices[0], [100.0, 110.0, 110.0])
    np.testing.assert_allclose(table.prices[1], [100.0, 90.0, 99.0])
    # every input row became exactly one realized return
    rm = to_relative_returns(table)
    np.testing.assert_allclose(rm.values[0], [1.10, 1.00])


def test_return_matrix_and_normalized_prices():
    prices = np.array([[100.0, 110.0, 99.0], [50.0, 50.0, 55.0]])
    table = PriceTable(("A", "B"), ("d1", "d2", "d3"), prices)
    rm = to_relative_returns(table)
    np.testing.assert_allclose(rm.values, [[1.1, 0.9], [1.0, 1.1]])
    norm = to_normalized_prices(rm)
    np.testing.assert_allclose(norm[0], [100.0, 110.0, 99.0])
    np.testing.assert_allclose(norm[1], [100.0, 100.0, 110.0])
    assert norm.shape == prices.shape


def test_window_matrices_span_and_alignment():
    rng = np.random.default_rng(11)
    prices = 100.0 * np.cumprod(np.exp(rng.normal(0, 0.01, size=(4, 20))), axis=1)
    table = PriceTable(
        tuple(f"A{i}" for i in range(4)), tuple(f"d{t:02d}" for t in range(20)), prices
    )
    rm = to_relative_returns(table)
    norm = to_normalized_prices(rm)
    win_p, win_r = window_matrices(norm, rm, t=10, lookback=5)
    assert win_p.shape == (4, 5) and win_r.shape == (4, 5)
    np.testing.assert_array_equal(win_p, norm[:, 6:11])
    np.testing.assert_array_equal(win_r, rm.values[:, 5:10])
    # the last window return reproduces the last price ratio
    np.testing.assert_allclose(win_r[:, -1], win_p[:, -1] / win_p[:, -2])


def test_window_matrices_insufficient_history():
    prices = np.full((2, 6), 100.0)
    table = PriceTable(("A", "B"), tuple(f"d{t}" for t in range(6)), prices)
    rm = to_relative_returns(table)
    norm = to_normalized_prices(rm)
    with pytest.raises(ValueError, match="insufficient history"):
        window_matrices(norm, rm, t=2, lookback=3)
    window_matrices(norm, rm, t=3, lookback=3)


def test_price_table_validation():
    good = np.full((1, 2), 5.0)
    with pytest.raises(ValueError):
        PriceTable(("A",), ("d2", "d1"), good)  # dates out of order
    with pytest.raises(ValueError):
        PriceTable(("A", "A"), ("d1", "d2"), np.full((2, 2), 5.0))  # dup ids
    with pytest.raises(ValueError):
        PriceTable(("A",), ("d1", "d2"), np.array([[1.0, -2.0]]))  # negative


def test_snapshot_round_trip_is_byte_stable(tmp_path):
    rng = np.random.default_rng(5)
    prices = 100.0 * np.cumprod(np.exp(rng.normal(0, 0.02, size=(3, 9))), axis=1)
    table = PriceTable(
        ("AAA", "BBB", "CCC"), tuple(f"d{t}" for t in range(9)), prices
    )
    first = tmp_path / "one.json"
    save_snapshot(table, str(first))
    loaded = load_snapshot(str(first))
    np.testing.assert_array_equal(loaded.prices, table.prices)
    assert loaded.asset_ids == table.asset_ids and loaded.dates == table.dates
    second = tmp_path / "two.json"
    save_snapshot(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_snapshot_schema_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "something-else"}\n')
    with pytest.raises(IngestError):
        load_snapshot(str(path))
