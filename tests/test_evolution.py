"""Evolution loop tests: tracker, version filtering, pool hygiene, the
benchmark gate, and the full search-and-backtest loop with resume."""
from __future__ import annotations

import dataclasses
import gc
import json
import logging
import re
import reprlib
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import oracles
from strategies import expressions, within_caps

from evofactor import dsl, evolution, metrics, portfolio, seeds
from evofactor.dsl import ALLOWED_WINDOWS, TS_OPS, Last, TimeSeries
from evofactor.evolution import (
    EvolutionConfig,
    PerfTracker,
    ScoreCache,
    SearchRecord,
    StepOutcome,
    append_checkpoint,
    benchmark_gate,
    gate_batch,
    clean_factor_pool,
    composite_scores,
    filter_factor_versions,
    json_to_search_record,
    load_checkpoints,
    replay_tracker,
    run_evolution,
    save_checkpoints,
    update_tracker,
)
from evofactor.generator import GenerationResult, GeneratorConfig, PromptLeakError, generate_offline, generate_remote
from evofactor.market_data import (
    PriceTable,
    to_normalized_prices,
    to_relative_returns,
    window_matrices,
)
from evofactor.seeds import (
    LIBRARY_SCHEMA,
    FactorRecord,
    json_to_record,
    load_library,
    make_name,
    make_record,
    parse_name,
    record_to_json,
    save_library,
    seed_factors,
)
from evofactor.synthetic import dominant_asset_table, planted_momentum_table, random_walk_table


def _cfg(**kw) -> EvolutionConfig:
    base = dict(
        lookback=30,
        warmup_steps=60,
        search_interval=5,
        m=3,
        k_top=3,
        m_candidates=4,
        recall_n=3,
        seed_windows=(7,),
    )
    base.update(kw)
    return EvolutionConfig(**base)


def _run(table: PriceTable, cfg: EvolutionConfig, **kw) -> tuple[evolution.EvolutionResult, list[StepOutcome]]:
    """run_evolution's result and every outcome it emitted, in step order."""
    outcomes: list[StepOutcome] = []
    return run_evolution(table, cfg, emit=outcomes.append, **kw), outcomes


def _records(outcomes: list[StepOutcome]) -> list[SearchRecord]:
    """The checkpoints among outcomes: one per search step."""
    return [outcome.record for outcome in outcomes if outcome.record is not None]


# --------------------------------------------------------------- config


def test_config_validation() -> None:
    EvolutionConfig()  # defaults are legal
    bad = [
        dict(lookback=1),
        dict(warmup_steps=10, lookback=30),
        dict(search_interval=0),
        dict(m=0),
        dict(k_top=0),
        dict(m_candidates=0),
        dict(cost_rate=-0.1),
        dict(cost_rate=1.0),
        dict(weighting="cap"),
        dict(tau=0.0),
        dict(quality_metric="alpha"),
        dict(keep_top_n=0),
        dict(keep_top_n=60, max_pool_size=50),
        dict(recall_n=0),
        dict(stats_window=0),
        dict(seed_windows=(5,)),
        dict(seed_windows=(7, 14, 7)),
    ]
    for kw in bad:
        with pytest.raises(ValueError):
            EvolutionConfig(**kw)
    with pytest.raises(ValueError, match=re.escape("config key seed_windows=(7, 7) must not repeat a window")):
        EvolutionConfig(seed_windows=(7, 7))


# -------------------------------------------------------------- tracker


def _write(tr: PerfTracker, names, step: int, gross, rankic, recall) -> None:
    """One step's entries for names, one column each: gross[i] goes to names[i]."""
    tr.write(names, step, np.array([gross, rankic, recall], dtype=float)[:, :, None])


def test_tracker_mechanics() -> None:
    tr = PerfTracker()
    assert tr.reached == -1
    tr.write(["a"], 30, np.array([[[1.01, 0.99]], [[0.1, -0.2]], [[0.5, 0.0]]]))  # a at steps 30 and 31
    assert tr.reached == 30 and tr.series("a") == ([30], [1.01], [0.1], [0.5])  # 31 is not reached
    alone = PerfTracker()
    _write(alone, ["a"], 30, [1.01], [0.1], [0.5])
    # Through step 30 alone: reads stop at the reached step, not a row's end.
    assert tr.count("a") == 1 and tr.stat(["a"], 5, 4) == alone.stat(["a"], 5, 4)
    _write(tr, ["b"], 31, [1.02], [0.3], [1.0])
    state = (tr.reached, tr.names(), tr.series("a"), tr.series("b"))
    for names, step in (
        (["a"], 33),  # a skips step 32
        (["b"], 31),  # b repeats step 31
        (["c", "b", "c"], 32),  # c is named twice
        (["c", "a"], 33),  # a rejected write changes nothing, new c included
        (["c"], 30),  # step 30 falls behind the reached step 31
    ):
        with pytest.raises(ValueError):
            tr.write(names, step, np.ones((3, len(names), 1)))
        assert (tr.reached, tr.names(), tr.series("a"), tr.series("b")) == state
    _write(tr, [], 31, [], [], [])  # marks step 31 only
    assert tr.names() == ["a", "b"]
    assert tr.count("a") == 2
    assert tr.count("missing") == 0
    steps, gross, rankic, recall = tr.series("a")
    assert steps == [30, 31] and gross == [1.01, 0.99]
    assert rankic == [0.1, -0.2] and recall == [0.5, 0.0]
    tr.drop("a")
    assert tr.names() == ["b"] and tr.count("a") == 0
    _write(tr, ["a"], 33, [1.0], [0.0], [0.0])  # a dropped name starts a new row
    assert tr.series("a") == ([33], [1.0], [0.0], [0.0]) and tr.count("b") == 1


def test_tracker_stat_performance_columns() -> None:
    tr = PerfTracker()
    grosses = [1.02, 0.97, 1.01, 1.03]
    for i, g in enumerate(grosses):
        _write(tr, ["f"], 30 + i, [g], [0.1 * i], [0.5])
        if 30 + i == 31:
            stats3 = tr.stat(["f"], window=10, recall_n=4)[0]["f"]
        if 30 + i == 33:
            # Trailing window: only the last two entries through step 33.
            stats2 = tr.stat(["f"], window=2, recall_n=4)[0]["f"]
    stats = tr.stat(["f"], window=10, recall_n=4)[0]["f"]
    net = [g - 1.0 for g in grosses]
    assert stats["mean_return"] == pytest.approx(oracles.mean(net))
    assert stats["std_return"] == pytest.approx(oracles.sstd(net))
    assert stats["sharpe_ratio"] == pytest.approx(oracles.sharpe(net))
    assert stats["final_value"] == pytest.approx(100.0 * np.prod(grosses))
    path = [100.0]
    for g in grosses:
        path.append(path[-1] * g)
    assert stats["max_drawdown"] == pytest.approx(-oracles.mdd_bruteforce(path))
    assert stats["max_drawdown"] <= 0.0  # tracker reports drawdown as negative

    assert stats2["final_value"] == pytest.approx(100.0 * 1.01 * 1.03)
    # The reached step cuts by step, not position.
    assert stats3["final_value"] == pytest.approx(100.0 * 1.02 * 0.97)


def test_tracker_stat_quality_columns_and_absent_names() -> None:
    tr = PerfTracker()
    ics = [0.2, -0.1, 0.4]
    recalls = [0.5, 0.25, 0.75]
    assert tr.stat(["f"], window=5, recall_n=4) == ({}, {})  # no step reached yet
    for i, (ic, rc) in enumerate(zip(ics, recalls)):
        _write(tr, ["f"], 30 + i, [1.0], [ic], [rc])
    perf, qual = tr.stat(["f", "ghost"], window=5, recall_n=4)
    # A name with no entries is left out, not given neutral stats.
    assert list(perf) == list(qual) == ["f"]
    p, q = perf["f"], qual["f"]
    assert [*p, *q] == [
        "mean_return", "std_return", "sharpe_ratio", "max_drawdown", "final_value",
        "mean_rankic", "std_rankic", "mean_recall@4", "std_recall@4",
    ]  # fmt: skip
    assert q["mean_rankic"] == pytest.approx(oracles.mean(ics))
    assert q["std_rankic"] == pytest.approx(oracles.sstd(ics))
    assert q["mean_recall@4"] == pytest.approx(oracles.mean(recalls))
    assert p["final_value"] == pytest.approx(100.0)


def _rows(stats: tuple[dict, dict]) -> dict[str, dict[str, float]]:
    """PerfTracker.stat's (performance, quality) maps as one row per name."""
    performance, quality = stats
    return {name: {**performance[name], **quality[name]} for name in performance}


_Entry = tuple[int, float, float, float]  # step, gross, rankic, recall


@st.composite
def _tracker_ops(
    draw, max_names: int = 6, max_start: int = 0, max_entries: int = 120
) -> list[tuple[int | None, int, dict[str, list[_Entry]]]]:
    """Interleaved writes and drops over a few names, as a run makes them:
    (step, k, {name: its k entries from step on}) for a write, which marks
    step reached, and (None, 0, {name: []}) for a drop. Each write's step is
    the reached step or a later one, from a drawn first step up to
    max_start, and it continues the rows it extends at the step after their
    last entry; a re-written name, or a new one, starts a row at the step
    and reuses a freed row. Some names always write the same gross and
    rankic. At most max_entries entries and drops are drawn."""
    names = [f"f{i}" for i in range(draw(st.integers(1, max_names)))]
    fixed = {
        name: (draw(st.floats(0.5, 1.5)), draw(st.floats(-1.0, 1.0)))
        for name in names
        if draw(st.booleans())
    }
    reached, stops = draw(st.integers(0, max_start)), {}  # name -> step after its last entry
    ops: list[tuple[int | None, int, dict[str, list[_Entry]]]] = []
    budget = draw(st.integers(0, max_entries))
    while budget > 0:
        if draw(st.integers(0, 11)) == 0:
            name = draw(st.sampled_from(names))
            ops.append((None, 0, {name: []}))
            stops.pop(name, None)
            budget -= 1
            continue
        steps = {reached, reached + 1, reached + 2, *(stop for stop in stops.values() if stop >= reached)}
        step = draw(st.sampled_from(sorted(steps)))
        open_rows = [name for name in names if stops.get(name, step) == step]
        k = draw(st.integers(1, 4))
        written = {}
        for name in draw(st.lists(st.sampled_from(open_rows), unique=True, max_size=3)) if open_rows else []:
            entries = []
            for s in range(step, step + k):
                gross, rankic = fixed.get(name) or (draw(st.floats(0.5, 1.5)), draw(st.floats(-1.0, 1.0)))
                entries.append((s, gross, rankic, draw(st.integers(0, 4)) / 4))
            written[name], stops[name] = entries, step + k
        ops.append((step, k, written))
        reached, budget = step, budget - max(1, k * len(written))
    return ops


def _replay_ops(ops) -> tuple[PerfTracker, dict[str, list[_Entry]]]:
    """The tracker after ops, and every entry each live name was written,
    the reached step's and those past it alike."""
    tr = PerfTracker()
    entries: dict[str, list[_Entry]] = {}
    for step, k, written in ops:
        if step is None:
            (name,) = written
            tr.drop(name)
            entries.pop(name, None)
        else:
            columns = [[[entry[c] for entry in rows] for rows in written.values()] for c in (1, 2, 3)]
            tr.write(list(written), step, np.reshape(columns, (3, len(written), k)))
            for name, rows in written.items():
                entries.setdefault(name, []).extend(rows)
    assert tr.reached == max((step for step, _, _ in ops if step is not None), default=-1)
    return tr, entries


@settings(max_examples=300, deadline=None)
@given(_tracker_ops(), st.integers(1, 30))
def test_tracker_stat_matches_per_name_reference(ops, window) -> None:
    tr, entries = _replay_ops(ops)
    assert tr.names() == sorted(entries)
    names = sorted({name for _, _, written in ops for name in written} | {"ghost"})
    got = _rows(tr.stat(names, window, recall_n=4))
    for name in names:
        # The oracle reads the drawn entries, never the tracker's storage,
        # and sees none past the reached step.
        visible = [entry for entry in entries.get(name, []) if entry[0] <= tr.reached]
        if len(visible) < len(entries.get(name, [])):
            event("entries past the reached step stay hidden")
        series = [list(column) for column in zip(*visible)] or [[], [], [], []]
        assert tr.series(name) == tuple(series)
        want = oracles.tracker_window_stats(*series, window, tr.reached, recall_n=4)
        if want is None:
            assert name not in got
        else:
            # repr: equal bits, and plain floats rather than numpy scalars.
            assert {k: repr(v) for k, v in got[name].items()} == {
                k: repr(v) for k, v in want.items()
            }


@settings(max_examples=100, deadline=None)
@given(_tracker_ops(), st.integers(1, 30), st.integers(1, 20))
def test_tracker_stat_maps_name_the_same_factors_under_the_report_columns(ops, window, recall_n) -> None:
    tr, _ = _replay_ops(ops)
    names = sorted({name for _, _, written in ops for name in written} | {"ghost"})
    performance, quality = tr.stat(names, window, recall_n)
    assert list(performance) == list(quality)
    assert set(performance) == {name for name in names if tr.count(name)}
    for name in performance:
        assert tuple(performance[name]) == metrics.PERFORMANCE_COLUMNS
        assert tuple(quality[name]) == metrics.quality_columns(recall_n)


@settings(max_examples=200, deadline=None)
@given(
    # Many names created at many different steps give final_value's padded
    # block rows of many different lengths.
    _tracker_ops() | _tracker_ops(max_names=24, max_start=90, max_entries=300),
    st.integers(1, 30),
)
def test_tracker_column_matches_stat(ops, window) -> None:
    tr, _ = _replay_ops(ops)
    names = sorted({name for _, _, written in ops for name in written} | {"ghost"})
    stats = _rows(tr.stat(names, window, recall_n=4))
    for metric in evolution.QUALITY_METRICS:
        got = tr.column(names, window, metric)
        assert {k: repr(v) for k, v in got.items()} == {
            k: repr(row[metric]) for k, row in stats.items()
        }
    with pytest.raises(ValueError, match="metric"):
        tr.column(names, window, "sharpe_ratio")


# ----------------------------------------------------- version filtering


def _pool_of(names) -> dict[str, FactorRecord]:
    """Records named as given, each parsed once by make_record."""
    expr = dsl.parse("last(prices)")
    return {name: make_record(name, expr, "mutated") for name in names}


def _versions(values: dict[str, float]) -> list[str]:
    return filter_factor_versions(values, _pool_of(values))


def test_filter_factor_versions_worked_example() -> None:
    values = {"momentum_7": 110.0, "momentum_7_v2": 120.0, "momentum_7_v3": 115.0}
    assert _versions(values) == ["momentum_7_v2", "momentum_7_v3"]


def test_filter_factor_versions_cases() -> None:
    # Latest coincides with best: one survivor.
    assert _versions({"a_7_v1": 100.0, "a_7_v2": 120.0}) == ["a_7_v2"]
    # Single version: itself.
    assert _versions({"a_7_v1": 100.0}) == ["a_7_v1"]
    # Windows share a base: momentum_3 and momentum_7 are both version 1, so
    # the latest-tie breaks to the smaller name while best follows value.
    out = _versions({"momentum_3": 100.0, "momentum_7": 105.0})
    assert out == ["momentum_3", "momentum_7"]
    # Equal values tie toward the lexicographically smaller name.
    out = _versions({"b_7_v1": 100.0, "b_7_v2": 90.0, "b_7_v3": 90.0})
    assert out == ["b_7_v1", "b_7_v3"]
    # Separate bases never interact.
    out = _versions({"a_7_v1": 1.0, "a_7_v2": 2.0, "c_3_v1": 0.0})
    assert out == ["a_7_v2", "c_3_v1"]
    assert _versions({}) == []


def _filter_factor_versions_oracle(values: dict[str, float]) -> list[str]:
    """The filter as first written: parse_name again inside the version key."""
    groups: dict[str, list[str]] = {}
    for name in values:
        groups.setdefault(parse_name(name)[0], []).append(name)
    kept: set[str] = set()
    for names in groups.values():
        kept.add(min(names, key=lambda n: (-parse_name(n)[2], n)))
        kept.add(min(names, key=lambda n: (-values[n], n)))
    return sorted(kept)


# Shared bases across windows (momentum_3, momentum_7_v2), bare seed-style
# names (rsi_14, log_return_1), equal versions and equal values.
_VERSIONED_NAMES = st.builds(
    lambda base, window, version: base + window + version,
    st.sampled_from(["momentum", "alpha", "alpha_comb_momentum", "rsi", "log_return"]),
    st.sampled_from(["", "_1", "_3", "_7", "_14"]),
    st.sampled_from(["", "_v1", "_v2", "_v3"]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(_VERSIONED_NAMES, st.sampled_from([-0.5, 1.0, 2.0, 2.0]), max_size=12),
    st.sets(_VERSIONED_NAMES, max_size=4),
)
def test_filter_factor_versions_matches_the_oracle_without_parsing_names(values, ungraded) -> None:
    # The pool may hold names without a value, as a ranking's pool does.
    pool = _pool_of(values.keys() | ungraded)
    calls = []

    def spy(name):
        calls.append(name)
        return parse_name(name)

    with pytest.MonkeyPatch.context() as mp:
        for module in (seeds, evolution):
            mp.setattr(module, "parse_name", spy, raising=False)
        kept = filter_factor_versions(values, pool)
    assert kept == _filter_factor_versions_oracle(values)
    assert calls == []  # names group by the records' base_name and version


# -------------------------------------------------------- tracker replay


def _scorer(table: PriceTable, cfg: EvolutionConfig) -> ScoreCache:
    return ScoreCache(to_relative_returns(table), cfg.lookback)


def test_warmup_populates_every_factor() -> None:
    table = random_walk_table(8, 100, seed=1)
    cfg = _cfg()
    pool = {r.name: r for r in seed_factors(cfg.seed_windows)}
    tracker = replay_tracker(pool, _scorer(table, cfg), cfg, cfg.warmup_steps)
    assert tracker.names() == sorted(pool)
    assert len(tracker.names()) == 12
    for name in tracker.names():
        assert tracker.count(name) == cfg.warmup_steps - cfg.lookback + 1


def test_replay_tracker_reproduces_the_live_tracker() -> None:
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3, max_pool_size=14, keep_top_n=4)
    res, outcomes = _run(table, cfg, gen=generate_offline)
    assert any(outcome.pruned for outcome in outcomes)
    # A name pruned and proposed again later starts a new series, so only the
    # factors that stay in the pool through the end are compared.
    final = set(res.pool)
    generated = 0
    for rec in _records(outcomes):
        replayed = replay_tracker(rec.pool_map(), _scorer(table, cfg), cfg, rec.step)
        for name in sorted(r.name for r in final.intersection(rec.pool)):
            steps, *columns = res.tracker.series(name)
            upto = sum(1 for step in steps if step <= rec.step)
            live = (steps[:upto], *(column[:upto] for column in columns))
            assert replayed.series(name) == live, (rec.step, name)
            generated += rec.pool_map()[name].origin != "seed"
    assert generated  # factors created mid-run start at their created_step


def test_update_tracker_matches_manual_evaluation() -> None:
    table = random_walk_table(6, 80, seed=2)
    cfg = _cfg(m=2, recall_n=2)
    rm = to_relative_returns(table)
    norm = to_normalized_prices(rm)
    momentum = next(r for r in seed_factors((7,)) if r.name == "momentum_7")
    tracker = PerfTracker()
    t = 45
    update_tracker(tracker, {momentum.name: momentum}, ScoreCache(rm, cfg.lookback), t, cfg)
    prices_win, returns_win = window_matrices(norm, rm, t, cfg.lookback)
    scores = dsl.evaluate_cross_section(momentum.expr, prices_win, returns_win)
    realized = rm.values[:, t]
    top = oracles.top_n(scores, 2)
    _, gross, rankic, recall = tracker.series(momentum.name)
    assert gross[0] == pytest.approx(oracles.mean([realized[i] for i in top]))
    assert rankic[0] == pytest.approx(oracles.spearman(scores, realized))
    assert recall[0] == pytest.approx(oracles.recall_at_n(scores, realized, 2))


def test_update_tracker_grades_each_name_once_per_search_block(monkeypatch) -> None:
    # Blocks of search_interval 4 from lookback 30: 30..31, 32..35, ..., 76..79.
    calls: list[tuple[int, int]] = []  # (first step, score rows) of each grade_rows call

    def counting_grade(scores, realized, m, recall_n, steps=None, _grade=metrics.grade_rows):
        calls.append((int(steps[0]), len(scores)))
        return _grade(scores, realized, m, recall_n, steps)

    monkeypatch.setattr(metrics, "grade_rows", counting_grade)
    table = random_walk_table(6, 80, seed=2)
    cfg = _cfg(search_interval=4, recall_n=2)
    pool = {r.name: r for r in seed_factors((7,))[:3]}
    late = dataclasses.replace(seed_factors((7,))[3], created_step=41)  # joins mid-block 40..43
    scorer = _scorer(table, cfg)
    tracker = PerfTracker()
    assert scorer.rm.values.shape[1] == 80
    dropped = next(iter(pool))
    for t in range(cfg.lookback, 80):
        if t == 37:  # a name dropped mid-block, as RunState.drop does, is graded again from there
            tracker.drop(dropped)
            scorer.drop(dropped)
        update_tracker(tracker, {**pool, late.name: late}, scorer, t, cfg)
        assert tracker.reached == t
        assert max(tracker.series(name)[0][-1] for name in tracker.names()) == t
    assert tracker.series(dropped)[0] == list(range(37, 80))
    # One call per block over its pool, rows = names x steps left in the block.
    late_blocks = [(t, 16) for t in range(44, 80, 4)]
    assert calls == [(30, 6), (32, 12), (36, 12), (37, 3), (40, 12), (41, 3), *late_blocks]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_block_graded_tracker_matches_the_per_step_reference(data) -> None:
    # Every tracker write of a run and of its resume must equal, by repr, a
    # reference that scores each factor on its own window and grades one
    # step at a time; after step t no entry is later than t.
    lookback = data.draw(st.sampled_from([8, 14]), label="lookback")
    cfg = _cfg(
        lookback=lookback,
        warmup_steps=lookback + data.draw(st.integers(0, 8), label="warmup_slack"),
        search_interval=data.draw(st.integers(1, 7), label="search_interval"),
        max_pool_size=data.draw(st.integers(12, 15), label="max_pool_size"),
        keep_top_n=data.draw(st.integers(1, 4), label="keep_top_n"),
        t_drop=data.draw(st.sampled_from([0.0, 0.05]), label="t_drop"),
        rng_seed=data.draw(st.integers(0, 3), label="rng_seed"),
    )
    first_search = (cfg.warmup_steps // cfg.search_interval + 1) * cfg.search_interval
    n_steps = first_search + data.draw(st.integers(2, 5), label="rounds") * cfg.search_interval + 2
    table = planted_momentum_table(
        n_assets=data.draw(st.integers(6, 8), label="n_assets"),
        n_steps=n_steps,
        seed=data.draw(st.integers(0, 2**16), label="table_seed"),
        signal=0.6,
    )
    pool = [
        dataclasses.replace(rec, created_step=data.draw(st.integers(0, n_steps - 3), label=rec.name))
        for rec in seed_factors(cfg.seed_windows)
    ]
    rm = to_relative_returns(table)
    norm = to_normalized_prices(rm)

    def score(rec: FactorRecord, t: int) -> np.ndarray:
        return dsl.evaluate_cross_section(rec.expr, *window_matrices(norm, rm, t, cfg.lookback))

    def grade(rows: np.ndarray, t: int):
        return metrics.grade_rows(rows, rm.values[:, t], cfg.m, cfg.recall_n)

    references: dict[int, tuple[PerfTracker, oracles.StepTracker]] = {}  # the tracker keeps its id

    def reference(tracker: PerfTracker) -> oracles.StepTracker:
        return references.setdefault(id(tracker), (tracker, oracles.StepTracker(score, grade)))[1]

    def checked_update(tracker, pool, scorer, t, cfg, _update=update_tracker):
        _update(tracker, pool, scorer, t, cfg)
        ref = reference(tracker)
        ref.update(pool, t)
        assert tracker.names() == ref.names()
        for name in ref.names():
            got = tracker.series(name)
            assert repr(got) == repr(ref.series(name)), (t, name)
            assert got[0][-1] <= t
        # The block is written through its end, yet no read sees past t:
        # every read equals, by repr, the oracle's over the entries through t.
        names = ref.names()
        for window in (cfg.stats_window, cfg.search_interval):
            want = {n: oracles.tracker_window_stats(*ref.series(n), window, t, cfg.recall_n) for n in names}
            want = {n: {k: repr(v) for k, v in row.items()} for n, row in want.items() if row}
            got = _rows(tracker.stat(names, window, cfg.recall_n))
            assert {n: {k: repr(v) for k, v in row.items()} for n, row in got.items()} == want
            for metric in evolution.QUALITY_METRICS:
                column = tracker.column(names, window, metric)
                assert {n: repr(v) for n, v in column.items()} == {n: row[metric] for n, row in want.items()}
        block_start = max(cfg.lookback, t - t % cfg.search_interval)
        if any(block_start < rec.created_step <= t for rec in pool.values()):
            event("a factor joins mid-block")

    def checked_drop(self, names, _drop=evolution.RunState.drop):
        names = sorted(names)
        graded = [name for name in names if self.tracker.count(name)]
        event("pruned" if graded else "no pruned factor")
        event("gated out" if len(graded) < len(names) else "none gated out")
        reference(self.tracker).drop(names)
        _drop(self, names)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolution, "update_tracker", checked_update)
        patch.setattr(evolution.RunState, "drop", checked_drop)
        chunk = data.draw(st.sampled_from([1, 50, 200, 16_000]), label="chunk")
        patch.setattr(evolution, "GRADE_CHUNK", chunk)  # small chunks split a block over several calls
        full, outcomes = _run(table, cfg, gen=generate_offline, pool=pool)
        if records := _records(outcomes):
            rec = records[data.draw(st.integers(0, len(records) - 1), label="checkpoint")]
            resumed = run_evolution(table, cfg, gen=generate_offline, pool=pool, resume_from=rec)
            assert resumed.ledger == full.ledger[rec.step + 1 :]
    for tracker, ref in references.values():
        assert tracker.names() == ref.names()


def test_the_step_order_is_the_timeline(monkeypatch) -> None:
    # Every tracker read stops at PerfTracker.reached, so the order of calls
    # in step alone decides which grades a decision at step t reads. Pruning
    # and the prompt run before step t is graded; the gate and the composite
    # run after it, and so read the grade of the return step t trades. A read
    # is charged to the decision whose call it runs in, found on the stack,
    # and t is that of the enclosing step call.
    decisions = {getattr(evolution, name).__code__: name
                 for name in ("clean_factor_pool", "_build_request", "gate_batch", "composite_scores")}
    reads: set[tuple[str, int]] = set()  # (decision, t - reached) of each tracker read

    def seen(read):
        def traced(self, *args):
            frame, decision = sys._getframe(1), None
            while frame is not None and frame.f_code is not evolution.step.__code__:
                decision = decision or decisions.get(frame.f_code)
                frame = frame.f_back
            if decision is not None and frame is not None:
                reads.add((decision, frame.f_locals["t"] - self.reached))
            return read(self, *args)

        return traced

    for name in ("count", "_gather"):  # every read of stat, column and count
        monkeypatch.setattr(PerfTracker, name, seen(getattr(PerfTracker, name)))
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    _, outcomes = _run(table, _cfg(recall_n=3, max_pool_size=14, keep_top_n=4), gen=generate_offline)
    assert any(outcome.pruned for outcome in outcomes)
    assert reads == {("clean_factor_pool", 1), ("_build_request", 1), ("gate_batch", 0), ("composite_scores", 0)}


# ---------------------------------------------------------- pool hygiene


def _tracked_pool(n_extra: int, windows=(3, 7), good: int = 4):
    """Seed pool plus n_extra mutated factors with crafted tracker values:
    the first `good` extras compound 2% per entry, the rest lose 1%."""
    pool = {r.name: r for r in seed_factors(windows)}
    tracker = PerfTracker()
    extras = []
    for i in range(n_extra):
        rec = make_record(
            f"gen{i:02d}_7_v2",
            dsl.parse(f"ts_delta(prices, {(3, 7, 14, 21)[i % 4]})"),
            "mutated",
            (),
            created_step=61 + i,
        )
        pool[rec.name] = rec
        extras.append(rec.name)
    names = list(pool)
    gross = [1.02 if name in extras[:good] else (0.99 if name in extras else 1.0) for name in names]
    for step in range(30, 75):
        _write(tracker, names, step, gross, [0.0] * len(names), [0.5] * len(names))
    return pool, tracker, extras


def test_clean_factor_pool_identity_when_small() -> None:
    pool, tracker, _ = _tracked_pool(2)
    cfg = _cfg(seed_windows=(3, 7), max_pool_size=50, keep_top_n=5)
    out = clean_factor_pool(pool, tracker, cfg)
    assert out == dict(pool)


def test_clean_factor_pool_prunes_to_cap() -> None:
    pool, tracker, extras = _tracked_pool(12)  # 22 seeds + 12 extras = 34
    cfg = _cfg(seed_windows=(3, 7), max_pool_size=30, keep_top_n=4)
    series = {name: tracker.series(name) for name in tracker.names()}
    out = clean_factor_pool(pool, tracker, cfg)
    assert len(out) == 30
    assert list(out) == sorted(out)
    seeds = {n for n, r in pool.items() if r.origin == "seed"}
    assert seeds <= set(out)  # seeds are never pruned
    # The four winners are kept on quality.
    assert set(extras[:4]) <= set(out)
    # The rest compete on recency: 4 slots left for the 8 losers.
    losers_kept = {n for n in extras[4:] if n in out}
    assert losers_kept == set(sorted(extras[4:], key=lambda n: -pool[n].created_step)[:4])
    # Pruning only picks the survivors; the loop evicts the rest.
    assert len(pool) == 34 and {n: tracker.series(n) for n in tracker.names()} == series


def test_clean_factor_pool_seeds_win_over_quality_picks() -> None:
    # All four windows: 42 seeds. keep_top_n picks would overflow the cap,
    # so the weakest non-seed picks are shed while seeds stay.
    pool, tracker, extras = _tracked_pool(20, windows=(3, 7, 14, 21), good=20)
    cfg = _cfg(seed_windows=(3, 7, 14, 21), max_pool_size=45, keep_top_n=10)
    out = clean_factor_pool(pool, tracker, cfg)
    assert len(out) == 45
    seeds = {n for n, r in pool.items() if r.origin == "seed"}
    assert seeds <= set(out)
    assert len([n for n in out if n in extras]) == 3  # 45 - 42 seeds


# ---------------------------------------------------------------- gate


def _gate_fixture(t: int = 70):
    table = planted_momentum_table(n_assets=20, n_steps=120, seed=3, signal=0.9)
    cfg = _cfg(m=5, recall_n=5)
    rm = to_relative_returns(table)
    pool = {r.name: r for r in seed_factors((7,))}
    tracker = replay_tracker(pool, ScoreCache(rm, cfg.lookback), cfg, t)
    return table, cfg, rm, pool, tracker


def test_benchmark_gate_keeps_signal_and_drops_noise() -> None:
    _, cfg, rm, pool, tracker = _gate_fixture()
    good = make_record("momentum_7_v2", dsl.parse("ts_delta(prices, 7)"), "mutated", ("momentum_7",), 70)
    bad = make_record("antimom_7_v2", dsl.parse("neg(ts_delta(prices, 7))"), "mutated", (), 70)

    scorer = ScoreCache(rm, cfg.lookback)
    [(_, (keep, why), _)] = gate_batch([good], tracker, scorer, cfg, {**pool, good.name: good})
    assert keep, why
    [(_, (keep, why), _)] = gate_batch([bad], tracker, scorer, cfg, {**pool, bad.name: bad})
    assert not keep
    assert "final_value" in why and "rankic" in why


def test_benchmark_gate_without_incumbents_keeps() -> None:
    _, cfg, rm, _, tracker = _gate_fixture()
    cand = make_record("antimom_7_v2", dsl.parse("neg(ts_delta(prices, 7))"), "mutated", (), 70)
    scorer = ScoreCache(rm, cfg.lookback)
    [(_, (keep, why), _)] = gate_batch([cand], tracker, scorer, cfg, {cand.name: cand})
    assert keep and "no incumbents" in why


def test_benchmark_gate_t_drop_raises_the_bar() -> None:
    # With a large t_drop even a factor tracking the baseline fails the
    # wealth leg; it survives only while its RankIC stays above the median.
    _, cfg, rm, pool, tracker = _gate_fixture()
    good = make_record("momentum_7_v2", dsl.parse("ts_delta(prices, 7)"), "mutated", (), 70)
    strict = _cfg(m=5, recall_n=5, t_drop=10.0)  # baseline x11 is unbeatable
    scorer = ScoreCache(rm, strict.lookback)
    [(_, (keep, why), _)] = gate_batch([good], tracker, scorer, strict, {**pool, good.name: good})
    assert keep  # saved by the RankIC leg
    bad = make_record("antimom_7_v2", dsl.parse("neg(ts_delta(prices, 7))"), "mutated", (), 70)
    [(_, (keep, _), _)] = gate_batch([bad], tracker, scorer, strict, {**pool, bad.name: bad})
    assert not keep


_GATE_EXPRS = tuple(rec.expr for rec in seed_factors((3, 7, 14))) + tuple(
    dsl.parse(text) for text in ("ts_delta(prices, 7)", "neg(ts_delta(prices, 7))", "neg(ts_mean(returns, 3))")
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(range(len(_GATE_EXPRS))), min_size=1, max_size=6),
    st.booleans(),
    st.sampled_from([-0.5, -0.05, 0.0, 0.02, 10.0]),
    st.integers(62, 70),
)
def test_gating_a_batch_equals_gating_each_candidate_alone(picks, incumbents, t_drop, t) -> None:
    _, base, rm, pool, tracker = _gate_fixture(t)
    cfg = dataclasses.replace(base, t_drop=t_drop)
    batch = [make_record(f"cand{i}_7_v2", _GATE_EXPRS[k], "mutated", (), t) for i, k in enumerate(picks)]
    if not incumbents:
        pool = {}
    together = gate_batch(batch, tracker, ScoreCache(rm, cfg.lookback), cfg, pool)
    alone = [gate_batch([cand], tracker, ScoreCache(rm, cfg.lookback), cfg, pool)[0] for cand in batch]
    assert together == alone
    for _, (keep, why), _ in together:
        event(why.split(" ")[0] if keep else "gated out")


def test_gate_batch_decides_each_candidate_through_benchmark_gate() -> None:
    # Each entry holds benchmark_gate's decision on the numbers it carries;
    # the baseline and the pool median are read once per batch.
    _, cfg, rm, pool, tracker = _gate_fixture()
    batch = [make_record(f"cand{i}_7_v2", expr, "mutated", (), 70) for i, expr in enumerate(_GATE_EXPRS)]
    entries = gate_batch(batch, tracker, ScoreCache(rm, cfg.lookback), cfg, pool)
    assert [name for name, _, _ in entries] == [cand.name for cand in batch]
    for _, decision, numbers in entries:
        assert benchmark_gate(*numbers) == decision
    assert len({numbers[2:] for _, _, numbers in entries}) == 1
    assert {keep for _, (keep, _), _ in entries} == {True, False}


@pytest.mark.parametrize(
    ("fv", "mean_ic", "pool_median", "decision"),
    [
        (50.0, -1.0, None, (True, "no incumbents to compare against")),
        (100.0, -1.0, 0.2, (True, "cleared benchmark")),  # the value leg clears at gated_fv
        (99.0, 0.2, 0.2, (True, "cleared benchmark")),  # the RankIC leg clears at the median
        (
            99.0,
            0.1,
            0.2,
            (False, "final_value 99.0000 < gated baseline 100.0000 and mean rankic 0.1000 < pool median 0.2000"),
        ),
    ],
)
def test_benchmark_gate_decides_on_the_numbers_it_is_given(fv, mean_ic, pool_median, decision) -> None:
    assert benchmark_gate(fv, mean_ic, 100.0, pool_median) == decision


# ------------------------------------------------------ composite scores


def test_composite_scores_matches_manual_blend() -> None:
    table = random_walk_table(6, 80, seed=5)
    cfg = _cfg(k_top=2, recall_n=2)
    rm = to_relative_returns(table)
    norm = to_normalized_prices(rm)
    records = [r for r in seed_factors((7,)) if r.name in ("momentum_7", "ma_7")]
    pool = {r.name: r for r in records}
    tracker = PerfTracker()
    scorer = ScoreCache(rm, cfg.lookback)
    for t in range(30, 71):
        update_tracker(tracker, pool, scorer, t, cfg)
    ranked, rows = composite_scores(pool, tracker, scorer, cfg, 70)
    # Both factors are used, best first by trailing final value.
    performance, _ = tracker.stat(pool, cfg.search_interval, cfg.recall_n)
    best_first = sorted(pool, key=lambda n: (-performance[n]["final_value"], n))
    assert ranked == tuple(best_first)
    prices_win, returns_win = window_matrices(norm, rm, 70, cfg.lookback)
    manual = [
        dsl.normalize_scores(dsl.evaluate_cross_section(pool[n].expr, prices_win, returns_win))
        for n in best_first
    ]
    assert len(rows) == 2
    for row, expected in zip(rows, manual):
        assert row == pytest.approx(expected)
    assert portfolio.aggregate_scores(rows) == pytest.approx(np.mean(manual, axis=0))
    # k_top=1 keeps only the better-ranked factor.
    (name,), (solo,) = composite_scores(pool, tracker, scorer, _cfg(k_top=1, recall_n=2), 70)
    assert name == ranked[0] and np.array_equal(solo, rows[0])
    # No graded factor, no rows.
    assert composite_scores(pool, PerfTracker(), scorer, cfg, 70) == ((), [])


# ---------------------------------------------------------- score cache


def _check_cache_against_windows(expr: dsl.Expr, lookback: int, data: st.DataObject) -> None:
    """Every step in order, then every step again in a drawn order, must
    score exactly as the expression on that step's window; so must every row
    of drawn multi-step reads (see _check_multi_step_reads)."""
    n_assets = data.draw(st.integers(1, 6), label="n_assets")
    n_steps = data.draw(st.integers(lookback + 2, lookback + 50), label="n_steps")
    table = random_walk_table(n_assets, n_steps, seed=data.draw(st.integers(0, 2**16)), sigma=0.05)
    if data.draw(st.booleans(), label="ties"):
        table = PriceTable(table.asset_ids, table.dates, np.maximum(np.round(table.prices), 1.0))
    rm = to_relative_returns(table)
    norm = to_normalized_prices(rm)
    record = make_record("cand_7_v2", expr, "mutated")
    steps = list(range(lookback, norm.shape[1]))
    expected = {t: dsl.evaluate_cross_section(expr, *window_matrices(norm, rm, t, lookback)) for t in steps}
    cache = ScoreCache(rm, lookback)
    for t in steps + data.draw(st.permutations(steps), label="order"):
        assert np.array_equal(cache.scores(record, t), expected[t]), (dsl.print_expr(expr), t)
    _check_multi_step_reads(ScoreCache(rm, lookback), record, expected, data)


def _check_multi_step_reads(
    cache: ScoreCache, record: FactorRecord, expected: dict[int, np.ndarray], data: st.DataObject
) -> None:
    """Reads rows(record, t, stop) with stop - t up to 2 * lookback + 1 that
    start inside the block the previous read left, at its end, or past it.
    Each row must equal its step's windowed score, and each read must
    evaluate exactly what the refill rule says: nothing when the block
    covers t..stop-1, else one new block from t (max(lookback, stop - t)
    steps in one panel call, cut at the last step, or stop - t windows). A
    read that ends past the last scorable step raises and keeps the block."""
    lookback, last = cache.lookback, cache.norm.shape[1] - 1
    panel = dsl.panel_equivalent(record.expr, lookback)
    evaluate = dsl.evaluate_panel if panel else dsl.evaluate_cross_section
    calls: list[int] = []
    block = range(0)  # the steps the cached block holds
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, evaluate.__name__, lambda *args: calls.append(1) or evaluate(*args))
        for _ in range(data.draw(st.integers(1, 8), label="reads")):
            where = data.draw(st.sampled_from(["inside", "end", "past"]), label="where") if block else "first"
            t = {
                "first": lambda: data.draw(st.integers(lookback, last), label="t"),
                "inside": lambda: data.draw(st.integers(block.start, block.stop - 1), label="t"),
                "end": lambda: block.stop,
                "past": lambda: data.draw(st.integers(block.stop + 1, block.stop + lookback), label="t"),
            }[where]()
            stop = t + data.draw(st.integers(1, 2 * lookback + 1), label="length")
            before, raises, served = len(calls), stop > last + 1, t in block and stop <= block.stop
            event(f"{where} read " + ("raises" if raises else "served" if served else "refills"))
            if raises:
                with pytest.raises(ValueError):
                    cache.rows(record, t, stop)
                assert len(calls) == before
                continue
            rows = cache.rows(record, t, stop)
            assert not rows.flags.writeable and rows.shape == (stop - t, len(expected[t]))
            for step, row in zip(range(t, stop), rows):
                assert np.array_equal(row, expected[step]), (dsl.print_expr(record.expr), t, stop, step)
            if served:
                assert len(calls) == before, (where, t, stop, block)
            else:
                block = range(t, min(last + 1, t + (max(lookback, stop - t) if panel else stop - t)))
                assert len(calls) - before == (1 if panel else stop - t), (where, t, stop)


@settings(max_examples=150, deadline=None)
@given(expressions(), st.integers(0, 4), st.data())
def test_score_cache_matches_windowed_scores(expr, slack, data) -> None:
    lookback = max(2, dsl.receptive_field(expr) + slack)
    assume(dsl.panel_equivalent(expr, lookback))
    _check_cache_against_windows(expr, lookback, data)


@settings(max_examples=100, deadline=None)
@given(
    expressions(),
    st.sampled_from(TS_OPS),
    st.sampled_from(ALLOWED_WINDOWS),
    st.booleans(),
    st.integers(2, 25),
    st.data(),
)
def test_score_cache_windowed_fallback(expr, op, window, last_under_ts, lookback, data) -> None:
    # Ineligible either by a last under a time-series op or by a receptive
    # field one column past the lookback; such factors never reach the panel.
    if last_under_ts:
        expr = TimeSeries(op, Last(expr), window)
    else:
        expr = TimeSeries(op, expr, window)
        lookback = dsl.receptive_field(expr) - 1
    assume(within_caps(expr))
    assert not dsl.panel_equivalent(expr, lookback)

    def no_panel(*args):
        raise AssertionError("ineligible factor evaluated in panel form")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "evaluate_panel", no_panel)
        _check_cache_against_windows(expr, lookback, data)


def test_score_cache_never_serves_a_stale_expression() -> None:
    table = random_walk_table(5, 80, seed=3)
    rm = to_relative_returns(table)
    cache = ScoreCache(rm, 30)
    first = make_record("cand_7_v2", dsl.parse("ts_mean(prices, 7)"), "mutated")
    reused = make_record("cand_7_v2", dsl.parse("neg(ts_mean(prices, 7))"), "mutated")
    before = cache.scores(first, 40).copy()
    assert np.array_equal(cache.scores(reused, 41), -cache.scores(first, 41))
    assert np.array_equal(cache.scores(first, 40), before)
    assert cache.names() == ["cand_7_v2"]
    cache.drop("cand_7_v2")
    assert cache.names() == []
    with pytest.raises(ValueError):
        cache.scores(first, 29)  # needs 30 steps of history
    with pytest.raises(ValueError):
        cache.scores(first, rm.values.shape[1] + 1)  # past the last price step


def test_score_cache_feeds_a_block_only_its_receptive_field(monkeypatch) -> None:
    # A block starting at step t holds min(lookback, last - t + 1) steps and
    # the rf - 1 columns of history before them, not lookback - 1.
    lookback, step = 30, {"t": -1}
    calls: list[tuple[dsl.Expr, int, int]] = []

    def counting_panel(expr, prices, returns, _panel=dsl.evaluate_panel):
        assert prices.shape == returns.shape
        calls.append((expr, step["t"], prices.shape[1]))
        return _panel(expr, prices, returns)

    monkeypatch.setattr(dsl, "evaluate_panel", counting_panel)
    texts = {4: "ts_delta(prices, 3)", 8: "lag(returns, 7)", 22: "div(ts_delta(prices, 21), ts_mean(returns, 7))"}
    records = {rf: make_record(f"f{rf}_7_v1", dsl.parse(text), "mutated") for rf, text in texts.items()}
    assert {dsl.receptive_field(rec.expr) for rec in records.values()} == set(texts)
    rm = to_relative_returns(random_walk_table(5, 100, seed=3))
    cache = ScoreCache(rm, lookback)
    last = cache.norm.shape[1] - 1
    for t in range(lookback, last + 1):
        step["t"] = t
        for rec in records.values():
            cache.scores(rec, t)
    assert [t for _, t, _ in calls] == [t for t in (30, 60, 90) for _ in texts]
    for rf, rec in records.items():
        got = [(t, columns) for expr, t, columns in calls if expr is rec.expr]
        assert got == [(t, rf - 1 + min(lookback, last - t + 1)) for t in (30, 60, 90)], rf


def test_pruned_and_gated_factors_leave_the_score_cache(monkeypatch) -> None:
    caches: list[ScoreCache] = []

    class RecordingCache(ScoreCache):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            caches.append(self)

    monkeypatch.setattr(evolution, "ScoreCache", RecordingCache)
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3, max_pool_size=14, keep_top_n=4)
    res, outcomes = _run(table, cfg, gen=generate_offline)
    assert any(not keep for outcome in outcomes for _, (keep, _), _ in outcome.gates)
    assert any(outcome.pruned for outcome in outcomes)
    (cache,) = caches
    assert cache.names() == sorted(rec.name for rec in res.pool)


def test_admitted_candidates_are_scored_once_at_admission(monkeypatch) -> None:
    step = {"t": -1}  # the search step whose round is running
    panel_calls: list[tuple[int, dsl.Expr]] = []
    tracked: set[str] = set()

    def generator(req):
        step["t"] = req.step
        return generate_offline(req)

    def counting_panel(expr, prices, returns, _panel=dsl.evaluate_panel):
        panel_calls.append((step["t"], expr))
        return _panel(expr, prices, returns)

    def recording_write(self, names, *args, _write=PerfTracker.write):
        tracked.update(names)
        _write(self, names, *args)

    monkeypatch.setattr(dsl, "evaluate_panel", counting_panel)
    monkeypatch.setattr(PerfTracker, "write", recording_write)
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3, max_pool_size=14, keep_top_n=4)
    _, outcomes = _run(table, cfg, gen=generator)
    kept = {name: keep for outcome in outcomes for name, (keep, _), _ in outcome.gates}
    admitted = {
        rec.name: rec
        for record in _records(outcomes)
        for rec in record.pool
        if kept.get(rec.name) and rec.created_step == record.step
    }
    assert set(admitted) == {name for name, keep in kept.items() if keep}
    panel = [rec for rec in admitted.values() if dsl.panel_equivalent(rec.expr, cfg.lookback)]
    assert panel
    for rec in panel:
        # One block, anchored by the gate at the start of its window, serves
        # the gate and the candidate's grading at its admission step.
        calls = [t for t, expr in panel_calls if expr is rec.expr]
        assert calls.count(rec.created_step) == 1, rec.name
    gated_out = {name for name, keep in kept.items() if not keep}
    assert gated_out and not gated_out & tracked


def test_candidates_stay_out_of_the_pool_until_the_gate_admits_them(monkeypatch) -> None:
    # The generator leaves created_step at 0, and it ends each batch with a
    # repeat of its first candidate's expression under a fresh name.
    caches: list[ScoreCache] = []
    repeats: dict[int, tuple[str, str]] = {}  # step -> (repeat, the member it copies)

    class RecordingCache(ScoreCache):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            caches.append(self)

    def generator(req):
        batch = list(generate_offline(req).candidates[:3])
        if batch:
            base, window, version = parse_name(batch[0].name)
            repeat = make_record(make_name(base, window, version + 100), batch[0].expr, "mutated")
            repeats[req.step] = (repeat.name, batch[0].name)
            batch.append(repeat)
        return GenerationResult(tuple(dataclasses.replace(c, created_step=0) for c in batch), 1, ())

    monkeypatch.setattr(evolution, "ScoreCache", RecordingCache)
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3, max_pool_size=14, keep_top_n=4)
    res, outcomes = _run(table, cfg, gen=generator)
    checkpoints = {record.step: record.pool_map() for record in _records(outcomes)}
    pool = {rec.name: rec for rec in seed_factors(cfg.seed_windows)}
    gated: set[tuple[int, str]] = set()
    for outcome in outcomes:  # the pool each gate saw: after pruning, before admission
        t = outcome.t
        for name in outcome.pruned:
            del pool[name]
        assert not outcome.gates or all(rec.created_step < t for rec in pool.values())
        admitted = {rec.name: rec for rec in outcome.admitted}
        for name, (keep, _), _ in outcome.gates:
            gated.add((t, name))
            assert name not in pool and (name in admitted) == keep
            assert checkpoints[t].get(name) == admitted.get(name)
        assert all(rec.created_step == t for rec in admitted.values())
        pool.update(admitted)
    kept = [keep for outcome in outcomes for _, (keep, _), _ in outcome.gates]
    assert any(kept) and not all(kept)
    rejected = {(outcome.t, *entry) for outcome in outcomes for entry in outcome.rejected}
    assert not gated & {(t, repeat) for t, (repeat, _) in repeats.items()}
    copied = [(t, *repeats[t]) for t, name in gated if repeats[t][1] == name]
    assert copied
    for t, repeat, first in copied:
        assert (t, repeat, f"duplicate expression of {first!r}") in rejected
    (cache,) = caches
    names = [rec.name for rec in res.pool]
    assert res.tracker.names() == cache.names() == names


def test_run_rejects_config_the_table_cannot_serve() -> None:
    table = random_walk_table(6, 100, seed=0)
    with pytest.raises(ValueError, match="recall_n=7"):
        run_evolution(table, _cfg(recall_n=7))
    with pytest.raises(ValueError, match="config key m=7"):
        run_evolution(table, _cfg(m=7))


def test_readme_quick_start_runs_as_documented(capsys) -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (API)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert "vs 1/N" in capsys.readouterr().out


# ------------------------------------------------------------- full loop


@pytest.mark.parametrize("cost_rate", [0.0, 0.002])
def test_static_run_ledger_invariants(cost_rate) -> None:
    table = dominant_asset_table(8, 100, seed=11)
    cfg = _cfg(m=2, cost_rate=cost_rate)
    res, outcomes = _run(table, cfg)
    rm = to_relative_returns(table)
    n_steps = rm.values.shape[1]
    assert len(res.ledger) == n_steps
    assert [outcome.t for outcome in outcomes] == list(range(n_steps))
    assert _records(outcomes) == []  # no generator, no checkpoints
    assert [r.name for r in res.pool] == sorted(r.name for r in seed_factors((7,)))

    value = 100.0
    baseline = 100.0
    for t, row in enumerate(res.ledger):
        assert row.date == rm.dates[t + 1]
        value *= row.step_return
        baseline *= row.baseline_return
        assert row.portfolio_value == value  # exact float replay
        assert row.baseline_value == baseline
        assert row.baseline_return == pytest.approx(oracles.mean(rm.values[:, t]))
        if t <= cfg.warmup_steps:
            assert row.phase == "warmup"
            assert row.step_return == row.baseline_return
            assert row.selected_assets == () and row.weights == ()
            assert row.turnover == 0.0 and row.cost == 0.0
        else:
            assert row.phase == "live"
            assert 1 <= len(row.selected_assets) <= cfg.m
            assert len(row.weights) == len(row.selected_assets)
            assert abs(sum(row.weights) - 1.0) <= 1e-9
            assert all(w >= 0 for w in row.weights)
            assert row.cost == cfg.cost_rate * row.turnover  # the config's rate, charged once


def test_live_scoring_failure_falls_back_to_the_market(monkeypatch) -> None:
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    cfg = _cfg(cost_rate=0.002)
    fail_at = cfg.warmup_steps + 5
    real = evolution.composite_scores

    def flaky(pool, tracker, scorer, cfg, t):
        # No rows reach trade at fail_at, as before any factor is graded.
        return ((), []) if t == fail_at else real(pool, tracker, scorer, cfg, t)

    monkeypatch.setattr(evolution, "composite_scores", flaky)
    ledger = run_evolution(table, cfg).ledger
    assert [row.phase for row in ledger].count("fallback") == 1
    row = ledger[fail_at]
    assert row.phase == "fallback"
    realized = to_relative_returns(table).values[:, fail_at]
    assert row.step_return == row.baseline_return == float(realized.mean())
    assert row.turnover == 0.0 and row.cost == 0.0
    assert row.selected_assets == () and row.weights == ()
    # The fallback liquidates, so the next live step buys from cash.
    after = ledger[fail_at + 1]
    assert after.phase == "live"
    assert after.turnover == 0.5 and after.cost == 0.002 * 0.5


def test_trade_warns_once_per_failed_step_and_never_for_no_rows(caplog) -> None:
    cfg = _cfg()
    realized = np.array([1.01, 0.99, 1.02, 1.0])
    ragged = [np.zeros(4), np.zeros(3)]  # aggregate_scores raises ValueError
    with caplog.at_level(logging.WARNING, logger="evofactor.evolution"):
        for t in range(3):
            weights, r_t, turn, fee, drifted = evolution.trade([], realized, None, cfg, t)
            assert (weights, turn, fee, drifted) == (None, 0.0, 0.0, None)
            assert r_t == float(realized.mean())
        assert not caplog.records
        for t in range(3):
            assert evolution.trade(ragged, realized, None, cfg, t)[0] is None
    failed = [rec.getMessage() for rec in caplog.records]
    assert len(failed) == 3 and all("live step failed" in msg for msg in failed)


def test_live_step_bug_is_not_a_market_fallback(monkeypatch) -> None:
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)

    def broken(pool, tracker, scorer, cfg, t):
        raise AttributeError("bug in ranking")

    monkeypatch.setattr(evolution, "composite_scores", broken)
    with pytest.raises(AttributeError, match="bug in ranking"):
        run_evolution(table, _cfg())


def test_static_run_beats_baseline_on_dominant_asset() -> None:
    table = dominant_asset_table(8, 130, seed=4)
    res = run_evolution(table, _cfg(m=2))
    last = res.ledger[-1]
    assert last.portfolio_value > last.baseline_value
    # The dominant asset is held at almost every live step.
    live = [r for r in res.ledger if r.phase == "live"]
    held = sum(1 for r in live if "A000" in r.selected_assets)
    assert held / len(live) > 0.9


def test_run_rejects_bad_input() -> None:
    cfg = _cfg()
    with pytest.raises(ValueError):
        run_evolution(random_walk_table(6, 40, seed=0), cfg)
    with pytest.raises(ValueError):
        run_evolution(random_walk_table(6, 100, seed=0), cfg, pool=[])
    momentum = next(r for r in seed_factors((7,)) if r.name == "momentum_7")
    with pytest.raises(ValueError):
        run_evolution(random_walk_table(6, 100, seed=0), cfg, pool=[momentum, momentum])


def test_evolution_with_offline_generator() -> None:
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3)
    res, outcomes = _run(table, cfg, gen=generate_offline)
    records = _records(outcomes)
    # Search steps: multiples of s strictly after warm-up.
    assert [rec.step for rec in records] == [65, 70, 75, 80, 85, 90, 95]
    assert len(res.pool) > 12  # accepted candidates joined the pool
    new = [r for r in res.pool if r.origin != "seed"]
    assert new and all(r.created_step >= 65 for r in new)
    for rec in records:
        names = [r.name for r in rec.pool]
        assert names == sorted(names)
        assert set(rec.performance) == set(names) == set(rec.quality)
        state = rec.state
        assert state["phase"] in ("warmup", "live", "fallback")
        assert state["portfolio_value"] > 0
        if state["prev_weights"] is not None:
            total = sum(w for _, w in state["prev_weights"])
            assert abs(total - 1.0) <= 1e-9


@pytest.mark.parametrize("stats_window", [120, 20])
def test_checkpoint_stats_cover_each_factors_last_stats_window_grades(stats_window) -> None:
    # Checkpoints, pruning and the factor report read one window.
    table = planted_momentum_table(n_assets=10, n_steps=120, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3, stats_window=stats_window)
    records = _records(_run(table, cfg, gen=generate_offline)[1])
    scorer = ScoreCache(to_relative_returns(table), cfg.lookback)
    assert len(records) == 11
    for rec in records:
        pool = rec.pool_map()
        want = replay_tracker(pool, scorer, cfg, rec.step).stat(pool, cfg.stats_window, cfg.recall_n)
        assert (rec.performance, rec.quality) == want, rec.step


def test_tracker_rows_stay_bounded_by_the_live_pool(monkeypatch) -> None:
    table = planted_momentum_table(n_assets=10, n_steps=160, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3, max_pool_size=14, keep_top_n=4)
    rows: list[int] = []
    tracked: set[str] = set()

    def recording_write(self, names, *args, _write=PerfTracker.write):
        _write(self, names, *args)
        tracked.update(names)
        rows.append(self._values.shape[1])  # rows allocated so far

    monkeypatch.setattr(PerfTracker, "write", recording_write)
    res, outcomes = _run(table, cfg, gen=generate_offline)
    bound = max(len(rec.pool) for rec in _records(outcomes)) + cfg.m_candidates
    # More names than the bound passed through, so only reused rows keep to it.
    assert len(tracked) > bound
    assert max(rows) <= bound
    dropped = tracked - {rec.name for rec in res.pool}
    assert dropped and not dropped & set(res.tracker.names())
    assert res.tracker.names() == [rec.name for rec in res.pool]


def test_evolution_determinism() -> None:
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3)
    a, a_outcomes = _run(table, cfg, gen=generate_offline)
    b, b_outcomes = _run(table, cfg, gen=generate_offline)
    assert a.ledger == b.ledger
    assert a.pool == b.pool
    assert _records(a_outcomes) == _records(b_outcomes)


def test_failing_generator_matches_static_ledger() -> None:
    table = random_walk_table(8, 100, seed=6)
    cfg = _cfg()

    def boom(req):
        raise RuntimeError("api down")

    def empty(req):
        return GenerationResult((), 1, ())

    static = run_evolution(table, cfg)
    with_boom, outcomes = _run(table, cfg, gen=boom)
    with_empty = run_evolution(table, cfg, gen=empty)
    assert with_boom.ledger == static.ledger
    assert with_empty.ledger == static.ledger
    assert with_boom.pool == static.pool
    # Checkpoints are still written at search steps, and each failure is told.
    assert [rec.step for rec in _records(outcomes)] == [65, 70, 75, 80, 85, 90, 95]
    assert [outcome.error for outcome in outcomes if outcome.record] == ["api down"] * 7


def test_prompt_leakage_tripwire() -> None:
    # Only the remote generator sends a prompt. An asset id that the prompt
    # names, through the system prompt's feature names or through a pool
    # factor's name, stops the run before the transport is called. Offline,
    # nothing is sent and the same table runs through. momentum_7 is also the
    # system prompt's naming example; mean_return_7 occurs in the user
    # prompt alone.
    table = random_walk_table(4, 100, seed=0)
    for asset in ("prices", "momentum_7", "mean_return_7"):
        poisoned = dataclasses.replace(table, asset_ids=(asset, "B", "C", "D"))
        sent = []

        def transport(system: str, user: str) -> str:
            sent.append(user)
            return "[]"

        def remote(req):
            return generate_remote(req, GeneratorConfig(), transport, (*poisoned.asset_ids, *poisoned.dates))

        with pytest.raises(PromptLeakError, match=rf"^prompt leaks dataset tokens: \['{asset}'\]$"):
            run_evolution(poisoned, _cfg(recall_n=2), gen=remote)
        assert sent == [], asset
        assert _records(_run(poisoned, _cfg(recall_n=2), gen=generate_offline)[1]), asset


def test_an_offline_run_renders_and_scans_no_prompt(tmp_path, monkeypatch) -> None:
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3)
    portfolio.write_ledger(run_evolution(table, cfg, gen=generate_offline).ledger, str(tmp_path / "want.csv"))

    def boom(*args):
        raise AssertionError("an offline run must not touch a prompt")

    # The loop module too, in case it imports either name for itself.
    for where in ("evofactor.generator", "evofactor.evolution"):
        for name in ("build_prompt", "scan_for_leakage"):
            monkeypatch.setattr(f"{where}.{name}", boom, raising=False)
    got, outcomes = _run(table, cfg, gen=generate_offline)
    assert _records(outcomes)
    portfolio.write_ledger(got.ledger, str(tmp_path / "got.csv"))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_resume_from_every_checkpoint() -> None:
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3)
    full, outcomes = _run(table, cfg, gen=generate_offline)
    records = _records(outcomes)
    assert records
    for k, rec in enumerate(records):
        resumed, tail = _run(table, cfg, gen=generate_offline, resume_from=rec)
        assert resumed.ledger == full.ledger[rec.step + 1 :], f"checkpoint {k}"
        assert _records(tail) == records[k + 1 :], f"checkpoint {k}"
        assert resumed.pool == full.pool, f"checkpoint {k}"


def _assert_outcomes_replay_the_pool(start, outcomes: list[StepOutcome], result) -> None:
    """From the starting pool, each outcome's pruned and admitted give the
    pool after its step: its checkpoint's pool, and the final pool last."""
    pool = {rec.name: rec for rec in start}
    for outcome in outcomes:
        for name in outcome.pruned:
            del pool[name]
        pool.update((rec.name, rec) for rec in outcome.admitted)
        if outcome.record is not None:
            assert outcome.record.pool == tuple(pool[name] for name in sorted(pool)), outcome.t
    assert result.pool == tuple(pool[name] for name in sorted(pool))


def test_outcomes_replay_the_pool() -> None:
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3, max_pool_size=14, keep_top_n=4)
    full, outcomes = _run(table, cfg, gen=generate_offline)
    assert any(outcome.pruned for outcome in outcomes) and any(outcome.admitted for outcome in outcomes)
    _assert_outcomes_replay_the_pool(seed_factors(cfg.seed_windows), outcomes, full)
    records = _records(outcomes)
    middle = records[len(records) // 2]
    resumed, tail = _run(table, cfg, gen=generate_offline, resume_from=middle)
    _assert_outcomes_replay_the_pool(middle.pool, tail, resumed)
    assert [outcome.t for outcome in tail] == [outcome.t for outcome in outcomes if outcome.t > middle.step]


def _logged(outcome: StepOutcome) -> list[tuple[int, str]]:
    """The (level, message) lines run_evolution logs for outcome."""
    t, lines = outcome.t, []
    if outcome.error is not None:
        lines.append((logging.WARNING, f"generator failed at step {t}: {outcome.error}"))
    lines += [(logging.INFO, f"step {t}: rejected {name} ({reason})") for name, reason in outcome.rejected]
    for name, (keep, why), _ in outcome.gates:
        if not keep:
            lines.append((logging.INFO, f"step {t}: gated out {name} ({why})"))
    return lines


def test_the_log_is_a_function_of_the_outcomes(caplog) -> None:
    # Every decision line comes from an emitted outcome, in today's words and
    # order. The generator fails at every third search step, so the run also
    # logs generator failures; it still prunes, rejects and gates out.
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3, max_pool_size=14, keep_top_n=4)

    def flaky(req):
        if req.step % 15 == 0:
            raise RuntimeError(f"no answer at {req.step}")
        return generate_offline(req)

    for gen in (generate_offline, flaky):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="evofactor.evolution"):
            _, outcomes = _run(table, cfg, gen=gen)
        got = [(rec.levelno, rec.getMessage()) for rec in caplog.records if rec.levelno >= logging.INFO]
        assert got == [line for outcome in outcomes for line in _logged(outcome)]
        assert any(outcome.pruned for outcome in outcomes)
        assert {level for level, _ in got} == {logging.INFO} | ({logging.WARNING} if gen is flaky else set())
        assert {message.split(" ")[2] for _, message in got if message.startswith("step")} == {"rejected", "gated"}


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_resume_from_a_drawn_checkpoint_matches_the_uninterrupted_run(data) -> None:
    # Starting-pool factors created past lookback, even past the first
    # checkpoints, are graded from created_step by the run and its replay.
    lookback = data.draw(st.sampled_from([8, 14, 21]), label="lookback")
    cfg = _cfg(
        lookback=lookback,
        warmup_steps=lookback + data.draw(st.integers(0, 10), label="warmup_slack"),
        search_interval=data.draw(st.integers(3, 6), label="search_interval"),
        k_top=data.draw(st.integers(1, 4), label="k_top"),
        weighting=data.draw(st.sampled_from(["equal", "positive_score", "temperature"])),
        cost_rate=data.draw(st.sampled_from([0.0, 0.002]), label="cost_rate"),
        max_pool_size=data.draw(st.integers(12, 18), label="max_pool_size"),
        keep_top_n=data.draw(st.integers(1, 5), label="keep_top_n"),
        rng_seed=data.draw(st.integers(0, 3), label="rng_seed"),
    )
    first_search = (cfg.warmup_steps // cfg.search_interval + 1) * cfg.search_interval
    n_steps = first_search + 6 * cfg.search_interval + 2
    table = planted_momentum_table(
        n_assets=data.draw(st.integers(6, 10), label="n_assets"),
        n_steps=n_steps,
        seed=data.draw(st.integers(0, 2**16), label="table_seed"),
        signal=0.6,
    )
    latest = first_search + 2 * cfg.search_interval
    pool = [
        dataclasses.replace(rec, created_step=data.draw(st.integers(0, latest), label=rec.name))
        for rec in seed_factors(cfg.seed_windows)
    ]
    full, outcomes = _run(table, cfg, gen=generate_offline, pool=pool)
    records = _records(outcomes)
    k = data.draw(st.integers(0, len(records) - 1), label="checkpoint")
    rec = records[k]
    resumed, tail = _run(table, cfg, gen=generate_offline, pool=pool, resume_from=rec)
    assert resumed.ledger == full.ledger[rec.step + 1 :]
    assert _records(tail) == records[k + 1 :]
    assert resumed.pool == full.pool
    _assert_outcomes_replay_the_pool(pool, outcomes, full)
    _assert_outcomes_replay_the_pool(rec.pool, tail, resumed)
    # A checkpoint's prev_weights are the weights formed at its own step,
    # drifted by that step's returns, so prev_t is that step; or none at all.
    rm = to_relative_returns(table)
    index = {asset: i for i, asset in enumerate(table.asset_ids)}
    for record in records:
        row, state = full.ledger[record.step], record.state
        if row.phase != "live":
            assert state["prev_weights"] is None and state["prev_t"] == -1
            continue
        held = portfolio.PortfolioWeights({index[a]: w for a, w in zip(row.selected_assets, row.weights)})
        drifted = portfolio.drift_weights(held, rm.values[:, record.step])
        assert state["prev_weights"] == [[i, w] for i, w in sorted(drifted.weights.items())]
        assert state["prev_t"] == record.step


# ------------------------------------------------------------ checkpoints


def _checkpoint_doc(record: SearchRecord) -> dict:
    """The JSON document of a checkpoint line, built field by field."""
    return {
        "step": record.step,
        "pool": [record_to_json(rec) for rec in record.pool],
        "performance": record.performance,
        "quality": record.quality,
        "state": record.state,
    }


def test_checkpoint_serialization_round_trip(tmp_path) -> None:
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    cfg = _cfg(recall_n=3)
    records = _records(_run(table, cfg, gen=generate_offline)[1])
    path = str(tmp_path / "checkpoints.jsonl")
    save_checkpoints(records, path)
    loaded = load_checkpoints(path)
    assert loaded == records
    save_checkpoints(loaded, str(tmp_path / "again.jsonl"))
    assert (tmp_path / "checkpoints.jsonl").read_bytes() == (tmp_path / "again.jsonl").read_bytes()

    rec = records[0]
    doc = _checkpoint_doc(rec)
    assert json_to_search_record(doc) == rec
    broken = dict(doc)
    del broken["state"]
    with pytest.raises(ValueError):
        json_to_search_record(broken)


_STAT_VALUES = st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 5, -3, 2**60]) | st.floats() | st.integers()


@st.composite
def _search_records(draw) -> list[SearchRecord]:
    """Checkpoint records whose pools are drawn from a few shared record
    objects, two of them under each name, with drawn stats and state values."""
    shared = [make_record(f"f{i % 3}_7_v1", expr, "mutated", (), i) for i, expr in enumerate(_GATE_EXPRS[:6])]
    records = []
    for step in range(draw(st.integers(0, 4))):
        pool = tuple(draw(st.lists(st.sampled_from(shared), max_size=5, unique_by=lambda rec: rec.name)))
        stats = st.dictionaries(st.text(max_size=4), _STAT_VALUES, max_size=3)
        performance = {rec.name: draw(stats) for rec in pool}
        quality = {rec.name: draw(stats) for rec in pool}
        state = draw(st.dictionaries(st.text(max_size=5), _STAT_VALUES | st.text(max_size=3) | st.none(), max_size=4))
        records.append(SearchRecord(step, pool, performance, quality, state))
    return records


@settings(max_examples=100, deadline=None)
@given(_search_records())
def test_saved_checkpoint_lines_equal_each_record_encoded_alone(records) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoints.jsonl"
        save_checkpoints(records, str(path))
        lines = path.read_text().splitlines()
    assert lines == [json.dumps(_checkpoint_doc(record), sort_keys=True) for record in records]


@settings(max_examples=50, deadline=None)
@given(_search_records(), st.integers(0, 4))
def test_appending_checkpoints_writes_the_saved_bytes_however_the_calls_split_them(records, split) -> None:
    # The first call with a memo truncates; no later one does, even after
    # records whose pools are empty.
    with tempfile.TemporaryDirectory() as tmp:
        saved, appended = Path(tmp) / "saved.jsonl", Path(tmp) / "appended.jsonl"
        save_checkpoints(records, str(saved))
        appended.write_text("stale\n")
        memo: dict = {}
        append_checkpoint(appended, memo, *records[:split])
        for record in records[split:]:
            append_checkpoint(appended, memo, record)
        assert appended.read_bytes() == saved.read_bytes()


def test_a_run_keeps_no_checkpoint_it_emitted(tmp_path) -> None:
    table = planted_momentum_table(n_assets=10, n_steps=100, seed=5, signal=0.6)
    path, memo, refs = tmp_path / "run" / "checkpoints.jsonl", {}, []

    def sink(outcome: StepOutcome) -> None:
        refs.append(weakref.ref(outcome))
        if outcome.record is not None:
            append_checkpoint(path, memo, outcome.record)
            refs.append(weakref.ref(outcome.record))

    result = run_evolution(table, _cfg(), gen=generate_offline, emit=sink)
    gc.collect()
    assert len(refs) == len(result.ledger) + 7  # every step's outcome and its 7 checkpoints
    assert [ref() for ref in refs] == [None] * len(refs)
    # The streamed file holds what a run whose records are kept saves.
    save_checkpoints(_records(_run(table, _cfg(), gen=generate_offline)[1]), str(tmp_path / "kept.jsonl"))
    assert path.read_bytes() == (tmp_path / "kept.jsonl").read_bytes()


def test_load_checkpoints_reports_bad_line(tmp_path) -> None:
    path = tmp_path / "ck.jsonl"
    rec = SearchRecord(step=65, pool=tuple(seed_factors((7,))[:1]), performance={}, quality={}, state={})
    good = _checkpoint_doc(rec)
    import json as _json

    path.write_text(_json.dumps(good) + "\n" + '{"step": 70}' + "\n")
    with pytest.raises(ValueError, match=":2:"):
        load_checkpoints(str(path))
    # Blank lines are tolerated.
    path.write_text(_json.dumps(good) + "\n\n")
    assert len(load_checkpoints(str(path))) == 1


def test_loading_validates_each_decoded_expression_once(tmp_path, monkeypatch) -> None:
    records = seed_factors((7,))
    path = str(tmp_path / "ck.jsonl")
    save_checkpoints([SearchRecord(65, tuple(records), {}, {}, {})] * 2, path)
    save_library(records, str(tmp_path / "lib.json"))
    walks = []
    walk = dsl._validate
    monkeypatch.setattr(dsl, "_validate", lambda expr: walks.append(expr) or walk(expr))
    # Parse, record construction and checkpoint decoding each ask for
    # validation; only the first request for a tree object walks it.
    checkpoints = load_checkpoints(path)
    pools = [checkpoints[0].pool, checkpoints[1].pool, tuple(load_library(str(tmp_path / "lib.json"))),
             tuple(seed_factors((7,)))]
    assert all(pool == tuple(records) for pool in pools)
    for rec in pools[0]:  # building on a decoded tree walks nothing
        dataclasses.replace(FactorRecord(rec.name, rec.expr), created_step=3)
    assert walks == [rec.expr for rec in records] * 3
    assert len({id(expr) for expr in walks}) == len(walks)
    assert [id(rec.expr) for pool in pools[1:] for rec in pool] == list(map(id, walks))


@pytest.mark.parametrize(
    "expr, message",
    [
        pytest.param("add(prices, 1e999)", "non-finite constant inf", id="constant"),
        pytest.param(
            "neg(" * dsl.MAX_DEPTH + "prices" + ")" * dsl.MAX_DEPTH,
            f"expression depth {dsl.MAX_DEPTH + 1} exceeds cap {dsl.MAX_DEPTH}",
            id="depth",
        ),
    ],
)
def test_an_invalid_expression_still_fails_naming_its_line(tmp_path, expr, message) -> None:
    rec = make_record("alpha_7_v1", dsl.parse("ts_delta(prices, 7)"), "mutated")
    good = _checkpoint_doc(SearchRecord(65, (rec,), {}, {}, {}))
    bad = json.loads(json.dumps(good))
    bad["pool"][0]["expr"] = expr
    path = tmp_path / "ck.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    message = f"expr {reprlib.repr(expr)} must be a valid expression: {message}"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: bad checkpoint record: {re.escape(message)}$"):
        load_checkpoints(str(path))
    library = tmp_path / "lib.json"
    library.write_text(json.dumps({"schema": LIBRARY_SCHEMA, "factors": bad["pool"]}))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(library))}: factor 0 {re.escape(message)}$"):
        load_library(str(library))


@pytest.mark.parametrize(
    "key, value, message",
    [
        pytest.param("parents", "ab", "parents 'ab' must be a list of strings", id="parents_text"),
        pytest.param("parents", ["a", 1], "parents ['a', 1] must be a list of strings", id="parents_int"),
        pytest.param("created_step", 3.7, "created_step 3.7 must be an integer", id="step_float"),
        pytest.param("created_step", True, "created_step True must be an integer", id="step_bool"),
        pytest.param("created_step", "5", "created_step '5' must be an integer", id="step_text"),
        pytest.param("version", True, "version True must be an integer", id="version_bool"),
        pytest.param("name", 5, "name 5 must be a string", id="name"),
        pytest.param("expr", ["prices"], "expr ['prices'] must be a string", id="expr"),
        pytest.param("base_name", None, "base_name None must be a string", id="base_name"),
        pytest.param("origin", 1, "origin 1 must be a string", id="origin"),
    ],
)
def test_a_field_of_the_wrong_json_type_fails_naming_its_key(tmp_path, key, value, message) -> None:
    rec = make_record("alpha_7_v1", dsl.parse("ts_delta(prices, 7)"), "mutated", ("alpha_7_v0",), 3)
    good = _checkpoint_doc(SearchRecord(65, (rec,), {}, {}, {}))
    bad = json.loads(json.dumps(good))
    bad["pool"][0][key] = value
    path = tmp_path / "ck.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: bad checkpoint record: {re.escape(message)}$"):
        load_checkpoints(str(path))
    library = tmp_path / "lib.json"
    library.write_text(json.dumps({"schema": LIBRARY_SCHEMA, "factors": good["pool"] + bad["pool"]}))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(library))}: factor 1 {re.escape(message)}$"):
        load_library(str(library))


_ENTRY_NAMES = ("alpha_7_v1", "alpha_7_v2", "beta_14_v1")
_ENTRY_FIELDS = {
    # two spellings that print alike, versions and steps that int() maps
    # alike, and parents that are equal under == but not in type
    "expr": ("ts_delta(prices, 7)", "ts_delta(prices,7)", "last(prices)"),
    "version": (1, 2, 1.0, True, "2"),
    "origin": ("seed", "mutated", "remote", "pooled"),
    "parents": ([], ["alpha_7_v1"], ["beta_14_v1", "alpha_7_v1"], [1], [True], [1.0]),
    "created_step": (0, 1, 2, 1.0, True),
}


@st.composite
def _checkpoint_pools(draw) -> list[list[dict]]:
    """Pools of valid checkpoint entries: each entry is one of a few base
    entries with at most one field redrawn, so names recur with exactly one
    field different."""
    bases = [
        {"name": name, "base_name": parse_name(name)[0],
         **{key: draw(st.sampled_from(values)) for key, values in _ENTRY_FIELDS.items()}}
        for name in draw(st.lists(st.sampled_from(_ENTRY_NAMES), min_size=1, max_size=3))
    ]

    def entry() -> dict:
        doc = dict(draw(st.sampled_from(bases)))
        for key in draw(st.lists(st.sampled_from(sorted(_ENTRY_FIELDS)), max_size=1)):
            doc[key] = draw(st.sampled_from(_ENTRY_FIELDS[key]))
        return doc

    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    return [[entry() for _ in range(size)] for size in sizes]


def _decode_alone(entry: dict) -> FactorRecord | str:
    try:
        return json_to_record(entry)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(_checkpoint_pools())
def test_interned_pool_entries_decode_like_each_entry_alone(pools) -> None:
    memo: dict = {}
    for step, entries in enumerate(pools):
        doc = {"step": step, "pool": entries, "performance": {}, "quality": {}, "state": {}}
        # Entries are decoded in order, so a pool fails with the message of
        # its first entry that fails alone or repeats an earlier name, and
        # only then; a pool with no entry fails too.
        errors, names = [], set()
        for got in map(_decode_alone, entries):
            if isinstance(got, str):
                errors.append(got)
            elif got.name in names:
                errors.append(f"duplicate factor name {got.name!r}")
            else:
                names.add(got.name)
        if not entries:
            errors.append("empty factor pool")
        if errors:
            with pytest.raises(ValueError) as failed:
                json_to_search_record(doc, memo)
            assert str(failed.value) == errors[0]
            event(errors[0].split(" ")[0])
            continue
        decoded = json_to_search_record(doc, memo)
        assert len(decoded.pool) == len(entries)
        for got, entry in zip(decoded.pool, entries):
            want = json_to_record(entry)
            for f in dataclasses.fields(FactorRecord):
                # repr tells 1 from True and 1.0, which == does not
                assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name
            assert got.expr_text == want.expr_text


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("expr", "ts_delta(prices, 8)", id="expr"),
        pytest.param("base_name", "beta", id="base_name"),
        pytest.param("origin", "alien", id="origin"),
        pytest.param("version", "x", id="version"),
        pytest.param("version", 2, id="version_not_the_names"),
        pytest.param("parents", [1], id="parents_not_strings"),
    ],
)
def test_malformed_entry_after_a_valid_one_of_the_same_name_fails_at_its_line(
    tmp_path, key, value
) -> None:
    rec = make_record("alpha_7_v1", dsl.parse("ts_delta(prices, 7)"), "mutated")
    good = _checkpoint_doc(SearchRecord(65, (rec,), {}, {}, {}))
    bad = json.loads(json.dumps(good))
    bad["step"] = 70
    bad["pool"][0][key] = value
    path = tmp_path / "ck.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=r"ck\.jsonl:2: bad checkpoint record"):
        load_checkpoints(str(path))
