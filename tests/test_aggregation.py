"""Aggregation tests: alignment arithmetic, the max-merge tie rule, pooled
library construction, and serialization."""
from __future__ import annotations

import dataclasses
import itertools
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofactor import aggregation, dsl
from evofactor.aggregation import (
    MergedRecord,
    aggregate_records,
    merge_runs,
    merged_to_json,
    pooled_library,
    save_merged,
)
from evofactor.cli import main
from evofactor.evolution import SearchRecord, checkpoint_line, save_checkpoints
from evofactor.seeds import make_record, record_to_json


def _rec(step: int, factors: dict[str, tuple[float, float, str]]) -> SearchRecord:
    """Checkpoint record literal: name -> (final_value, mean_rankic, expr)."""
    pool = tuple(
        make_record(name, dsl.parse(expr), "mutated", (), 0)
        for name, (_, _, expr) in sorted(factors.items())
    )
    return SearchRecord(
        step=step,
        pool=pool,
        performance={n: {"final_value": fv} for n, (fv, _, _) in factors.items()},
        quality={n: {"mean_rankic": ic} for n, (_, ic, _) in factors.items()},
        state={},
    )


def _canonical_order(runs):
    """Reimplement the documented content ordering with public pieces: the
    records' sorted-key JSON lines joined by newlines, sorted stably."""
    return sorted(runs, key=lambda run: "\n".join(checkpoint_line(r, {}) for r in run))


def _canonical_first(*runs):
    return _canonical_order(runs)[0]


# ---------------------------------------------------------- truncation


def _run_of_length(n: int, tag: str) -> list[SearchRecord]:
    return [
        _rec(60 + 5 * i, {f"{tag}_7_v1": (100.0 + i, 0.01 * i, "ts_delta(prices, 7)")})
        for i in range(n)
    ]


def test_truncation_arithmetic() -> None:
    runs = [_run_of_length(10, "a"), _run_of_length(7, "b")]
    assert len(merge_runs(runs)) == 7  # L = min(10, 7)
    assert len(merge_runs(runs, n_limit=5)) == 5
    assert len(merge_runs(runs, ratio=0.5)) == 3  # floor(7 * 0.5)
    assert len(merge_runs(runs, n_limit=6, ratio=0.5)) == 3  # floor(6 * 0.5)
    # The record limit is literally "if N > 1": 1 and 0 mean no cap.
    assert len(merge_runs(runs, n_limit=1)) == 7
    assert len(merge_runs(runs, n_limit=0)) == 7
    # Truncation keeps the first L records.
    merged = merge_runs(runs, ratio=0.5)
    assert [m.step for m in merged] == [60, 65, 70]


def test_truncation_errors() -> None:
    with pytest.raises(ValueError):
        merge_runs([])
    with pytest.raises(ValueError):
        merge_runs([_run_of_length(3, "a")], ratio=0.0)
    with pytest.raises(ValueError):
        merge_runs([_run_of_length(3, "a")], ratio=1.5)
    with pytest.raises(ValueError):  # floor(1 * 0.5) = 0 aligned records
        merge_runs([_run_of_length(1, "a")], ratio=0.5)


# ------------------------------------------------------------ identity


def test_single_run_identity_with_version_filter() -> None:
    run = [
        _rec(
            65,
            {
                "momentum_7": (110.0, 0.01, "ts_delta(prices, 7)"),
                "momentum_7_v2": (120.0, 0.02, "ts_delta(prices, 3)"),
                "momentum_7_v3": (115.0, 0.03, "ts_delta(prices, 14)"),
            },
        )
    ]
    merged = merge_runs([run])
    assert len(merged) == 1
    out = merged[0]
    assert out.step == 65
    # Version filter keeps the latest (v3) and the best (v2).
    assert out.performance == {"momentum_7_v2": 120.0, "momentum_7_v3": 115.0}
    assert out.quality == {"momentum_7_v2": 0.02, "momentum_7_v3": 0.03}
    assert out.expressions == {
        "momentum_7_v2": "ts_delta(prices, 3)",
        "momentum_7_v3": "ts_delta(prices, 14)",
    }


# ------------------------------------------------------------ tie rules


def test_higher_final_value_wins() -> None:
    run_a = [_rec(65, {"momentum_7_v2": (120.0, 0.03, "ts_delta(prices, 7)")})]
    run_b = [_rec(65, {"momentum_7_v2": (118.0, 0.90, "ts_delta(prices, 3)")})]
    for order in ([run_a, run_b], [run_b, run_a]):
        out = merge_runs(order)[0]
        assert out.performance["momentum_7_v2"] == 120.0
        assert out.quality["momentum_7_v2"] == 0.03  # rides along with the winner
        assert out.expressions["momentum_7_v2"] == "ts_delta(prices, 7)"


def test_equal_final_value_updates_quality_only() -> None:
    run_a = [_rec(65, {"momentum_7_v2": (120.0, 0.03, "ts_delta(prices, 7)")})]
    run_b = [_rec(65, {"momentum_7_v2": (120.0, 0.05, "ts_delta(prices, 3)")})]
    out_ab = merge_runs([run_a, run_b])[0]
    out_ba = merge_runs([run_b, run_a])[0]
    assert out_ab == out_ba  # canonical run order, not argument order
    assert out_ab.performance["momentum_7_v2"] == 120.0
    assert out_ab.quality["momentum_7_v2"] == 0.05  # higher rankic wins the tie
    # The expression stays with the first-processed source (Alg. 2 updates
    # only the quality map in the tie branch).
    first = _canonical_first(run_a, run_b)
    assert out_ab.expressions["momentum_7_v2"] == first[0].pool[0].expr_text


def test_disjoint_factors_union() -> None:
    run_a = [_rec(65, {"alpha_7_v1": (105.0, 0.01, "ts_delta(prices, 7)")})]
    run_b = [_rec(65, {"beta_3_v1": (95.0, -0.01, "ts_mean(returns, 3)")})]
    out = merge_runs([run_a, run_b])[0]
    assert set(out.performance) == {"alpha_7_v1", "beta_3_v1"}
    assert out.performance["beta_3_v1"] == 95.0


def test_merge_commutative_and_associative() -> None:
    rng = np.random.default_rng(2024)
    exprs = [
        "ts_delta(prices, 7)",
        "ts_mean(returns, 3)",
        "ts_std(prices, 14)",
        "ts_rank_pos(prices, 21)",
        "neg(ts_drawdown(prices, 7))",
    ]
    names = ["a_7_v1", "a_7_v2", "b_3_v1", "c_14_v1", "c_14_v2"]

    def random_run() -> list[SearchRecord]:
        run = []
        for i in range(3):
            chosen = rng.choice(len(names), size=int(rng.integers(2, 5)), replace=False)
            # Distinct values everywhere so the tie rule never fires.
            factors = {
                names[j]: (
                    float(np.round(rng.uniform(80, 130), 6)),
                    float(np.round(rng.uniform(-0.1, 0.4), 6)),
                    exprs[j],
                )
                for j in chosen
            }
            run.append(_rec(60 + 5 * i, factors))
        return run

    for _ in range(10):
        runs = [random_run() for _ in range(3)]
        reference = merge_runs(runs)
        for perm in itertools.permutations(runs):
            assert merge_runs(list(perm)) == reference


def test_max_merge_dominates_sources() -> None:
    rng = np.random.default_rng(7)
    exprs = ["ts_delta(prices, 7)", "ts_mean(returns, 3)", "abs(ts_delta(prices, 14))"]
    names = ["a_7_v1", "b_3_v1", "c_14_v1"]
    runs = []
    for _ in range(3):
        run = [
            _rec(
                65,
                {
                    names[j]: (float(rng.uniform(90, 120)), float(rng.uniform(0, 0.2)), exprs[j])
                    for j in range(3)
                },
            )
        ]
        runs.append(run)
    out = merge_runs(runs)[0]
    for j, name in enumerate(names):
        source_values = [run[0].performance[name]["final_value"] for run in runs]
        assert out.performance[name] == max(source_values)


# --------------------------------------------------------------- pooling


def test_pooled_library_idempotent_and_from_final_step() -> None:
    run = [
        _rec(65, {"a_7_v1": (100.0, 0.0, "ts_delta(prices, 7)")}),
        _rec(
            70,
            {
                "a_7_v1": (104.0, 0.01, "ts_delta(prices, 7)"),
                "b_3_v1": (99.0, 0.02, "ts_mean(returns, 3)"),
            },
        ),
    ]
    single = pooled_library(merge_runs([run]))
    tripled = pooled_library(merge_runs([run, run, run]))
    assert single == tripled
    assert [r.name for r in single] == ["a_7_v1", "b_3_v1"]  # final step only
    assert all(r.origin == "pooled" and r.created_step == 0 for r in single)
    with pytest.raises(ValueError):
        pooled_library([])


def test_pooled_library_union_cardinality() -> None:
    ops = ("ts_sum", "ts_mean", "ts_std", "ts_min", "ts_max", "ts_ema", "ts_delta",
           "ts_rank_pos", "ts_drawdown", "lag", "ts_argmax_recency")
    run_a = [_rec(65, {f"a{i}_7_v1": (100.0 + i, 0.0, f"{ops[i]}(prices, 7)") for i in range(8)})]
    run_b = [_rec(65, {f"b{i}_3_v1": (100.0 + i, 0.0, f"{ops[i]}(returns, 3)") for i in range(9)})]
    out = pooled_library(merge_runs([run_a, run_b]))
    assert len(out) == 17


def test_pooled_library_structural_dedup(caplog) -> None:
    run = [
        _rec(
            65,
            {
                "zed_7_v1": (100.0, 0.0, "ts_delta(prices, 7)"),
                "ace_7_v1": (90.0, 0.0, "ts_delta( prices , 7 )"),  # same tree
                "mid_3_v1": (95.0, 0.0, "ts_mean(returns, 3)"),
            },
        )
    ]
    with caplog.at_level(logging.INFO):
        out = pooled_library(merge_runs([run]))
    names = [r.name for r in out]
    assert names == ["ace_7_v1", "mid_3_v1"]  # first name alphabetically wins
    assert any("alias" in rec.message for rec in caplog.records)


def test_pooled_library_order_independent() -> None:
    run_a = [_rec(65, {"a_7_v1": (100.0, 0.0, "ts_delta(prices, 7)")})]
    run_b = [_rec(65, {"b_3_v1": (90.0, 0.0, "ts_mean(returns, 3)")})]
    assert pooled_library(merge_runs([run_a, run_b])) == pooled_library(merge_runs([run_b, run_a]))


# ----------------------------------------------------------- validation


def test_merged_record_requires_aligned_keys() -> None:
    tree = {"a_7_v1": dsl.parse("prices")}
    with pytest.raises(ValueError):
        MergedRecord(65, {"a_7_v1": 1.0}, {}, {"a_7_v1": "prices"}, tree)
    with pytest.raises(ValueError):
        MergedRecord(65, {"a_7_v1": 1.0}, {"a_7_v1": 0.1}, {"a_7_v1": "prices"}, {})
    MergedRecord(65, {"a_7_v1": 1.0}, {"a_7_v1": 0.1}, {"a_7_v1": "prices"}, tree)


# -------------------------------------------------------- serialization


def test_merged_serialization_round_trip(tmp_path) -> None:
    # merged.jsonl is written, not read back: each line is one record's four
    # maps and step as sorted-key JSON, and the trees stay out of the file.
    merged = merge_runs([_run_of_length(4, "a"), _run_of_length(6, "b")])
    path = tmp_path / "merged.jsonl"
    save_merged(merged, str(path))
    lines = path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [merged_to_json(rec) for rec in merged]
    assert lines == [json.dumps(merged_to_json(rec), sort_keys=True) for rec in merged]
    assert set(json.loads(lines[0])) == {"step", "performance", "quality", "expressions"}


def test_aggregate_records_parses_each_distinct_expression_once(tmp_path, monkeypatch) -> None:
    # Three streams whose pools repeat entries across lines and across files;
    # one name recurs with another expression and one with another origin.
    shared = {"a_7_v1": (101.0, 0.1, "ts_delta(prices, 7)"), "b_7_v1": (99.0, 0.2, "last(prices)")}
    other = {**shared, "a_7_v1": (102.0, 0.1, "ts_delta(prices, 14)")}
    runs = [
        [_rec(60 + 5 * i, shared) for i in range(4)],
        [_rec(60 + 5 * i, other) for i in range(5)],
        [_rec(60 + 5 * i, shared if i % 2 else other) for i in range(4)],
    ]
    runs[2][0] = dataclasses.replace(
        runs[2][0], pool=tuple(dataclasses.replace(r, origin="remote") for r in runs[2][0].pool)
    )
    paths = []
    for i, run in enumerate(runs):
        paths.append(str(tmp_path / f"run{i}.jsonl"))
        save_checkpoints(run, paths[-1])
    entries = [record_to_json(rec) for run in runs for r in run for rec in r.pool]
    assert len({json.dumps(doc, sort_keys=True) for doc in entries}) == 5
    texts = sorted({doc["expr"] for doc in entries})
    assert len(texts) == 3
    calls = []
    parse = dsl.parse
    monkeypatch.setattr(dsl, "parse", lambda text: calls.append(text) or parse(text))
    first = aggregate_records(paths)
    assert sorted(calls) == texts
    # A second command starts from an empty memo: no state outlives a call.
    assert aggregate_records(paths) == first
    assert sorted(calls) == sorted(texts * 2)


def test_differently_spelled_expressions_merge_and_pool_as_one(tmp_path, monkeypatch) -> None:
    # Two names spell one expression two ways; the outputs carry its
    # canonical text, and the pooled library keeps the first name only.
    spellings = {"a_7_v1": "add(prices, 1.0)", "b_7_v1": "add( prices ,  1.00 )"}
    factors = {name: (100.0 + i, 0.1, "add(prices, 1.0)") for i, name in enumerate(spellings)}
    paths = []
    for i in range(2):
        paths.append(tmp_path / f"run{i}.jsonl")
        lines = []
        for k in range(3):
            doc = json.loads(checkpoint_line(_rec(60 + 5 * k, factors), {}))
            for entry in doc["pool"]:
                entry["expr"] = spellings[entry["name"]]
            lines.append(json.dumps(doc) + "\n")
        paths[-1].write_text("".join(lines))
    calls = []
    parse = dsl.parse
    monkeypatch.setattr(dsl, "parse", lambda text: calls.append(text) or parse(text))
    outdir = tmp_path / "out"
    assert main(["aggregate", *map(str, paths), "-o", str(outdir)]) == 0
    assert sorted(calls) == sorted(spellings.values())
    merged = [json.loads(line) for line in (outdir / "merged.jsonl").read_text().splitlines()]
    assert [doc["expressions"] for doc in merged] == [dict.fromkeys(spellings, "add(prices, 1.0)")] * 3
    pooled = json.loads((outdir / "pooled_library.json").read_text())["factors"]
    assert [(doc["name"], doc["expr"]) for doc in pooled] == [("a_7_v1", "add(prices, 1.0)")]


def test_pooled_library_reuses_the_trees_the_merge_decoded(tmp_path, monkeypatch) -> None:
    # Two names share one tree, so the structural dedup runs on reused trees.
    factors = {
        "a_7_v1": (101.0, 0.1, "ts_delta(prices, 7)"),
        "b_7_v1": (99.0, 0.2, "last(prices)"),
        "c_7_v1": (98.0, 0.0, "ts_delta( prices , 7 )"),
    }
    paths = []
    for i in range(2):
        paths.append(str(tmp_path / f"run{i}.jsonl"))
        save_checkpoints([_rec(60 + 5 * k, factors) for k in range(3)], paths[-1])
    merged = aggregate_records(paths)
    calls = []
    parse, print_expr = dsl.parse, dsl.print_expr
    monkeypatch.setattr(dsl, "parse", lambda text: calls.append(("parse", text)) or parse(text))
    monkeypatch.setattr(dsl, "print_expr", lambda expr: calls.append(("print", expr)) or print_expr(expr))
    library = pooled_library(merged)
    # The merge's canonical text dedupes and its trees build the records.
    assert calls == []
    assert [rec.name for rec in library] == ["a_7_v1", "b_7_v1"]
    assert all(rec.expr is merged[-1].trees[rec.name] for rec in library)
    assert library == [make_record(name, parse(factors[name][2]), "pooled") for name in ("a_7_v1", "b_7_v1")]


# ------------------------------------------------------------ run order


# Few names, values and expressions, so runs tie often and exact
# final_value ties make the merge depend on the run order.
_FACTOR_MAPS = st.dictionaries(
    st.sampled_from(["a_7_v1", "a_7_v2", "b_3_v1"]),
    st.tuples(
        st.sampled_from([100.0, 101.0]),
        st.sampled_from([0.0, 0.5]),
        st.sampled_from(["ts_delta(prices, 7)", "ts_mean(returns, 3)", "last(prices)"]),
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def _run_sets(draw) -> list[list[SearchRecord]]:
    """2-4 runs that copy the first k records of one template run (k drawn
    per run, up to the whole template) and then go on with drawn records, so
    runs share prefixes, repeat each other, or agree only up to the shortest."""
    contents = draw(st.lists(_FACTOR_MAPS, min_size=1, max_size=3))
    index = st.integers(0, len(contents) - 1)
    template = draw(st.lists(index, min_size=1, max_size=5))
    runs = []
    for _ in range(draw(st.integers(2, 4))):
        shared = draw(st.integers(0, len(template)))
        tail = draw(st.lists(index, min_size=0 if shared else 1, max_size=3))
        # Fresh objects per run, as when each run is read from its own file.
        runs.append([_rec(60 + 5 * i, contents[c]) for i, c in enumerate(template[:shared] + tail)])
    return runs


@settings(max_examples=200, deadline=None)
@given(_run_sets(), st.sampled_from([0, 1, 2, 3]), st.sampled_from([1.0, 0.75, 0.5]))
def test_run_order_and_merge_equal_the_joined_text_order(runs, n_limit, ratio) -> None:
    content_order = aggregation._content_order
    calls = []

    def spy(truncated):
        ordered = content_order(truncated)
        calls.append((truncated, ordered))
        return ordered

    def merged_or_error(order):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(aggregation, "_content_order", order)
            try:
                return merge_runs(runs, n_limit, ratio)
            except ValueError as exc:
                return str(exc)

    assert merged_or_error(spy) == merged_or_error(_canonical_order)
    for truncated, ordered in calls:
        # Identity, so tied runs must also keep their argument order.
        assert [id(run) for run in ordered] == [id(run) for run in _canonical_order(truncated)]


def _save_runs(tmp_path, runs) -> list[str]:
    paths = []
    for i, run in enumerate(runs):
        paths.append(str(tmp_path / f"run{i}.jsonl"))
        save_checkpoints(run, paths[-1])
    return paths


def test_run_order_encodes_records_only_up_to_the_first_difference(tmp_path, monkeypatch) -> None:
    encoded = []
    encode = aggregation.checkpoint_line
    monkeypatch.setattr(
        aggregation, "checkpoint_line", lambda r, memo: encoded.append(r.step) or encode(r, memo)
    )
    # First records differ: only the three first records are encoded.
    runs = [
        [_rec(60 + 5 * i, {"a_7_v1": (100.0 + j, 0.1, "ts_delta(prices, 7)")}) for i in range(6)]
        for j in range(3)
    ]
    aggregate_records(_save_runs(tmp_path, runs))
    assert 0 < len(encoded) <= 3 and set(encoded) == {60}
    # Two runs alike through record j = 2 that differ from record 3 on.
    same = {"a_7_v1": (100.0, 0.1, "ts_delta(prices, 7)")}
    other = {"a_7_v1": (100.0, 0.2, "ts_delta(prices, 7)")}
    runs = [
        [_rec(60 + 5 * i, same) for i in range(6)],
        [_rec(60 + 5 * i, same if i <= 2 else other) for i in range(6)],
    ]
    encoded.clear()
    aggregate_records(_save_runs(tmp_path, runs))
    assert sorted(encoded) == [60, 60, 65, 65, 70, 70, 75, 75]


# ------------------------------------------------------------ end to end


def test_aggregate_records_from_files(tmp_path) -> None:
    from evofactor.evolution import EvolutionConfig, run_evolution
    from evofactor.generator import generate_offline
    from evofactor.synthetic import planted_momentum_table

    table = planted_momentum_table(n_assets=10, n_steps=90, seed=5, signal=0.6)
    paths = []
    lengths = []
    for seed in (0, 1):
        cfg = EvolutionConfig(
            lookback=30, warmup_steps=60, search_interval=5, m=3, k_top=3,
            m_candidates=4, recall_n=3, seed_windows=(7,), rng_seed=seed,
        )
        outcomes = []
        run_evolution(table, cfg, gen=generate_offline, emit=outcomes.append)
        records = [outcome.record for outcome in outcomes if outcome.record is not None]
        path = str(tmp_path / f"run{seed}.jsonl")
        save_checkpoints(records, path)
        paths.append(path)
        lengths.append(len(records))
    merged = aggregate_records(paths)
    assert len(merged) == min(lengths)
    library = pooled_library(merged)
    assert len(library) >= 12  # at least the seeds survive
    for rec in library:
        dsl.validate_expr(rec.expr)
    with pytest.raises(ValueError):
        aggregate_records([])


def test_aggregate_rejects_runs_whose_records_differ_in_step(tmp_path, capsys) -> None:
    # Warm-ups of 20 and 40 steps put the runs' searches at 25, 30, ... and
    # 45, 50, ...: the i-th records of the two runs never describe one step.
    from evofactor.market_data import save_snapshot
    from evofactor.synthetic import planted_momentum_table

    snapshot = str(tmp_path / "snapshot.json")
    save_snapshot(planted_momentum_table(n_assets=10, n_steps=90, seed=5, signal=0.6), snapshot)
    paths = []
    for warmup in (20, 40):
        out = tmp_path / f"warmup{warmup}"
        keys = ["lookback=14", f"warmup_steps={warmup}", "m=3", "k_top=3", "m_candidates=4", "recall_n=3",
                "seed_windows=7"]
        assert main(["evolve", "--snapshot", snapshot, *(a for k in keys for a in ("--set", k)), "-o", str(out)]) == 0
        paths.append(str(out / "checkpoints.jsonl"))
    capsys.readouterr()
    for order in (paths, paths[::-1]):
        assert main(["aggregate", *order, "-o", str(tmp_path / "merged")]) == 2
        steps = {paths[0]: 25, paths[1]: 45}
        found = ", ".join(f"{path}:1 at step {steps[path]}" for path in order)
        assert capsys.readouterr().err == f"error: record 0 of each run must share one step: {found}\n"
        assert not (tmp_path / "merged").exists()
