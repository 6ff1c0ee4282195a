"""Generator tests: prompts, response parsing, validation, offline engine,
and the remote client against stub transports."""
from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from evofactor import dsl
from evofactor.generator import (
    MIN_LEAK_LEN,
    ForbiddenTokens,
    GenerationRequest,
    GeneratorConfig,
    SYSTEM_PROMPT,
    TopFactor,
    TransportError,
    build_prompt,
    candidate_record,
    generate_offline,
    generate_remote,
    http_transport,
    parse_response,
    scan_for_leakage,
    validate_candidate,
)
from evofactor.seeds import make_record, seed_factors


def _pool(windows=(7,)) -> dict:
    return {rec.name: rec for rec in seed_factors(windows)}


def _request(m: int = 5, seed: int | None = 0, step: int = 65, windows=(7,)) -> GenerationRequest:
    pool = _pool(windows)
    records = tuple(pool[name] for name in sorted(pool))
    perf = {"mean_return": 0.001, "std_return": 0.02, "sharpe_ratio": 0.05,
            "max_drawdown": -0.1, "final_value": 104.2}
    qual = {"mean_rankic": 0.02, "std_rankic": 0.1, "mean_recall@20": 0.5,
            "std_recall@20": 0.08}
    tops = tuple(TopFactor(rec, perf, qual) for rec in records[:3])
    return GenerationRequest(
        step=step,
        top_factors=tops,
        library_factors=records,
        m_candidates=m,
        recall_n=20,
        pool_records=records,
        rng_seed=seed,
    )


# -------------------------------------------------------------- prompt


def test_prompt_offers_the_grammar_the_parser_accepts() -> None:
    for op in (*dsl.UNARY_OPS, *dsl.BINARY_OPS, *dsl.TS_OPS, "last"):
        assert f" {op}(" in SYSTEM_PROMPT, op
    assert set(dsl.OP_CLASSES) == {*dsl.UNARY_OPS, *dsl.BINARY_OPS, *dsl.TS_OPS, "last"}
    for feature in dsl.FEATURES:
        assert feature in SYSTEM_PROMPT, feature
    assert ", ".join(map(str, dsl.ALLOWED_WINDOWS)) in SYSTEM_PROMPT


def test_build_prompt_sections() -> None:
    req = _request()
    prompt = build_prompt(req)
    assert "GRAMMAR" in prompt["system"]
    assert "momentum_7_v3" in prompt["system"]  # naming example
    user = prompt["user"]
    assert "Existing Library Factors:" in user
    assert "Recent Performance Metrics:" in user
    assert "momentum_7: sub(div(last(prices), last(lag(prices, 7))), 1.0)" in user
    for column in ("mean_return", "sharpe_ratio", "final_value", "mean_rankic", "mean_recall@20"):
        assert column in user
    assert "104.20000" in user  # fixed-width %.5f metric cells
    assert "Generate 5 new factors" in user
    # Seed-only pools list no previously generated factors.
    assert "Previously Generated Factors:" not in user


def test_build_prompt_lists_evolved_factors() -> None:
    req = _request()
    evolved = make_record("momentum_7_v2", dsl.parse("ts_delta(prices, 7)"), "mutated", ("momentum_7",), 60)
    tops = req.top_factors + (TopFactor(evolved, {}, {}),)
    user = build_prompt(GenerationRequest(65, tops, req.library_factors, 5, req.recall_n, req.pool_records))["user"]
    assert "Previously Generated Factors:" in user
    assert "momentum_7_v2: ts_delta(prices, 7)" in user


def test_build_prompt_contains_no_market_data_fields() -> None:
    user = build_prompt(_request())["user"]
    # Only names, expressions and metric summaries belong in the prompt.
    for banned in ("date", "price_table", "2020", "asset_id"):
        assert banned not in user


# ------------------------------------------------------------- leakage


def test_scan_for_leakage_substrings() -> None:
    text = "consider AAPL and maybe msft"
    assert scan_for_leakage(text, ["AAPL", "MSFT", "GOOG"]) == ["AAPL"]
    assert scan_for_leakage("aapl embedded: xAAPLx", ["AAPL"]) == ["AAPL"]
    assert scan_for_leakage("nothing here", ["AAPL"]) == []
    # Tokens shorter than MIN_LEAK_LEN are ignored entirely.
    assert scan_for_leakage("A5 B7", ["A5", "B7"]) == []


def test_scan_for_leakage_numeric_boundaries() -> None:
    # A formatted metric like 0.00050 must not flag the date token 00050.
    assert scan_for_leakage("sharpe_ratio 0.00050", ["00050"]) == []
    assert scan_for_leakage("value 100050 here", ["00050"]) == []
    assert scan_for_leakage("step 00050 done", ["00050"]) == ["00050"]
    assert scan_for_leakage("00050", ["00050"]) == ["00050"]
    assert scan_for_leakage("(00050)", ["00050"]) == ["00050"]
    assert scan_for_leakage("x 00050.5", ["00050"]) == []
    out = scan_for_leakage("00050 00051 00050", ["00051", "00050"])
    assert out == ["00050", "00051"]  # sorted, deduplicated


_TEXT_CHARS = "0123456789.abAB ()[]\u00b2"  # U+00B2 is a digit to isdigit(), not to [0-9]


@st.composite
def _text_and_tokens(draw) -> tuple[str, list[str]]:
    text = draw(st.text(_TEXT_CHARS, max_size=40))
    drawn = st.one_of(
        st.text("0123456789", min_size=1, max_size=6),  # dates
        st.text("0123456789\u00b2", min_size=1, max_size=4),
        st.text("abAB0123", min_size=1, max_size=4),  # asset ids
        st.text(_TEXT_CHARS, max_size=2),  # shorter than MIN_LEAK_LEN
    )
    tokens = draw(st.lists(drawn, max_size=8))
    # Slices of the text itself, so that some tokens do occur in it.
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        tokens.append(text[i : draw(st.integers(i, len(text)))])
    return text, tokens


@settings(max_examples=500, deadline=None)
@given(_text_and_tokens())
def test_scan_for_leakage_matches_per_token_regex(case) -> None:
    text, tokens = case
    expected = oracles.scan_for_leakage(text, tokens, MIN_LEAK_LEN)
    assert scan_for_leakage(text, tokens) == expected
    assert scan_for_leakage(text, ForbiddenTokens(tokens)) == expected


# ------------------------------------------------------ response parsing


def test_parse_response_clean_json() -> None:
    text = '["momentum_7_v2 = neg(prices)", "rsi_14_v2 = ts_mean(returns, 14)"]'
    assert parse_response(text) == [
        ("momentum_7_v2", "neg(prices)"),
        ("rsi_14_v2", "ts_mean(returns, 14)"),
    ]


def test_parse_response_prose_wrapped() -> None:
    text = (
        "Sure! Here are the factors you asked for:\n\n"
        '["a_7_v2 = ts_std(returns, 7)"]\n\nLet me know if you need more.'
    )
    assert parse_response(text) == [("a_7_v2", "ts_std(returns, 7)")]


def test_parse_response_python_literal() -> None:
    text = "['a_7_v2 = neg(prices)', 'b_3_v2 = abs(returns)']"
    assert parse_response(text) == [("a_7_v2", "neg(prices)"), ("b_3_v2", "abs(returns)")]


def test_parse_response_quoted_fallback() -> None:
    # Neither JSON nor a Python literal, but quoted items are still there.
    text = '["a_7_v2 = neg(prices)", oops, "b_3_v2 = abs(returns)"]'
    assert parse_response(text) == [("a_7_v2", "neg(prices)"), ("b_3_v2", "abs(returns)")]


def test_parse_response_skips_items_without_equals() -> None:
    text = '["just a note", "a_7_v2 = neg(prices)"]'
    assert parse_response(text) == [("a_7_v2", "neg(prices)")]


def test_parse_response_no_list() -> None:
    assert parse_response("no factors today") == []
    assert parse_response("") == []
    assert parse_response("[unclosed") == []


def test_parse_response_picks_first_balanced_list() -> None:
    text = '[broken then ["a_7_v2 = neg(prices)"] after'
    assert parse_response(text) == [("a_7_v2", "neg(prices)")]


def test_parse_response_splits_on_first_equals() -> None:
    text = '["a_7_v2 = max2(prices, 1.0)"]'
    assert parse_response(text) == [("a_7_v2", "max2(prices, 1.0)")]


# -------------------------------------------------------------- lineage


def test_candidate_record_mutation_lineage() -> None:
    pool = _pool()
    rec = candidate_record("momentum_7_v2", "ts_delta(prices, 7)", pool, step=65)
    assert rec.origin == "mutated"
    assert rec.parents == ("momentum_7",)
    assert rec.created_step == 65
    assert (rec.base_name, rec.window, rec.version) == ("momentum", 7, 2)


def test_candidate_record_version_gap_picks_latest_parent() -> None:
    pool = _pool()
    v3 = make_record("momentum_7_v3", dsl.parse("ts_delta(prices, 7)"), "mutated", ("momentum_7",), 60)
    pool[v3.name] = v3
    rec = candidate_record("momentum_7_v5", "ts_delta(prices, 3)", pool, step=70)
    assert rec.parents == ("momentum_7_v3",)


def test_candidate_record_crossover_lineage() -> None:
    pool = _pool()
    rec = candidate_record(
        "momentum_comb_rsi_14_v1", "add(ts_delta(prices, 7), ts_mean(returns, 14))", pool, 65
    )
    assert rec.origin == "crossover"
    assert rec.parents == ("momentum_7", "rsi_14")


def test_candidate_record_unknown_parent_bases() -> None:
    pool = _pool()
    rec = candidate_record("novel_3_v1", "ts_rank_pos(prices, 3)", pool, 65)
    assert rec.origin == "mutated" and rec.parents == ()
    rec = candidate_record("alpha_comb_beta_7_v1", "ts_sum(returns, 7)", pool, 65)
    assert rec.origin == "crossover" and rec.parents == ("alpha", "beta")


def test_candidate_record_rejects_bad_input() -> None:
    pool = _pool()
    with pytest.raises(ValueError):
        candidate_record("momentum_7", "neg(prices)", pool, 65)  # seed-style name
    with pytest.raises(dsl.ParseError):
        candidate_record("momentum_7_v2", "frob(prices)", pool, 65)


# ------------------------------------------------------------ validation


def test_validate_candidate_accepts_fresh_factor() -> None:
    pool = _pool()
    rec = candidate_record("momentum_7_v2", "ts_rank_pos(prices, 14)", pool, 65)
    ok, reason = validate_candidate(rec, pool)
    assert ok, reason


def test_validate_candidate_rejections() -> None:
    pool = _pool()
    bad_name = make_record("fresh_idea", dsl.parse("ts_delta(prices, 3)"), "mutated", (), 65)
    ok, reason = validate_candidate(bad_name, pool)
    assert not ok and "naming convention" in reason

    collision = candidate_record("momentum_7_v2", "ts_delta(prices, 3)", pool, 65)
    taken = dict(pool)
    taken[collision.name] = collision
    ok, reason = validate_candidate(collision, taken)
    assert not ok and "collision" in reason

    dup = candidate_record("copycat_7_v1", pool["momentum_7"].expr_text, pool, 65)
    ok, reason = validate_candidate(dup, pool)
    assert not ok and "duplicate expression" in reason

    flat = candidate_record("flat_7_v1", "add(1.0, 2.0)", pool, 65)
    ok, reason = validate_candidate(flat, pool)
    assert not ok and "degenerate" in reason


# ---------------------------------------------------------- offline path


def test_generate_offline_deterministic() -> None:
    first = generate_offline(_request())
    second = generate_offline(_request())
    assert first.candidates
    assert [r.name for r in first.candidates] == [r.name for r in second.candidates]
    assert [r.expr_text for r in first.candidates] == [r.expr_text for r in second.candidates]
    # Different seeds or steps explore different mutations.
    other_seed = generate_offline(_request(seed=1))
    other_step = generate_offline(_request(step=70))
    texts = [r.expr_text for r in first.candidates]
    assert [r.expr_text for r in other_seed.candidates] != texts or [
        r.name for r in other_seed.candidates
    ] != [r.name for r in first.candidates]
    assert [r.expr_text for r in other_step.candidates] != texts or [
        r.name for r in other_step.candidates
    ] != [r.name for r in first.candidates]


def test_generate_offline_output_contract() -> None:
    req = _request(m=6, windows=(7, 14))
    result = generate_offline(req)
    assert 1 <= len(result.candidates) <= 6
    pool_names = {rec.name for rec in req.pool_records}
    seen = set()
    for rec in result.candidates:
        dsl.validate_expr(rec.expr)
        assert rec.created_step == req.step
        assert rec.name not in pool_names
        assert rec.name not in seen
        seen.add(rec.name)
        if rec.origin == "crossover":
            assert "_comb_" in rec.base_name
            assert rec.version == 1
            assert len(rec.parents) == 2
        else:
            assert rec.origin == "mutated"
            assert rec.version >= 2
            assert len(rec.parents) <= 1


def test_generate_offline_includes_crossover_action() -> None:
    # Slot 2 of a 5-candidate request round-robins to crossover.
    result = generate_offline(_request(m=5))
    origins = {rec.origin for rec in result.candidates}
    assert "crossover" in origins or len(result.candidates) < 3


def test_generate_offline_version_bump_skips_taken_names() -> None:
    pool = _pool()
    momentum = pool["momentum_7"]
    taken = make_record("momentum_7_v2", dsl.parse("ts_delta(prices, 7)"), "mutated", ("momentum_7",), 60)
    req = GenerationRequest(
        step=65,
        top_factors=(),
        library_factors=(momentum,),
        m_candidates=1,
        recall_n=20,
        pool_records=(momentum, taken),
        rng_seed=0,
    )
    result = generate_offline(req)
    assert len(result.candidates) == 1
    assert result.candidates[0].name.startswith("momentum_7_v")
    assert result.candidates[0].name not in {"momentum_7_v2", "momentum_7"}
    assert result.candidates[0].version >= 3


def test_generate_offline_single_parent_falls_back_to_mutation() -> None:
    pool = _pool()
    momentum = pool["momentum_7"]
    req = GenerationRequest(65, (), (momentum,), 3, 20, (momentum,), rng_seed=0)
    result = generate_offline(req)
    assert result.candidates
    assert all(rec.origin == "mutated" for rec in result.candidates)


def test_generate_offline_requires_seed_and_pool() -> None:
    req = _request(seed=None)
    with pytest.raises(ValueError):
        generate_offline(req)
    empty = GenerationRequest(65, (), (), 5, 20, (), rng_seed=0)
    result = generate_offline(empty)
    assert result.candidates == ()


# ----------------------------------------------------------- remote path


def _good_items(n: int) -> list[str]:
    windows = (3, 7, 14, 21)
    return [
        f"gen{i}_{windows[i % 4]}_v1 = ts_delta(prices, {windows[i % 4]})"
        for i in range(n)
    ]


def test_generate_remote_success_first_attempt() -> None:
    req = _request(m=4)
    calls = []

    def transport(system: str, user: str) -> str:
        calls.append((system, user))
        return json.dumps(_good_items(4))

    result = generate_remote(req, GeneratorConfig(), transport)
    assert result.attempts == 1
    assert len(result.candidates) == 4
    assert len(calls) == 1
    assert "GRAMMAR" in calls[0][0]
    assert result.transport_log[0]["accepted"] is True


def test_generate_remote_retries_until_min_valid() -> None:
    req = _request(m=5)  # default min_valid = ceil(5/2) = 3
    responses = iter(
        [
            json.dumps(_good_items(2)),                      # too few valid
            "no factors here",                                # nothing parses
            json.dumps(_good_items(3) + ["broken item"]),    # enough now
        ]
    )

    def transport(system: str, user: str) -> str:
        return next(responses)

    result = generate_remote(req, GeneratorConfig(max_retries=3), transport)
    assert result.attempts == 3
    assert len(result.candidates) == 3
    assert [e["accepted"] for e in result.transport_log] == [False, False, True]


def test_generate_remote_total_failure_is_nonfatal() -> None:
    req = _request(m=4)

    def transport(system: str, user: str) -> str:
        raise TransportError("connection refused")

    result = generate_remote(req, GeneratorConfig(max_retries=3), transport)
    assert result.candidates == ()
    assert result.attempts == 3
    assert all("error" in e for e in result.transport_log)


def test_generate_remote_drops_malformed_items_individually() -> None:
    req = _request(m=4)
    items = _good_items(3) + ["bad name! = neg(prices)", "x_7_v1 = nonsense(("]

    def transport(system: str, user: str) -> str:
        return json.dumps(items)

    result = generate_remote(req, GeneratorConfig(min_valid=3), transport)
    assert len(result.candidates) == 3
    assert result.transport_log[0]["rejects"] == 2


def test_generate_remote_min_valid_bounds() -> None:
    req = _request(m=2)
    with pytest.raises(ValueError):
        generate_remote(req, GeneratorConfig(min_valid=3), lambda s, u: "[]")
    result = generate_remote(
        req, GeneratorConfig(min_valid=1), lambda s, u: json.dumps(_good_items(1))
    )
    assert len(result.candidates) == 1


def test_generate_remote_default_min_valid_is_half() -> None:
    req = _request(m=5)

    def transport(system: str, user: str) -> str:
        return json.dumps(_good_items(math.ceil(5 / 2)))

    result = generate_remote(req, GeneratorConfig(), transport)
    assert len(result.candidates) == 3


def test_generate_remote_audit_log(tmp_path) -> None:
    req = _request(m=4)
    audit = tmp_path / "audit.jsonl"
    responses = iter(["garbage", json.dumps(_good_items(4))])
    cfg = GeneratorConfig(min_valid=4, max_retries=3, audit_log=str(audit))
    result = generate_remote(req, cfg, lambda s, u: next(responses))
    assert len(result.candidates) == 4 and result.attempts == 2
    lines = audit.read_text().strip().split("\n")
    assert len(lines) == 2
    entries = [json.loads(line) for line in lines]
    assert entries[0]["accepted"] is False and entries[1]["accepted"] is True
    for entry in entries:
        assert {"step", "attempt", "system", "user", "response"} <= set(entry)
        assert not any("time" in key for key in entry)  # replay-stable


def test_http_transport_requires_api_key(monkeypatch) -> None:
    monkeypatch.delenv("EVOFACTOR_API_KEY", raising=False)
    with pytest.raises(TransportError):
        http_transport(GeneratorConfig(endpoint="http://localhost:9/v1"))
