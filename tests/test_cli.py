"""End-to-end command-line tests: every subcommand, config plumbing,
deterministic outputs, and the error exit path."""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import logging
import re
import reprlib
import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import output_digests
from evofactor import cli, dsl
from evofactor.aggregation import aggregate_records, save_merged
from evofactor.cli import main
from evofactor.evolution import EvolutionConfig, run_evolution, save_checkpoints
from evofactor.generator import GeneratorConfig
from evofactor.market_data import BASE_DATE, load_snapshot, save_snapshot
from evofactor.portfolio import LedgerRow, read_ledger, write_ledger
from evofactor.seeds import load_library, save_library, seed_factors
from evofactor.synthetic import planted_momentum_table, random_walk_table

_SET = [
    "--set", "lookback=30", "--set", "warmup_steps=60", "--set", "search_interval=5",
    "--set", "m=3", "--set", "k_top=3", "--set", "m_candidates=4",
    "--set", "recall_n=3", "--set", "seed_windows=7",
]


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("data") / "snapshot.json")
    save_snapshot(planted_momentum_table(n_assets=10, n_steps=90, seed=5, signal=0.6), path)
    return path


@pytest.fixture(scope="module")
def library(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("lib") / "library.json")
    save_library(seed_factors((7,)), path)
    return path


# ------------------------------------------------------------------- logging


def test_each_main_call_logs_to_its_own_stderr_at_its_own_level(monkeypatch) -> None:
    log = logging.getLogger("evofactor.cli")

    def command(args) -> int:
        log.warning("warning from %s", args.output)
        log.info("info from %s", args.output)
        return 0

    monkeypatch.setattr(cli, "cmd_aggregate", command)
    streams = {}
    for run, verbose in (("one", []), ("two", ["--verbose"]), ("three", [])):
        streams[run] = io.StringIO()
        with contextlib.redirect_stderr(streams[run]):
            assert main([*verbose, "aggregate", "in.jsonl", "-o", run]) == 0
    assert streams["one"].getvalue() == "WARNING evofactor.cli: warning from one\n"
    assert streams["two"].getvalue() == (
        "WARNING evofactor.cli: warning from two\nINFO evofactor.cli: info from two\n"
    )
    assert streams["three"].getvalue() == "WARNING evofactor.cli: warning from three\n"


# ------------------------------------------------------------------- ingest


def test_help_lists_config_keys(capsys) -> None:
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    for key in ("rng_seed", "weighting", "search_interval", "audit_log"):
        assert key in out


_CLI_ONLY = {"data": "", "output_dir": "run", "generator": "offline"}


def _dataclass_defaults() -> dict[str, object]:
    return {
        f.name: f.default
        for cls in (EvolutionConfig, GeneratorConfig)
        for f in dataclasses.fields(cls)
    }


def test_cli_keys_are_the_config_fields_with_their_defaults(capsys) -> None:
    expected = {**_CLI_ONLY, **_dataclass_defaults()}
    assert len(expected) == len(_CLI_ONLY) + len(_dataclass_defaults())
    defaults = cli.load_run_config(None, [])
    assert defaults == expected
    assert {k: type(v) for k, v in defaults.items()} == {k: type(v) for k, v in expected.items()}
    assert set(cli.CONFIG_SCHEMA) == set(expected)
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for key in expected:
        assert f"  {key} (default " in out, key


def test_readme_key_table_defaults_match_the_configs() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)`(?: / `(\w+)`)? \| ([^|]+?) \|", table, re.M)
    defaults = {**_CLI_ONLY, **_dataclass_defaults()}
    seen = set()
    for first, second, cell in rows:
        keys = [first] + ([second] if second else [])
        cells = cell.split(" / ")
        assert len(cells) == len(keys), (keys, cell)
        for key, text in zip(keys, cells):
            assert key in defaults, key
            assert str(defaults[key]) == text, (key, text, defaults[key])
            seen.add(key)
    assert len(rows) == table.count("\n| `") and len(seen) == 15
    assert {"max_pool_size", "keep_top_n", "generator"} <= seen


def test_ingest_round_trip(tmp_path, capsys) -> None:
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text(
        "date,AAA,BBB,CCC\n2024-01-01,100,50,20\n2024-01-02,110,49,21\n2024-01-03,121,51,19\n"
    )
    snap = tmp_path / "snap.json"
    assert main(["ingest", str(csv_path), "-o", str(snap)]) == 0
    assert "assets 3  steps 3  dropped 0" in capsys.readouterr().out
    table = load_snapshot(str(snap))
    assert table.asset_ids == ("AAA", "BBB", "CCC")


def test_ingest_relatives_mode(tmp_path) -> None:
    csv_path = tmp_path / "rel.csv"
    csv_path.write_text("date,AAA\n2024-01-01,1.10\n2024-01-02,1.00\n")
    snap = tmp_path / "snap.json"
    assert main(["ingest", str(csv_path), "-o", str(snap), "--values", "relatives"]) == 0
    assert load_snapshot(str(snap)).dates[0] == BASE_DATE


def test_ingest_bad_file_exits_2(tmp_path, capsys) -> None:
    assert main(["ingest", str(tmp_path / "missing.csv"), "-o", str(tmp_path / "s.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_readme_cli_quick_start_runs_as_written(tmp_path, monkeypatch, capsys) -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("evofactor ")]
    assert len(commands) == 6
    table = random_walk_table(24, 90, seed=4)
    with open(tmp_path / "prices.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", *table.asset_ids])
        for t, date in enumerate(table.dates):
            writer.writerow([date, *(repr(float(p)) for p in table.prices[:, t])])
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "report" / "wealth_curve.csv").exists()


# ----------------------------------------------------------------- backtest


def test_backtest_outputs_and_manifest(tmp_path, capsys, snapshot, library) -> None:
    outdir = tmp_path / "run"
    assert main(["backtest", "--snapshot", snapshot, "--library", library,
                 "--output", str(outdir), *_SET]) == 0
    out = capsys.readouterr().out
    assert "CW " in out and "baseline final" in out
    for name in ("ledger.csv", "pool.json", "factor_report.csv",
                 "factor_report.json", "metrics.json", "manifest.json"):
        assert (outdir / name).exists()
    assert not (outdir / "ledger.json").exists()  # ledger.csv is the one ledger file
    assert not (outdir / "checkpoints.jsonl").exists()  # static run, no search

    # Summary metrics recompute from the ledger rows.
    rows = read_ledger(str(outdir / "ledger.csv"))
    summary = json.loads((outdir / "metrics.json").read_text())
    value = 1.0
    for row in rows:
        value *= row.step_return
    assert summary["final_value"] == pytest.approx(value, rel=1e-12)
    assert summary["cumulative_wealth"] == pytest.approx(value - 1.0, rel=1e-9)

    # Manifest ties outputs to the exact input bytes and effective config.
    manifest = json.loads((outdir / "manifest.json").read_text())
    for path in (snapshot, library):
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert manifest["inputs"][path] == digest
    assert manifest["config"]["m"] == 3
    assert manifest["config"]["seed_windows"] == [7]


def test_factor_report_cells_are_plain_floats(tmp_path, snapshot, library) -> None:
    outdir = tmp_path / "run"
    assert main(["backtest", "--snapshot", snapshot, "--library", library,
                 "--output", str(outdir), *_SET]) == 0
    with open(outdir / "factor_report.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    for row in rows:
        for key, cell in row.items():
            if key != "factor":
                float(cell)  # raises on np.float64(...) or an empty cell
    # Some factor has a drawdown, the case that once wrote np.float64(...).
    assert any(float(row["max_drawdown"]) < 0.0 for row in rows)


def test_backtest_matches_library_call(tmp_path, snapshot, library) -> None:
    outdir = tmp_path / "run"
    assert main(["backtest", "--snapshot", snapshot, "--library", library,
                 "--output", str(outdir), *_SET]) == 0
    cfg = EvolutionConfig(
        lookback=30, warmup_steps=60, search_interval=5, m=3, k_top=3,
        m_candidates=4, recall_n=3, seed_windows=(7,),
    )
    result = run_evolution(load_snapshot(snapshot), cfg, gen=None, pool=load_library(library))
    write_ledger(result.ledger, str(tmp_path / "direct.csv"))
    assert (outdir / "ledger.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_backtest_requires_snapshot(tmp_path, capsys, library) -> None:
    assert main(["backtest", "--library", library, "--output", str(tmp_path / "r")]) == 2
    assert "no snapshot" in capsys.readouterr().err


def test_backtest_rejects_a_library_field_of_the_wrong_type(tmp_path, capsys, snapshot, library) -> None:
    doc = json.loads(Path(library).read_text())
    doc["factors"][0]["name"] = 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["backtest", "--snapshot", snapshot, "--library", str(bad),
                 "--output", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {bad}: factor 0 name 7 must be a string"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda doc: doc.pop("factors"), "missing key 'factors'"),
        (
            lambda doc: doc.update(factors={"momentum_7": {}}),
            "factors {'momentum_7': {}} must be a list of JSON objects",
        ),
        (lambda doc: doc.update(factors=[5]), "factors [5] must be a list of JSON objects"),
        (lambda doc: doc["factors"][3].update(version="1"), "factor 3 version '1' must be an integer"),
        (
            lambda doc: doc["factors"][3].update(expr="last(foo)"),
            "factor 3 expr 'last(foo)' must be a valid expression: unknown operator 'foo' at position 5",
        ),
        (lambda doc: doc.update(schema="x"), "schema 'x' must be 'evofactor/factor-library@1'"),
    ],
    ids=["missing", "object", "entry-not-object", "text_version", "unknown_operator", "schema"],
)
def test_backtest_names_a_library_without_a_factor_list(tmp_path, capsys, snapshot, library,
                                                        corrupt, message) -> None:
    doc = json.loads(Path(library).read_text())
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["backtest", "--snapshot", snapshot, "--library", str(bad),
                 "--output", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {bad}: {message}"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda doc: doc.pop("asset_ids"), "missing key 'asset_ids'"),
        (lambda doc: doc.pop("prices"), "missing key 'prices'"),
        (lambda doc: doc.update(prices="x"), "prices 'x' must be a list of equal-length lists of numbers"),
        (lambda doc: doc.update(dates=5), "dates 5 must be a list of strings"),
        (lambda doc: doc.update(asset_ids=doc["asset_ids"][:-1]), "asset_ids length does not match price rows"),
        # A whole field or one entry of the wrong JSON kind; {key} is the
        # corrupted field's value as the message abbreviates it.
        (lambda doc: doc.update(dates=list(range(len(doc["dates"])))), "dates {dates} must be a list of strings"),
        (lambda doc: doc["asset_ids"].__setitem__(2, {}), "asset_ids {asset_ids} must be a list of strings"),
        (lambda doc: doc["prices"][4].__setitem__(7, True),
         "prices {prices} must be a list of equal-length lists of numbers"),
        (lambda doc: doc["prices"][4].pop(), "prices {prices} must be a list of equal-length lists of numbers"),
        (lambda doc: doc.update(schema="x"), "schema 'x' must be 'evofactor/price-table@1'"),
    ],
    ids=["no_asset_ids", "no_prices", "text_prices", "int_dates", "short_asset_ids",
         "int_date_list", "object_asset_id", "bool_price", "ragged_prices", "schema"],
)
@pytest.mark.parametrize("command", ["backtest", "evolve", "report"])
def test_a_malformed_snapshot_fails_naming_the_file(tmp_path, capsys, snapshot, library,
                                                    command, corrupt, message) -> None:
    doc = json.loads(Path(snapshot).read_text())
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    args = {
        "backtest": ["backtest", "--library", library],
        "evolve": ["evolve"],
        "report": ["report", "--mode", "factor_sweep", "--library", library],
    }[command]
    assert main([*args, "--snapshot", str(bad), "-o", str(tmp_path / "r"), *_SET]) == 2
    fields = {key: reprlib.repr(value) for key, value in doc.items()}
    assert capsys.readouterr().err.strip() == f"error: {bad}: {message.format(**fields)}"


def test_score_heatmap_rejects_a_library_that_repeats_a_name(tmp_path, capsys, snapshot, library) -> None:
    run = tmp_path / "run"
    assert main(["backtest", "--snapshot", snapshot, "--library", library, "-o", str(run), *_SET]) == 0
    doc = json.loads(Path(library).read_text())
    for factors, message in ((doc["factors"] + doc["factors"][:1], "duplicate factor name"),
                             ([], "empty factor pool")):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "factors": factors}))
        outdir = tmp_path / "rep"
        assert main(["report", "--mode", "score_heatmap", "--snapshot", snapshot, "--library", str(bad),
                     "--ledger", str(run / "ledger.csv"), "-o", str(outdir), *_SET]) == 2
        assert message in capsys.readouterr().err
        assert not (outdir / "score_heatmap.csv").exists()


def test_config_file_set_precedence(tmp_path, snapshot, library) -> None:
    cfg_path = tmp_path / "cfg.json"
    base = {k.split("=")[0]: k for k in ()}  # noqa: F841 - readability anchor
    doc = {"lookback": 30, "warmup_steps": 60, "search_interval": 5, "m": 4,
           "k_top": 3, "m_candidates": 4, "recall_n": 3, "seed_windows": [7],
           "rng_seed": 9}
    cfg_path.write_text(json.dumps(doc))
    outdir = tmp_path / "run"
    assert main(["backtest", "--config", str(cfg_path), "--snapshot", snapshot,
                 "--library", library, "--output", str(outdir), "--set", "m=3"]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["m"] == 3  # --set beats the file
    assert manifest["config"]["rng_seed"] == 9  # file beats the default


def test_unknown_config_keys_rejected(tmp_path, capsys, snapshot, library) -> None:
    args = ["backtest", "--snapshot", snapshot, "--library", library,
            "--output", str(tmp_path / "r")]
    assert main(args + ["--set", "frobnicate=1"]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert main(args + ["--set", "m3"]) == 2
    assert "key=value" in capsys.readouterr().err
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"frobnicate": 1}')
    assert main(args + ["--config", str(bad_cfg)]) == 2
    assert "unknown config key 'frobnicate'" in capsys.readouterr().err
    bad_cfg.write_text("[1, 2]")
    assert main(args + ["--config", str(bad_cfg)]) == 2
    assert capsys.readouterr().err == f"error: {bad_cfg}: config file must hold a JSON object\n"


def test_set_value_that_does_not_cast_names_its_key(tmp_path, capsys, snapshot, library) -> None:
    assert main(["backtest", "--snapshot", snapshot, "--library", library,
                 "--output", str(tmp_path / "r"), "--set", "m=abc"]) == 2
    assert "config key m: " in capsys.readouterr().err


def test_int_keys_reject_bools_and_fractions(tmp_path, capsys, snapshot, library) -> None:
    cfg_path = tmp_path / "cfg.json"
    args = ["backtest", "--config", str(cfg_path), "--snapshot", snapshot,
            "--library", library, "--output", str(tmp_path / "r")]
    for bad in ('{"m": 2.7}', '{"m": true}', '{"seed_windows": [7, 3.5]}'):
        cfg_path.write_text(bad)
        assert main(args) == 2, bad
        assert "config key " in capsys.readouterr().err
    cfg_path.write_text('{"m": 2.0, "min_valid": 3}')
    cfg = cli.load_run_config(str(cfg_path), [])
    assert (cfg["m"], cfg["min_valid"]) == (2, 3)


def test_string_and_float_keys_reject_other_json_types(tmp_path, capsys, snapshot, library,
                                                      monkeypatch) -> None:
    # A JSON null must not become a run directory named "None", nor true a tau of 1.0.
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    for bad, key in (('{"output_dir": null}', "output_dir"), ('{"api_key_env": 5}', "api_key_env"),
                     ('{"weighting": null}', "weighting"), ('{"tau": true}', "tau"),
                     ('{"cost_rate": false}', "cost_rate")):
        cfg_path.write_text(bad)
        assert main(["backtest", "--config", str(cfg_path), "--snapshot", snapshot,
                     "--library", library, *_SET]) == 2, bad
        err = capsys.readouterr().err
        assert f"config key {key}: " in err and err.count("config key ") == 1, err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_remote_settings_fail_before_the_snapshot_loads(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.setenv("EVOFACTOR_API_KEY", "unused")
    missing = str(tmp_path / "missing.json")
    endpoint, model = "endpoint=http://localhost:9/v1", "model=m"
    for bad, key in (("min_valid=9", "min_valid"), ("max_retries=0", "max_retries"),
                     ("timeout=0", "timeout"), ("min_valid=0", "min_valid"),
                     ("min_valid=-3", "min_valid"), ("temperature=nan", "temperature"),
                     ("temperature=-0.5", "temperature"), ("temperature=inf", "temperature"),
                     (model, "endpoint"), (endpoint, "model")):
        assert _evolve(missing, tmp_path / "r", ["--set", "generator=remote", "--set", bad]) == 2
        err = capsys.readouterr().err
        assert f"config key {key}=" in err
        assert err.count("config key ") == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "sets, key",
    [
        pytest.param(["weighting=temperature", "tau=nan"], "tau", id="tau_nan"),
        pytest.param(["tau=0"], "tau", id="tau_zero"),
        pytest.param(["rng_seed=-1"], "rng_seed", id="rng_seed_negative"),
        pytest.param(["t_drop=nan"], "t_drop", id="t_drop_nan"),
        pytest.param(["t_drop=inf"], "t_drop", id="t_drop_inf"),
        pytest.param(["m=0"], "m", id="m_zero"),
        pytest.param(["k_top=0"], "k_top", id="k_top_zero"),
        pytest.param(["m_candidates=0"], "m_candidates", id="m_candidates_zero"),
        pytest.param(["cost_rate=nan"], "cost_rate", id="cost_rate_nan"),
        pytest.param(["keep_top_n=60"], "keep_top_n", id="keep_top_n_over_pool"),
        pytest.param(["seed_windows="], "seed_windows", id="seed_windows_empty"),
        pytest.param(["generator=psychic"], "generator", id="generator_unknown"),
    ],
)
def test_bad_config_values_exit_2_naming_the_key(tmp_path, capsys, snapshot, sets, key) -> None:
    # A bad value fails before the loop runs and writes nothing.
    overrides = [arg for item in sets for arg in ("--set", item)]
    assert _evolve(snapshot, tmp_path / "r", overrides) == 2
    err = capsys.readouterr().err
    assert f"config key {key}=" in err
    assert err.count("config key ") == 1
    assert not (tmp_path / "r").exists()


# ------------------------------------------------------------------- evolve


def _evolve(snapshot: str, outdir, extra: list[str] | None = None) -> int:
    return main(["evolve", "--snapshot", snapshot, "--output", str(outdir),
                 *_SET, "--set", "rng_seed=0", *(extra or [])])


def test_evolve_outputs_deterministic(tmp_path, snapshot) -> None:
    assert _evolve(snapshot, tmp_path / "a") == 0
    assert _evolve(snapshot, tmp_path / "b") == 0
    for name in ("ledger.csv", "checkpoints.jsonl", "pool.json",
                 "factor_report.csv", "factor_report.json", "metrics.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # Manifests agree except for the output directory they record.
    manifests = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in "ab"]
    for doc in manifests:
        assert doc["config"].pop("output_dir").endswith(("a", "b"))
        doc.pop("config_sha256")
    assert manifests[0] == manifests[1]
    # Search actually ran: checkpoints exist and the pool grew past the seeds.
    assert (tmp_path / "a" / "checkpoints.jsonl").read_text().count("\n") >= 3
    assert len(load_library(str(tmp_path / "a" / "pool.json"))) > 12


def test_evolve_resume_produces_suffix(tmp_path, snapshot) -> None:
    assert _evolve(snapshot, tmp_path / "full") == 0
    assert _evolve(snapshot, tmp_path / "resumed",
                   ["--resume-from", str(tmp_path / "full" / "checkpoints.jsonl")]) == 0
    full = read_ledger(str(tmp_path / "full" / "ledger.csv"))
    tail = read_ledger(str(tmp_path / "resumed" / "ledger.csv"))
    assert 0 < len(tail) < len(full)
    assert full[-len(tail):] == tail
    manifest = json.loads((tmp_path / "resumed" / "manifest.json").read_text())
    assert str(tmp_path / "full" / "checkpoints.jsonl") in manifest["inputs"]


def test_evolve_resume_missing_checkpoints(tmp_path, capsys, snapshot) -> None:
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert _evolve(snapshot, tmp_path / "r", ["--resume-from", str(empty)]) == 2
    assert "no checkpoints" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("portfolio_value", None, "missing key 'portfolio_value'"),
        ("portfolio_value", True, "portfolio_value True must be a number"),
        ("baseline_value", "x", "baseline_value 'x' must be a number"),
        *[
            ("prev_weights", value, f"prev_weights {value!r} must be null or a list of [asset index, weight] pairs")
            for value in ([[0]], [[0.0, 1.0]], [[10, 1.0]], [[-1, 1.0]], [[0, "1"]], {"0": 1.0})
        ],
        # Well-formed pairs that form no portfolio.
        ("prev_weights", [[0, 0.5]], "prev_weights [[0, 0.5]] must be a portfolio: weights sum to 0.5, not 1"),
        ("prev_weights", [], "prev_weights [] must be a portfolio: empty weight map"),
    ],
    ids=["no_value", "bool_value", "text_baseline", "short_pair", "float_index", "index_past_assets",
         "negative_index", "text_weight", "object", "half_weight", "empty_weights"],
)
def test_evolve_resume_names_a_malformed_state_key(tmp_path, capsys, snapshot, checkpoint_paths,
                                                   key, value, message) -> None:
    doc = json.loads(Path(checkpoint_paths[0]).read_text().splitlines()[-1])
    if value is None:
        del doc["state"][key]
    else:
        doc["state"][key] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(doc) + "\n")
    assert _evolve(snapshot, tmp_path / "r", ["--resume-from", str(bad)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {bad}:1: resume state {message}"


@pytest.mark.parametrize("step", [150, 90, -5], ids=["past_the_end", "step_count", "negative"])
def test_evolve_resume_names_a_step_off_the_table(tmp_path, capsys, snapshot, checkpoint_paths, step) -> None:
    # The snapshot's 90 return steps are 0..89.
    doc = json.loads(Path(checkpoint_paths[0]).read_text().splitlines()[-1])
    doc["step"] = step
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(doc) + "\n")
    assert _evolve(snapshot, tmp_path / "r", ["--resume-from", str(bad)]) == 2
    message = f"resume state step {step} must be a step of the table, 0..89"
    assert capsys.readouterr().err.strip() == f"error: {bad}:1: {message}"
    # The last step resumes to an empty remainder.
    doc["step"] = 89
    bad.write_text(json.dumps(doc) + "\n")
    assert _evolve(snapshot, tmp_path / "last", ["--resume-from", str(bad)]) == 0
    assert read_ledger(str(tmp_path / "last" / "ledger.csv")) == []


def test_evolve_remote_requires_api_key(tmp_path, capsys, monkeypatch, snapshot) -> None:
    monkeypatch.delenv("EVOFACTOR_API_KEY", raising=False)
    assert _evolve(snapshot, tmp_path / "r", ["--set", "generator=remote"]) == 2
    assert "EVOFACTOR_API_KEY" in capsys.readouterr().err
    assert _evolve(snapshot, tmp_path / "r", ["--set", "generator=psychic"]) == 2


# ---------------------------------------------------------------- aggregate


@pytest.fixture(scope="module")
def checkpoint_paths(tmp_path_factory, snapshot) -> list[str]:
    table = load_snapshot(snapshot)
    base = tmp_path_factory.mktemp("checkpoints")
    paths = []
    for seed in (0, 1):
        cfg = EvolutionConfig(
            lookback=30, warmup_steps=60, search_interval=5, m=3, k_top=3,
            m_candidates=4, recall_n=3, seed_windows=(7,), rng_seed=seed,
        )
        from evofactor.generator import generate_offline

        result = run_evolution(table, cfg, gen=generate_offline)
        path = str(base / f"run{seed}.jsonl")
        save_checkpoints(result.records, path)
        paths.append(path)
    return paths


def test_aggregate_outputs(tmp_path, capsys, checkpoint_paths) -> None:
    outdir = tmp_path / "agg"
    assert main(["aggregate", *checkpoint_paths, "-o", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "merged" in out and "pooled library" in out
    library = load_library(str(outdir / "pooled_library.json"))
    assert len(library) >= 12
    assert all(rec.origin == "pooled" for rec in library)
    # merged.jsonl matches the library-level call byte for byte
    save_merged(aggregate_records(checkpoint_paths), str(tmp_path / "direct.jsonl"))
    assert (outdir / "merged.jsonl").read_bytes() == (tmp_path / "direct.jsonl").read_bytes()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert set(manifest["inputs"]) == set(checkpoint_paths)


def test_aggregate_truncation_flags(tmp_path, checkpoint_paths) -> None:
    outdir = tmp_path / "agg"
    assert main(["aggregate", *checkpoint_paths, "-o", str(outdir),
                 "--max-records", "2", "--ratio", "0.5"]) == 0
    merged_lines = (outdir / "merged.jsonl").read_text().strip().splitlines()
    assert len(merged_lines) == 1  # floor(min(L, 2) * 0.5)
    assert main(["aggregate", *checkpoint_paths, "-o", str(outdir), "--ratio", "2.0"]) == 2


@pytest.mark.parametrize("key", ["performance", "quality", "state"])
def test_aggregate_names_a_checkpoint_map_that_is_not_an_object(
    tmp_path, capsys, checkpoint_paths, key
) -> None:
    lines = Path(checkpoint_paths[0]).read_text().splitlines()
    doc = json.loads(lines[1])
    doc[key] = [1.0]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(doc), *lines[2:]]) + "\n")
    assert main(["aggregate", str(bad), "-o", str(tmp_path / "agg")]) == 2
    assert capsys.readouterr().err == f"error: {bad}:2: bad checkpoint record: {key} [1.0] must be a JSON object\n"


def _ghost_factor(doc: dict) -> str:
    doc["performance"]["ghost_7_v1"] = {"final_value": 100.0}
    doc["quality"]["ghost_7_v1"] = {"mean_rankic": 0.0}
    return "ghost_7_v1"


def _drop(key: str, column: str | None):
    """Drop the first factor's column from one stats map, or its whole entry."""

    def corrupt(doc: dict) -> str:
        name = sorted(doc[key])[0]
        if column:
            del doc[key][name][column]
        else:
            del doc[key][name]
        return name

    return corrupt


def _step(value: object):
    """Set the record's step to a JSON value."""

    def corrupt(doc: dict) -> str:
        doc["step"] = value
        return ""

    return corrupt


def _entry(key: str, value: object):
    """Set the first factor's whole entry in one stats map to a JSON value."""

    def corrupt(doc: dict) -> str:
        name = sorted(doc[key])[0]
        doc[key][name] = value
        return name

    return corrupt


def _set(key: str, column: str, value: object):
    """Set the first factor's column in one stats map to a JSON value."""

    def corrupt(doc: dict) -> str:
        name = sorted(doc[key])[0]
        doc[key][name][column] = value
        return name

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(_ghost_factor, "performance entry {} is not in 'pool'", id="not_in_pool"),
        pytest.param(
            _drop("quality", None), "'performance' and 'quality' name different factors", id="no_quality"
        ),
        pytest.param(
            _drop("performance", "final_value"), "performance entry {} lacks 'final_value'", id="no_final_value"
        ),
        pytest.param(
            _drop("quality", "mean_rankic"), "quality entry {} lacks 'mean_rankic'", id="no_mean_rankic"
        ),
        # A merge reads both columns as numbers: a string, null or bool fails at its line.
        *[
            pytest.param(
                _set(key, column, value),
                f"{key} entry {{}} has a non-numeric {column!r}: {value!r}",
                id=f"{column}_{json.dumps(value)}",
            )
            for key, column in (("performance", "final_value"), ("quality", "mean_rankic"))
            for value in ("abc", None, True)
        ],
        # An entry is a JSON object: not a number, nor a list of pairs a dict() call would accept.
        *[
            pytest.param(
                _entry(key, value), f"{key} entry {{}} {value!r} must be a JSON object", id=f"{key}_{kind}"
            )
            for key in ("performance", "quality")
            for kind, value in (("number", 5), ("pairs", [["final_value", 1.0], ["mean_rankic", 0.1]]))
        ],
        # A step is a JSON integer, as a pool entry's created_step is.
        *[
            pytest.param(_step(value), f"step {value!r} must be an integer", id=f"step_{json.dumps(value)}")
            for value in (5.7, True, "5")
        ],
    ],
)
def test_aggregate_rejects_checkpoint_stats_a_merge_cannot_read(
    tmp_path, capsys, checkpoint_paths, corrupt, message
) -> None:
    lines = Path(checkpoint_paths[0]).read_text().splitlines()
    doc = json.loads(lines[1])
    name = corrupt(doc)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(doc), *lines[2:]]) + "\n")
    assert main(["aggregate", bad.as_posix(), checkpoint_paths[1], "-o", str(tmp_path / "agg")]) == 2
    err = capsys.readouterr().err
    want = f"error: {bad.as_posix()}:2: bad checkpoint record: {message.format(repr(name))}\n"
    assert err == want


# ------------------------------------------------- JSON field kinds, property

# The JSON kinds each checked field accepts, by document kind. A path names a
# field inside the document, with list indexes; int excludes bool.
_RECORD_KINDS = {"name": (str,), "expr": (str,), "base_name": (str,), "version": (int,),
                 "origin": (str,), "parents": (list,), "created_step": (int,)}
_FIELD_KINDS = {
    "snapshot": {"asset_ids": (list,), "dates": (list,), "prices": (list,)},
    "library": {"factors": (list,), **{f"factors/0/{key}": kinds for key, kinds in _RECORD_KINDS.items()}},
    "checkpoint_line": {"step": (int,), "pool": (list,), "performance": (dict,), "quality": (dict,),
                        "state": (dict,), **{f"pool/0/{key}": kinds for key, kinds in _RECORD_KINDS.items()}},
    "resume_state": {"state/portfolio_value": (int, float), "state/baseline_value": (int, float),
                     "state/prev_weights": (list, type(None))},
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _set_field(doc: dict, path: str, value: object) -> None:
    *parents, key = [int(part) if part.isdigit() else part for part in path.split("/")]
    for part in parents:
        doc = doc[part]
    doc[key] = value


@pytest.mark.parametrize("document", sorted(_FIELD_KINDS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_field_of_a_wrong_json_kind_exits_2_naming_the_file_and_the_key(
    tmp_path, capsys, snapshot, library, checkpoint_paths, document, data
) -> None:
    path = data.draw(st.sampled_from(sorted(_FIELD_KINDS[document])), label="field")
    kinds = _FIELD_KINDS[document][path]
    value = data.draw(_JSON_VALUES.filter(lambda v: type(v) not in kinds), label="value")
    lines = Path(checkpoint_paths[0]).read_text().splitlines()
    text = {"snapshot": Path(snapshot).read_text(), "library": Path(library).read_text(),
            "checkpoint_line": lines[1], "resume_state": lines[-1]}[document]
    doc = json.loads(text)
    _set_field(doc, path, value)
    bad = tmp_path / "bad.json"
    out = ["-o", str(tmp_path / "r"), *_SET]
    if document == "checkpoint_line":
        bad.write_text(lines[0] + "\n" + json.dumps(doc) + "\n")
        argv, where = ["aggregate", str(bad), "-o", str(tmp_path / "r")], f"{bad}:2: bad checkpoint record: "
    elif document == "resume_state":
        bad.write_text(json.dumps(doc) + "\n")
        argv, where = ["evolve", "--snapshot", snapshot, "--resume-from", str(bad), *out], f"{bad}:1: resume state "
    else:
        bad.write_text(json.dumps(doc))
        lib, snap = (str(bad), snapshot) if document == "library" else (library, str(bad))
        argv, where = ["backtest", "--snapshot", snap, "--library", lib, *out], f"{bad}: "
    assert main(argv) == 2
    entry = "factor 0 " if path.startswith("factors/0/") else ""
    key = path.split("/")[-1]
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}{entry}{key} {reprlib.repr(value)} must be "), err


# ------------------------------------------------------------------- report


def test_report_wealth_curve_names_ledgers_by_their_shortest_distinct_suffix(
    tmp_path, snapshot
) -> None:
    for run, seed in (("run_a", "0"), ("run_b", "1")):
        assert _evolve(snapshot, tmp_path / "src" / run, ["--set", f"rng_seed={seed}"]) == 0
    written = []
    for root in ("first", "second/deeper"):
        ledgers = []
        for run in ("run_a", "run_b"):
            path = tmp_path / root / run / "ledger.csv"
            path.parent.mkdir(parents=True)
            path.write_bytes((tmp_path / "src" / run / "ledger.csv").read_bytes())
            ledgers += ["--ledger", str(path)]
        outdir = tmp_path / root / "report"
        assert main(["report", "--mode", "wealth_curve", *ledgers, "-o", str(outdir)]) == 0
        written.append((outdir / "wealth_curve.csv").read_bytes())
    assert written[0] == written[1]
    assert written[0].decode().splitlines()[0] == "date,run_a/ledger,run_b/ledger"
    twice = ["--ledger", ledgers[1], "--ledger", ledgers[1]]
    assert main(["report", "--mode", "wealth_curve", *twice, "-o", str(tmp_path / "rep")]) == 2


def test_report_wealth_curve_stem_collision(tmp_path, snapshot) -> None:
    assert _evolve(snapshot, tmp_path / "a") == 0
    assert _evolve(snapshot, tmp_path / "b") == 0
    l1, l2 = str(tmp_path / "a" / "ledger.csv"), str(tmp_path / "b" / "ledger.csv")
    outdir = tmp_path / "rep"
    assert main(["report", "--mode", "wealth_curve", "--ledger", l1, "--ledger", l2,
                 "-o", str(outdir)]) == 0
    lines = (outdir / "wealth_curve.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "date"
    assert len(header) == 3 and header[1] != header[2]  # parent dirs disambiguate
    rows = read_ledger(l1)
    assert len(lines) - 1 == len(rows)
    first = lines[1].split(",")
    assert first[1] == repr(rows[0].portfolio_value)
    assert main(["report", "--mode", "wealth_curve", "-o", str(outdir)]) == 2


@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("selected_assets", "5", "selected_assets 5 must be a list of strings"),
        ("selected_assets", '["A0", 1]', "selected_assets ['A0', 1] must be a list of strings"),
        ("weights", "[1.0]", "weights [1.0] must be a list of strings"),
        ("weights", "[0.5", "weights '[0.5' must be a list of strings"),
        ("weights", '["x"]', "could not convert string to float: 'x'"),
        ("turnover", "x", "could not convert string to float: 'x'"),
    ],
)
def test_report_names_a_bad_ledger_cell(tmp_path, capsys, column, cell, message) -> None:
    row = LedgerRow("2020-01-02", "live", 101.0, 100.5, 1.01, 1.005, 0.5, 0.0, ("A0",), (1.0,))
    path = tmp_path / "ledger.csv"
    write_ledger([row, dataclasses.replace(row, date="2020-01-03")], str(path))
    header, first, last = list(csv.reader(path.read_text().splitlines()))
    last[header.index(column)] = cell
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([header, first, last])
    assert main(["report", "--mode", "wealth_curve", "--ledger", str(path), "-o", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"error: {path}:3: {message}\n"


def test_report_factor_sweep(tmp_path, snapshot, library) -> None:
    outdir = tmp_path / "rep"
    assert main(["report", "--mode", "factor_sweep", "--snapshot", snapshot,
                 "--library", library, "-o", str(outdir), *_SET]) == 0
    lines = (outdir / "factor_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "k_top,cumulative_wealth,final_value,mean_rankic"
    assert len(lines) == 11
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert int(cells[0]) == k
        assert float(cells[1]) == pytest.approx(float(cells[2]) - 1.0, abs=1e-12)
    assert main(["report", "--mode", "factor_sweep", "-o", str(outdir)]) == 2


def test_report_factor_sweep_scores_each_block_once(tmp_path, library, monkeypatch) -> None:
    # The sweep grades and trades in one pass over one score cache, so the
    # whole report evaluates no more blocks than a backtest on the same inputs.
    snap = str(tmp_path / "long.json")
    save_snapshot(planted_momentum_table(n_assets=10, n_steps=200, seed=5, signal=0.6), snap)
    calls = []

    def counting_panel(expr, prices, returns, _panel=dsl.evaluate_panel):
        calls.append(expr)
        return _panel(expr, prices, returns)

    monkeypatch.setattr(dsl, "evaluate_panel", counting_panel)
    counts = []
    for command in (["report", "--mode", "factor_sweep", "-o", str(tmp_path / "rep")],
                    ["backtest", "--output", str(tmp_path / "bt")]):
        calls.clear()
        assert main([*command, "--snapshot", snap, "--library", library,
                     *_SET, "--set", "lookback=21"]) == 0
        counts.append(len(calls))
    assert 0 < counts[0] <= counts[1]


@pytest.mark.parametrize(
    "weighting, first_created",
    [
        pytest.param("equal", 0, id="equal"),
        pytest.param("positive_score", 0, id="positive_score"),
        pytest.param("temperature", 0, id="temperature"),
        # Factors graded from past warmup_steps: the first live steps fall back.
        pytest.param("temperature", 70, id="created_after_warmup"),
    ],
)
def test_report_factor_sweep_trades_as_backtest(tmp_path, library, weighting, first_created) -> None:
    # Row k of the sweep must earn what a backtest with k_top=k earns live,
    # and take the market fallback at the steps where the backtest does.
    if first_created:
        library = str(tmp_path / "late.json")
        records = seed_factors((7,))
        save_library([dataclasses.replace(rec, created_step=first_created + 5 * i) for i, rec in enumerate(records)], library)
    snap = str(tmp_path / "snap.json")
    save_snapshot(planted_momentum_table(n_assets=12, n_steps=140, seed=5, signal=0.6), snap)
    sets = [*_SET, "--set", f"weighting={weighting}", "--set", "cost_rate=0.002"]
    assert main(["report", "--mode", "factor_sweep", "--snapshot", snap, "--library", library,
                 "-o", str(tmp_path / "rep"), *sets]) == 0
    lines = (tmp_path / "rep" / "factor_sweep.csv").read_text().strip().splitlines()
    for k in (1, 3):
        outdir = tmp_path / f"k{k}"
        assert main(["backtest", "--snapshot", snap, "--library", library, "--output",
                     str(outdir), *sets, "--set", f"k_top={k}"]) == 0
        value = 1.0
        ledger = read_ledger(str(outdir / "ledger.csv"))
        for row in ledger:
            if row.phase != "warmup":
                value *= row.step_return
        assert float(lines[k].split(",")[2]) == pytest.approx(value, rel=1e-12), k
        fallbacks = [row.date for row in ledger if row.phase == "fallback"]
        assert len(fallbacks) == (first_created - 60 - 1 if first_created else 0), k


def test_report_factor_sweep_falls_back_without_warnings(tmp_path, caplog) -> None:
    # Steps before any factor is graded take the market fallback quietly:
    # the ledger's fallback phase records them, not a warning per k.
    library = str(tmp_path / "late.json")
    records = seed_factors((7,))
    save_library([dataclasses.replace(rec, created_step=70 + 5 * i) for i, rec in enumerate(records)], library)
    snap = str(tmp_path / "snap.json")
    save_snapshot(planted_momentum_table(n_assets=12, n_steps=140, seed=5, signal=0.6), snap)
    with caplog.at_level(logging.WARNING, logger="evofactor"):
        assert main(["report", "--mode", "factor_sweep", "--snapshot", snap, "--library", library,
                     "-o", str(tmp_path / "rep"), *_SET]) == 0
    assert not [rec for rec in caplog.records if "live step failed" in rec.getMessage()]


def test_report_score_heatmap(tmp_path, snapshot, library) -> None:
    assert _evolve(snapshot, tmp_path / "run") == 0
    ledger_path = str(tmp_path / "run" / "ledger.csv")
    outdir = tmp_path / "rep"
    assert main(["report", "--mode", "score_heatmap", "--snapshot", snapshot,
                 "--library", library, "--ledger", ledger_path, "-o", str(outdir), *_SET]) == 0
    lines = (outdir / "score_heatmap.csv").read_text().strip().splitlines()
    rows = read_ledger(ledger_path)
    names = sorted(rec.name for rec in load_library(library))
    assert lines[0].split(",")[1:] == [row.date for row in rows]
    assert [line.split(",")[0] for line in lines[1:]] == names
    for line in lines[1:]:
        for cell in line.split(",")[1:]:
            assert cell == "" or abs(float(cell)) <= 1.0  # normalized scores
    # exactly one ledger required
    assert main(["report", "--mode", "score_heatmap", "--snapshot", snapshot,
                 "--library", library, "--ledger", ledger_path, "--ledger", ledger_path,
                 "-o", str(outdir)]) == 2


def test_report_rerun_is_byte_stable(tmp_path, snapshot, library) -> None:
    outs = []
    for name in ("r1", "r2"):
        outdir = tmp_path / name
        assert main(["report", "--mode", "factor_sweep", "--snapshot", snapshot,
                     "--library", library, "-o", str(outdir), *_SET]) == 0
        outs.append((outdir / "factor_sweep.csv").read_bytes())
    assert outs[0] == outs[1]


# ------------------------------------------------------------ output digests


def test_output_digests_cover_every_command_output(tmp_path, capsys) -> None:
    digests = output_digests.digests(output_digests.write_outputs(tmp_path, "smoke"))
    run_files = ("factor_report.csv", "factor_report.json", "ledger.csv", "metrics.json", "pool.json")
    want = {f"{run}/{name}" for run in ("evolve_a", "evolve_b", "resume_a", "backtest") for name in run_files}
    want |= {f"{run}/checkpoints.jsonl" for run in ("evolve_a", "evolve_b", "resume_a")}
    want |= {
        "aggregate/merged.jsonl",
        "aggregate/pooled_library.json",
        "report_sweep/factor_sweep.csv",
        "report_heatmap/score_heatmap.csv",
        "report_wealth/wealth_curve.csv",
    }
    assert set(digests) == want
    # A second run in another directory prints the same digests.
    assert output_digests.main(["--size", "smoke"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"{digest}  {name}" for name, digest in digests.items()]
