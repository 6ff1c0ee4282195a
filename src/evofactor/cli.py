"""Command-line driver: ingest, backtest, evolve, aggregate, report.

Configuration is a JSON object validated against a fixed key schema;
--set key=value overrides config-file entries and dedicated flags override
both. Every run directory gets a manifest.json tying outputs to the config
hash, code version, and input checksums. No command embeds timestamps, so
identical inputs and seed reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import sys
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

from . import __version__, dsl, metrics, portfolio
from .aggregation import aggregate_records, pooled_library, save_merged
from .evolution import (
    EvolutionConfig,
    EvolutionResult,
    Generator,
    ScoreCache,
    StepOutcome,
    append_checkpoint,
    load_checkpoints,
    pool_by_name,
    run_evolution,
    start_run,
    step,
    trade,
)
from .generator import (
    GeneratorConfig,
    generate_offline,
    generate_remote,
    http_transport,
)
from .market_data import (
    PriceTable,
    load_price_table,
    load_snapshot,
    save_snapshot,
    to_relative_returns,
)
from .seeds import load_library, save_library

C = TypeVar("C", EvolutionConfig, GeneratorConfig)


def _int(value: object) -> int:
    """int() that refuses bools and non-integral numbers rather than truncating."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value: object) -> float:
    """float() that refuses bools rather than reading them as 0.0/1.0."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _str(value: object) -> str:
    """Refuses a JSON null or number rather than spelling it as a string."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _windows(text: object) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(_int(w) for w in text)
    return tuple(_int(w) for w in str(text).split(",") if w.strip())


def _opt_int(text: object) -> int | None:
    if text is None or text == "":
        return None
    return _int(text)


# Every run key with its default: the keys only the CLI reads, then the
# fields of EvolutionConfig and GeneratorConfig, which own their defaults
# and rules. A key's caster follows the type of its default.
_DEFAULTS: dict[str, object] = {
    "data": "",
    "output_dir": "run",
    "generator": "offline",
    **{f.name: f.default for cls in (EvolutionConfig, GeneratorConfig) for f in dataclasses.fields(cls)},
}
_CASTERS: dict[type, Callable] = {int: _int, float: _float, str: _str, tuple: _windows, type(None): _opt_int}
GENERATORS = ("offline", "remote")

# key: what it controls, in --help order
CONFIG_SCHEMA: dict[str, str] = {
    "data": "price snapshot consumed by backtest/evolve",
    "output_dir": "directory receiving ledgers, reports, manifest",
    "rng_seed": "single entropy source; all randomness derives from it",
    "lookback": "window length fed to factor expressions",
    "warmup_steps": "steps earning the market average while factor history accumulates",
    "search_interval": "steps between generator calls; also the trailing stats window",
    "m": "portfolio cardinality cap (nonzero weights per step)",
    "k_top": "factors blended into the composite score",
    "m_candidates": "candidates requested per search step; small batches stay reliable",
    "cost_rate": "proportional transaction cost charged on turnover",
    "weighting": "weight scheme: equal | positive_score | temperature",
    "tau": "softmax temperature; small values concentrate on the top score",
    "quality_metric": "factor ranking basis: final_value | mean_rankic",
    "max_pool_size": "pool size triggering pruning",
    "keep_top_n": "best factors guaranteed to survive pruning",
    "t_drop": "baseline margin a candidate's final value must clear, unless its mean RankIC reaches the pool median",
    "recall_n": "top-N overlap size for recall quality stats",
    "stats_window": "trailing window behind checkpoint stats, pruning and factor_report.csv",
    "seed_windows": "window grid instantiating the seed library",
    "generator": "candidate source: offline (deterministic) | remote (HTTP endpoint)",
    "endpoint": "remote chat endpoint URL",
    "model": "remote model identifier",
    "temperature": "remote sampling temperature",
    "max_retries": "remote attempts before a search step gives up",
    "min_valid": "parsed candidates required to accept a batch; blank = half of m_candidates",
    "timeout": "remote request timeout in seconds",
    "api_key_env": "environment variable holding the API key",
    "audit_log": "JSON-lines file recording every remote request/response",
}


def config_epilog() -> str:
    lines = ["config keys (JSON file and --set key=value):"]
    for key, what in CONFIG_SCHEMA.items():
        default = _DEFAULTS[key]
        shown = "" if default is None else repr(list(default) if isinstance(default, tuple) else default)
        lines.append(f"  {key} (default {shown or 'auto'}): {what}")
    return "\n".join(lines)


def _cast(key: str, value: object) -> object:
    if key not in _DEFAULTS:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return _CASTERS[type(_DEFAULTS[key])](value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key}: {exc}") from exc


def load_run_config(path: str | None, sets: Sequence[str]) -> dict:
    """Defaults, then config file, then --set overrides; unknown keys and
    values that do not cast fail, naming the key."""
    cfg = dict(_DEFAULTS)
    if path:
        with open(path) as handle:
            try:
                doc = json.load(handle)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: config file must hold a JSON object")
        for key, value in doc.items():
            cfg[key] = _cast(key, value)
    for item in sets:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg[key] = _cast(key, value)
    return cfg


def build_config(cls: type[C], cfg: dict) -> C:
    """An EvolutionConfig or GeneratorConfig from the run keys; its own
    rules reject bad values, naming the key."""
    return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls)})


# ------------------------------------------------------------------ outputs


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(outdir: Path, cfg: dict, inputs: Sequence[str]) -> None:
    text = json.dumps(cfg, sort_keys=True, indent=2) + "\n"  # tuples write as lists
    manifest = {
        "code_version": __version__,
        "config": json.loads(text),
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "inputs": {path: _sha256_file(path) for path in sorted(inputs)},
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _ledger_metrics(rows: Sequence[portfolio.LedgerRow]) -> dict[str, float]:
    summary: dict[str, float] = {}
    for prefix, key in (("", "step_return"), ("baseline_", "baseline_return")):
        path = metrics.WealthPath.from_returns([getattr(row, key) for row in rows], initial=1.0)
        summary |= {
            f"{prefix}cumulative_wealth": metrics.cumulative_wealth(path),
            f"{prefix}sharpe_ratio": metrics.sharpe_ratio(path.step_returns - 1.0).value,
            f"{prefix}max_drawdown": metrics.max_drawdown(path),
            f"{prefix}final_value": float(path.values[-1]),
        }
    return summary


def write_run_outputs(outdir: Path, result: EvolutionResult, ecfg: EvolutionConfig) -> dict[str, float]:
    portfolio.write_ledger(result.ledger, str(outdir / "ledger.csv"))
    save_library(list(result.pool), str(outdir / "pool.json"))
    metrics.write_factor_report(
        *result.tracker.stat((rec.name for rec in result.pool), ecfg.stats_window, ecfg.recall_n),
        str(outdir / "factor_report.csv"),
        str(outdir / "factor_report.json"),
        ecfg.recall_n,
    )
    summary = _ledger_metrics(result.ledger)
    (outdir / "metrics.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    return summary


def _finish_run(cfg: dict, result: EvolutionResult, ecfg: EvolutionConfig, inputs: Sequence[str | None]) -> int:
    """Write a backtest's or search's outputs and manifest (inputs: its
    input paths, None for an absent one), then print its summary line."""
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    summary = write_run_outputs(outdir, result, ecfg)
    write_manifest(outdir, cfg, [path for path in inputs if path])
    print(
        "CW {cumulative_wealth:.4f}  SR {sharpe_ratio:.4f}  MDD {max_drawdown:.4f}  "
        "final {final_value:.4f} (baseline final {baseline_final_value:.4f})".format(**summary)
    )
    return 0


# ----------------------------------------------------------------- commands


def cmd_ingest(args: argparse.Namespace) -> int:
    table = load_price_table(args.input, layout=args.layout, values=args.values)
    save_snapshot(table, args.output)
    print(
        f"assets {len(table.asset_ids)}  steps {len(table.dates)}  "
        f"dropped {len(table.dropped)}  -> {args.output}"
    )
    return 0


def _run_config(args: argparse.Namespace) -> dict:
    """Config for backtest and evolve: the file and --set, then --snapshot
    and --output; a run needs a snapshot."""
    cfg = load_run_config(args.config, args.set or [])
    if args.snapshot:
        cfg["data"] = args.snapshot
    if args.output:
        cfg["output_dir"] = args.output
    if not cfg["data"]:
        raise ValueError("no snapshot: pass --snapshot or set the data key")
    return cfg


def cmd_backtest(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    table = load_snapshot(cfg["data"])
    library = load_library(args.library) if args.library else None
    ecfg = build_config(EvolutionConfig, cfg)
    result = run_evolution(table, ecfg, gen=None, pool=library)
    return _finish_run(cfg, result, ecfg, (cfg["data"], args.library))


def _make_generator(cfg: dict) -> Callable[[PriceTable], Generator]:
    """The run's generator, given the table. A remote one is checked, and its
    transport built and audit log opened, before the snapshot loads; it scans
    its prompts for the table's asset ids and dates."""
    if cfg["generator"] not in GENERATORS:
        raise ValueError(f"config key generator={cfg['generator']!r} must be one of {GENERATORS}")
    if cfg["generator"] == "offline":
        return lambda table: generate_offline
    gcfg = build_config(GeneratorConfig, cfg)
    gcfg.min_valid_for(cfg["m_candidates"])
    transport = http_transport(gcfg)
    if gcfg.audit_log:
        try:
            Path(gcfg.audit_log).parent.mkdir(parents=True, exist_ok=True)
            open(gcfg.audit_log, "a").close()
        except OSError as exc:
            raise ValueError(f"config key audit_log={gcfg.audit_log!r} cannot be opened: {exc}") from None
    return lambda table: lambda req: generate_remote(req, gcfg, transport, (*table.asset_ids, *table.dates))


def cmd_evolve(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    bind = _make_generator(cfg)
    table = load_snapshot(cfg["data"])
    gen = bind(table)
    ecfg = build_config(EvolutionConfig, cfg)
    resume = None
    if args.resume_from:
        tail = load_checkpoints(args.resume_from)
        if not tail:
            raise ValueError(f"no checkpoints in {args.resume_from}")
        resume = tail[-1]
    path, memo = Path(cfg["output_dir"]) / "checkpoints.jsonl", {}

    def sink(outcome: StepOutcome) -> None:
        if outcome.record is not None:
            append_checkpoint(path, memo, outcome.record)

    result = run_evolution(table, ecfg, gen=gen, resume_from=resume, emit=sink)
    append_checkpoint(path, memo)  # with no search step, an empty file
    return _finish_run(cfg, result, ecfg, (cfg["data"], args.resume_from))


def cmd_aggregate(args: argparse.Namespace) -> int:
    if args.max_records < 0:
        raise ValueError(f"--max-records must not be negative, got {args.max_records}")
    merged = aggregate_records(args.checkpoints, n_limit=args.max_records, ratio=args.ratio)
    library = pooled_library(merged)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    save_merged(merged, str(outdir / "merged.jsonl"))
    save_library(library, str(outdir / "pooled_library.json"))
    cfg = {"checkpoints": list(args.checkpoints), "max_records": args.max_records, "ratio": args.ratio}
    write_manifest(outdir, cfg, args.checkpoints)
    print(f"merged {len(merged)} records; pooled library holds {len(library)} factors")
    return 0


def _report_wealth_curve(args: argparse.Namespace, cfg: dict) -> list[list]:
    """A column per ledger, named by the fewest trailing parts of its path,
    ending in the file stem, that tell all the ledgers apart."""
    if not args.ledger:
        raise ValueError("wealth_curve needs at least one --ledger")
    ledgers = [portfolio.read_ledger(path) for path in args.ledger]
    parts = [Path(path).resolve().with_suffix("").parts for path in args.ledger]
    if len(set(parts)) < len(parts):
        raise ValueError("a ledger is given twice")
    k = next(k for k in range(1, 1 + max(map(len, parts))) if len({p[-k:] for p in parts}) == len(parts))
    names = [Path(*p[-k:]).as_posix() for p in parts]
    common = set(row.date for row in ledgers[0])
    for rows in ledgers[1:]:
        common &= {row.date for row in rows}
    if not common:
        raise ValueError("ledgers share no dates")
    by_name = [{row.date: row.portfolio_value for row in rows} for rows in ledgers]
    body = [[row.date] + [repr(table[row.date]) for table in by_name] for row in ledgers[0] if row.date in common]
    return [["date"] + names] + body


def _report_factor_sweep(args: argparse.Namespace, cfg: dict) -> list[list]:
    """A static backtest of the library for each k_top in 1..10, from one
    grading pass: row k trades as `backtest` with k_top=k."""
    if not args.snapshot or not args.library:
        raise ValueError("factor_sweep needs --snapshot and --library")
    ecfg = build_config(EvolutionConfig, cfg)
    run = start_run(load_snapshot(args.snapshot), ecfg, pool=load_library(args.library))
    # One ranking per step serves every k: k_top=k blends its first k rows.
    ks = range(1, 11)
    widest = dataclasses.replace(ecfg, k_top=ks[-1])
    value = dict.fromkeys(ks, 1.0)
    prev: dict[int, portfolio.PortfolioWeights | None] = dict.fromkeys(ks)
    ics: dict[int, list[float]] = {k: [] for k in ks}
    returns = run.scorer.rm.values
    for t in range(returns.shape[1]):
        rows = step(run, widest, t).rows
        if rows is None:  # warm-up
            continue
        realized = returns[:, t]
        if rows:  # every k's composite graded against step t in one call
            composites = np.stack([portfolio.aggregate_scores(rows[:k]) for k in ks])
            at_t = np.full(len(ks), t)
            step_ics = metrics.grade_rows(composites, run.scorer.realized, ecfg.m, ecfg.recall_n, at_t)[1].tolist()
        for k in ks:
            weights, r_t, _, _, prev[k] = trade(rows[:k], realized, prev[k], ecfg, t)
            if weights is not None:  # a traded step has rows
                ics[k].append(step_ics[k - 1])
            value[k] *= r_t
    mean_ic = {k: float(np.mean(ics[k])) if ics[k] else 0.0 for k in ks}
    body = [[k, repr(value[k] - 1.0), repr(value[k]), repr(mean_ic[k])] for k in ks]
    return [["k_top", "cumulative_wealth", "final_value", "mean_rankic"]] + body


def _report_score_heatmap(args: argparse.Namespace, cfg: dict) -> list[list]:
    if not args.snapshot or not args.library or len(args.ledger) != 1:
        raise ValueError("score_heatmap needs --snapshot, --library, and one --ledger")
    table = load_snapshot(args.snapshot)
    records = pool_by_name(load_library(args.library))
    rows = portfolio.read_ledger(args.ledger[0])
    rm = to_relative_returns(table)
    ecfg = build_config(EvolutionConfig, cfg)
    scorer = ScoreCache(rm, ecfg.lookback)
    date_to_t = {date: t - 1 for t, date in enumerate(rm.dates)}
    index_of = {asset: i for i, asset in enumerate(table.asset_ids)}
    names = sorted(records)
    cells: dict[str, list[str]] = {name: [] for name in names}
    for row in rows:
        t = date_to_t.get(row.date)
        if t is None or t < ecfg.lookback:
            for name in names:
                cells[name].append("")
            continue
        held = [index_of[a] for a in row.selected_assets if a in index_of]
        idx = held if held else list(range(len(table.asset_ids)))
        for name in names:
            scores = dsl.normalize_scores(scorer.scores(records[name], t))
            cells[name].append(repr(float(scores[idx].mean())))
    return [["factor"] + [row.date for row in rows]] + [[name] + cells[name] for name in names]


REPORTS = {"wealth_curve": _report_wealth_curve, "factor_sweep": _report_factor_sweep,
           "score_heatmap": _report_score_heatmap}


def cmd_report(args: argparse.Namespace) -> int:
    """Builds the mode's rows from its inputs, then creates the output directory
    and writes <mode>.csv, so a report that fails leaves no directory."""
    cfg = load_run_config(args.config, args.set or [])
    rows = REPORTS[args.mode](args, cfg)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / f"{args.mode}.csv", "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    inputs = list(args.ledger or []) + [p for p in (args.snapshot, args.library) if p]
    write_manifest(outdir, cfg, inputs)
    print(f"wrote {args.mode} data under {outdir}")
    return 0


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    # The top level and every command that reads run keys list them in --help.
    keys = {"epilog": config_epilog(), "formatter_class": argparse.RawDescriptionHelpFormatter}
    parser = argparse.ArgumentParser(
        prog="evofactor",
        description="Evolutionary factor search: DSL factors, sparse top-m backtests, "
        "and a generate/validate/prune loop.",
        **keys,
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a price CSV and write a snapshot")
    p.add_argument("input", help="CSV of prices or return relatives")
    p.add_argument("-o", "--output", required=True, help="snapshot path to write")
    p.add_argument("--layout", choices=("wide", "long"), default="wide")
    p.add_argument("--values", choices=("prices", "relatives"), default="prices")
    p.set_defaults(func=cmd_ingest)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run config (see key list in --help)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    running = argparse.ArgumentParser(add_help=False, parents=[common])
    running.add_argument("--snapshot", help="price snapshot (overrides data key)")
    running.add_argument("-o", "--output", help="run directory (overrides output_dir key)")

    p = sub.add_parser("backtest", parents=[running], help="static-pool backtest of a factor library", **keys)
    p.add_argument("--library", help="factor library JSON (default: the seed library over seed_windows)")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("evolve", parents=[running], help="full evolutionary search run", **keys)
    p.add_argument("--resume-from", help="checkpoints.jsonl to resume after")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("aggregate", help="merge checkpoint streams from several runs")
    p.add_argument("checkpoints", nargs="+", help="checkpoints.jsonl files")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--max-records", type=int, default=0, help="cap on aligned records (0 or 1 = off)")
    p.add_argument("--ratio", type=float, default=1.0, help="fraction of aligned records kept")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("report", parents=[common], help="emit plot-ready CSV matrices", **keys)
    p.add_argument("--mode", required=True, choices=REPORTS)
    p.add_argument("--ledger", action="append", help="ledger CSV (repeatable)")
    p.add_argument("--snapshot", help="price snapshot (factor_sweep, score_heatmap)")
    p.add_argument("--library", help="factor library JSON (factor_sweep, score_heatmap)")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # This command's own log handler on the current stderr, at this command's
    # level; both are undone on return, so repeated in-process calls never
    # inherit an earlier call's stream or level.
    root = logging.getLogger()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        root.removeHandler(handler)
        root.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
