"""The benchmark's workloads: deterministic inputs made from a seed, the CLI
command each one times, and the checks on that command's outputs.

Every workload is a closed loop of one client: it issues one `evofactor`
command, waits for it to finish, checks the outputs, and issues the next.
The checks here are written against the input files, not against the
package, so a defect in the program cannot hide itself from them: ledger
accounting is recomputed from the snapshot prices and the merge is
recomputed by an independent reference implementation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evofactor import dsl
from evofactor.evolution import SearchRecord, save_checkpoints
from evofactor.generator import validate_candidate
from evofactor.market_data import PriceTable, save_snapshot
from evofactor.seeds import make_record, save_library, seed_factors
from evofactor.synthetic import planted_momentum_table

# Floats may drift by rounding only (a refactor that reorders a sum passes).
REL_TOL = 1e-9

LEDGER_COLUMNS = [
    "date",
    "phase",
    "portfolio_value",
    "baseline_value",
    "step_return",
    "baseline_return",
    "turnover",
    "cost",
    "selected_assets",
    "weights",
]

# The acceptance "planted" search config. 300 steps give 47 search rounds
# per command: a command takes seconds, so a run holds several, and the
# traced run's three untraced commands give a round-latency p90 with more
# than ten samples beyond it.
SEARCH_CONFIG = {
    "lookback": 30,
    "warmup_steps": 60,
    "seed_windows": [7],
    "max_pool_size": 30,
    "keep_top_n": 10,
    "m": 10,
    "search_interval": 5,
    "m_candidates": 5,
}
# A wide panel and a long lookback: per-asset and per-lookback costs show.
BACKTEST_CONFIG = {"lookback": 60, "warmup_steps": 60, "m": 10}

SIZES = {
    "search": {"full": {"assets": 40, "steps": 300}, "tiny": {"assets": 24, "steps": 100}},
    "backtest": {"full": {"assets": 200, "steps": 90}, "tiny": {"assets": 30, "steps": 70}},
    "merge": {
        "full": {"streams": 4, "records": 25, "pool": 40},
        "tiny": {"streams": 2, "records": 6, "pool": 16},
    },
}


@dataclass
class Outcome:
    """What one checked command did: problems found by the checks, and the
    operations attempted and failed (the fail_frac counts)."""

    problems: list[str] = field(default_factory=list)
    attempted: int = 1
    failed: int = 0
    steps: int = 0
    empty_rounds: int = 0
    fallback_steps: int = 0

    def problem(self, text: str) -> None:
        self.problems.append(text)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_lines(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ------------------------------------------------------------------ ledger


def read_ledger(path: Path) -> list[dict]:
    """Parse ledger.csv without the package's reader."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != LEDGER_COLUMNS:
            raise ValueError(f"unexpected ledger columns {reader.fieldnames}")
        rows = []
        for rec in reader:
            row = {key: rec[key] for key in ("date", "phase")}
            for key in LEDGER_COLUMNS[2:8]:
                row[key] = float(rec[key])
            row["selected"] = [str(a) for a in json.loads(rec["selected_assets"])]
            row["weights"] = [float(w) for w in json.loads(rec["weights"])]
            rows.append(row)
    return rows


def check_ledger(
    out: Outcome,
    path: Path,
    table: PriceTable,
    m: int,
    warmup_steps: int,
) -> list[dict]:
    """Ledger invariants on every row, and its accounting recomputed from
    the snapshot: baseline and portfolio step returns, and both value
    chains. Counts live steps as attempted and fallback steps as failed."""
    try:
        rows = read_ledger(path)
    except (OSError, ValueError, KeyError) as exc:
        out.problem(f"ledger unreadable: {exc}")
        return []
    relatives = table.prices[:, 1:] / table.prices[:, :-1]
    n_steps = relatives.shape[1]
    if len(rows) != n_steps:
        out.problem(f"ledger has {len(rows)} rows, expected {n_steps}")
        return rows
    column = {asset: i for i, asset in enumerate(table.asset_ids)}
    value = baseline = 100.0
    bad_rows = 0
    for t, row in enumerate(rows):
        errors = []
        rel = relatives[:, t]
        floats = [row[key] for key in LEDGER_COLUMNS[2:8]] + row["weights"]
        if not all(math.isfinite(x) for x in floats):
            errors.append("non-finite value")
        if row["date"] != table.dates[t + 1]:
            errors.append(f"date {row['date']} != {table.dates[t + 1]}")
        if not close(row["baseline_return"], float(rel.mean())):
            errors.append("baseline_return is not the market mean")
        value *= row["step_return"]
        baseline *= row["baseline_return"]
        if not (close(row["portfolio_value"], value) and close(row["baseline_value"], baseline)):
            errors.append("value chain broken")
        value, baseline = row["portfolio_value"], row["baseline_value"]
        expected_phase = "warmup" if t <= warmup_steps else "live"
        if row["phase"] == "fallback" and expected_phase == "live":
            out.fallback_steps += 1
        elif row["phase"] != expected_phase:
            errors.append(f"phase {row['phase']} where {expected_phase} was due")
        if row["phase"] == "live":
            sel, ws = row["selected"], row["weights"]
            if not 1 <= len(sel) <= m or len(ws) != len(sel) or len(set(sel)) != len(sel):
                errors.append(f"{len(sel)} names / {len(ws)} weights (m={m})")
            elif any(a not in column for a in sel):
                errors.append("unknown asset selected")
            elif any(w < 0.0 for w in ws) or not close(math.fsum(ws), 1.0):
                errors.append(f"weights not on the simplex (sum {math.fsum(ws)!r})")
            else:
                raw = math.fsum(w * float(rel[column[a]]) for a, w in zip(sel, ws))
                if not close(row["step_return"], raw - row["cost"]):
                    errors.append("step_return does not match the selection")
        elif row["selected"] or row["weights"] or row["step_return"] != row["baseline_return"]:
            errors.append("non-live step holds a portfolio")
        if errors:
            bad_rows += 1
            if bad_rows <= 3:
                out.problem(f"ledger row {t} ({row['date']}): {'; '.join(errors)}")
    if bad_rows:
        out.problem(f"{bad_rows} ledger rows fail the invariants")
    live = sum(1 for t in range(n_steps) if t > warmup_steps)
    out.attempted += live
    out.failed += out.fallback_steps + bad_rows
    out.steps = len(rows)
    return rows


def check_metrics_json(out: Outcome, path: Path, rows: list[dict]) -> None:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        out.problem(f"metrics.json unreadable: {exc}")
        return
    if not all(math.isfinite(float(v)) for v in doc.values()):
        out.problem("metrics.json holds a non-finite value")
    if rows and not close(float(doc["final_value"]), rows[-1]["portfolio_value"] / 100.0):
        out.problem("metrics.json final_value disagrees with the ledger")


def ledger_fingerprint(out_dir: Path) -> dict:
    """Exact and float parts of a run's outputs, for the reference table."""
    rows = read_ledger(out_dir / "ledger.csv")
    picks = sorted({round(i * (len(rows) - 1) / 15) for i in range(16)})
    doc = json.loads((out_dir / "metrics.json").read_text())
    pool = json.loads((out_dir / "pool.json").read_text())
    return {
        "exact": {
            "ledger_rows": len(rows),
            "selections_sha256": sha256_lines(
                [f"{r['date']}|{','.join(r['selected'])}" for r in rows]
            ),
            "pool_names": [rec["name"] for rec in pool["factors"]],
        },
        "floats": {
            **{f"metrics.{k}": float(v) for k, v in sorted(doc.items())},
            **{f"portfolio_value@{i}": rows[i]["portfolio_value"] for i in picks},
        },
    }


def compare_reference(out: Outcome, got: dict, want: dict) -> None:
    for key, value in want["exact"].items():
        if got["exact"].get(key) != value:
            out.problem(f"reference mismatch on {key}")
    for key, value in want["floats"].items():
        if key not in got["floats"] or not close(got["floats"][key], value):
            out.problem(f"reference mismatch on {key}: {got['floats'].get(key)!r} vs {value!r}")


# ---------------------------------------------------------------- workloads


class Workload:
    """Inputs for one seed, written under `inputs` by the constructor."""

    name = ""
    calibration = ""  # the calibrate.py block that scales this workload's times

    def __init__(self, inputs: Path, seed: int, tiny: bool) -> None:
        self.inputs = inputs
        self.size = SIZES[self.name]["tiny" if tiny else "full"]
        inputs.mkdir(parents=True, exist_ok=True)

    def argv(self, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out_dir: Path, rc: int, gen_calls: list) -> Outcome:
        raise NotImplementedError

    def fingerprint(self, out_dir: Path) -> dict | None:
        """Exact and float parts of the outputs kept in the reference table;
        None where the check needs no table."""
        return None

    def digests(self) -> dict[str, str]:
        return {p.name: sha256_file(p) for p in sorted(self.inputs.iterdir())}


class _LedgerWorkload(Workload):
    config: dict = {}

    def __init__(self, inputs: Path, seed: int, tiny: bool) -> None:
        super().__init__(inputs, seed, tiny)
        self.table = planted_momentum_table(
            n_assets=self.size["assets"], n_steps=self.size["steps"], seed=seed
        )
        save_snapshot(self.table, str(inputs / "snapshot.json"))
        self.cfg = {**self.config, "rng_seed": seed}
        (inputs / "config.json").write_text(json.dumps(self.cfg))

    def _check_ledger(self, out: Outcome, out_dir: Path) -> list[dict]:
        rows = check_ledger(
            out, out_dir / "ledger.csv", self.table, self.cfg["m"], self.cfg["warmup_steps"]
        )
        check_metrics_json(out, out_dir / "metrics.json", rows)
        return rows

    def fingerprint(self, out_dir: Path) -> dict:
        return ledger_fingerprint(out_dir)


class Search(_LedgerWorkload):
    """`evofactor evolve` with the offline generator; checkpoints written."""

    name = "search"
    calibration = "arrays"
    config = SEARCH_CONFIG

    def argv(self, out_dir: Path) -> list[str]:
        return [
            "evolve",
            "--snapshot", str(self.inputs / "snapshot.json"),
            "--config", str(self.inputs / "config.json"),
            "--output", str(out_dir),
        ]  # fmt: skip

    def search_steps(self) -> list[int]:
        n_steps = self.table.prices.shape[1] - 1
        return [
            t
            for t in range(n_steps)
            if t > self.cfg["warmup_steps"] and t % self.cfg["search_interval"] == 0
        ]

    def check(self, out_dir: Path, rc: int, gen_calls: list) -> Outcome:
        out = Outcome()
        if rc != 0:
            out.problem(f"evolve exited {rc}")
        self._check_ledger(out, out_dir)
        steps = self.search_steps()
        out.attempted += len(gen_calls)
        if [req.step for req, _ in gen_calls] != steps:
            out.problem(f"generator called {len(gen_calls)} times, expected {len(steps)}")
        for req, result in gen_calls:
            pool = {rec.name: rec for rec in req.pool_records}
            cands = result.candidates[: req.m_candidates]
            if not any(validate_candidate(c, pool)[0] for c in cands):
                out.empty_rounds += 1
        out.failed += out.empty_rounds
        try:
            lines = (out_dir / "checkpoints.jsonl").read_text().splitlines()
            ckpts = [json.loads(line) for line in lines if line.strip()]
            final_pool = [r["name"] for r in json.loads((out_dir / "pool.json").read_text())["factors"]]
        except (OSError, ValueError, KeyError) as exc:
            out.problem(f"checkpoints or pool unreadable: {exc}")
            ckpts, final_pool = [], []
        if [c["step"] for c in ckpts] != steps:
            out.problem("checkpoint steps differ from the search steps")
        cap = self.cfg["max_pool_size"] + self.cfg["m_candidates"]
        if any(len(c["pool"]) > cap for c in ckpts):
            out.problem(f"a checkpoint pool exceeds {cap} factors")
        if ckpts and sorted(r["name"] for r in ckpts[-1]["pool"]) != sorted(final_pool):
            out.problem("pool.json differs from the last checkpoint's pool")
        if out.problems:
            out.failed += 1
        return out

    def fingerprint(self, out_dir: Path) -> dict:
        doc = ledger_fingerprint(out_dir)
        lines = (out_dir / "checkpoints.jsonl").read_text().splitlines()
        names = [
            f"{c['step']}|{','.join(r['name'] for r in c['pool'])}"
            for c in map(json.loads, lines)
        ]
        doc["exact"]["checkpoint_pools_sha256"] = sha256_lines(names)
        return doc


class Backtest(_LedgerWorkload):
    """`evofactor backtest` of the 42-factor seed library; no generator."""

    name = "backtest"
    calibration = "arrays"
    config = BACKTEST_CONFIG

    def __init__(self, inputs: Path, seed: int, tiny: bool) -> None:
        super().__init__(inputs, seed, tiny)
        self.library = seed_factors((3, 7, 14, 21))
        save_library(self.library, str(inputs / "library.json"))

    def argv(self, out_dir: Path) -> list[str]:
        return [
            "backtest",
            "--snapshot", str(self.inputs / "snapshot.json"),
            "--library", str(self.inputs / "library.json"),
            "--config", str(self.inputs / "config.json"),
            "--output", str(out_dir),
        ]  # fmt: skip

    def check(self, out_dir: Path, rc: int, gen_calls: list) -> Outcome:
        out = Outcome()
        if rc != 0:
            out.problem(f"backtest exited {rc}")
        self._check_ledger(out, out_dir)
        try:
            report = json.loads((out_dir / "factor_report.json").read_text())
        except (OSError, ValueError) as exc:
            out.problem(f"factor_report.json unreadable: {exc}")
            report = []
        if sorted(r["factor"] for r in report) != sorted(r.name for r in self.library):
            out.problem("factor report does not cover the library")
        if out.problems:
            out.failed += 1
        return out


# ------------------------------------------------------------------- merge


def _merge_universe() -> tuple[list, list]:
    """Seed records of window 7 (in every pool) and versioned variants of all
    42 seeds. Versions 2 and 5 share an expression, so the pooled library's
    structural dedupe has aliases to drop."""
    base = seed_factors((7,))
    variants = []
    for parent in seed_factors((3, 7, 14, 21)):
        if parent.window is None:
            continue
        for version, scale in zip((2, 3, 4, 5), ("1.5", "2.0", "2.5", "1.5")):
            name = f"{parent.base_name}_{parent.window}_v{version}"
            expr = dsl.parse(f"mul({parent.expr_text}, {scale})")
            variants.append(make_record(name, expr, "mutated", (parent.name,)))
    return base, variants


def _filter_versions(values: dict[str, float], meta: dict[str, tuple[str, int]]) -> list[str]:
    """Per base factor keep the latest version and the best-valued name;
    ties break toward the smallest name."""
    groups: dict[str, list[str]] = {}
    for name in values:
        groups.setdefault(meta[name][0], []).append(name)
    kept = set()
    for names in groups.values():
        kept.add(min(names, key=lambda n: (-meta[n][1], n)))
        kept.add(min(names, key=lambda n: (-values[n], n)))
    return sorted(kept)


def expected_merge(streams: list[list[SearchRecord]]) -> tuple[list[dict], list[str]]:
    """Reference merge and pooled-library names, recomputed from the
    synthesized records without the aggregation module."""
    length = min(len(run) for run in streams)
    merged = []
    for i in range(length):
        perf: dict[str, float] = {}
        qual: dict[str, float] = {}
        exprs: dict[str, str] = {}
        for run in streams:
            rec = run[i]
            meta = {r.name: (r.base_name, r.version) for r in rec.pool}
            values = {n: s["final_value"] for n, s in rec.performance.items()}
            texts = {r.name: r.expr_text for r in rec.pool}
            for name in _filter_versions(values, meta):
                fv, ic = values[name], rec.quality[name]["mean_rankic"]
                if name not in perf or fv > perf[name]:
                    perf[name], qual[name], exprs[name] = fv, ic, texts[name]
                elif fv == perf[name] and ic > qual[name]:
                    qual[name] = ic
        merged.append({"step": streams[0][i].step, "performance": perf, "quality": qual, "expressions": exprs})
    seen, pooled = set(), []
    for name in sorted(merged[-1]["expressions"]):
        text = merged[-1]["expressions"][name]
        if text not in seen:
            seen.add(text)
            pooled.append(name)
    return merged, pooled


class Merge(Workload):
    """`evofactor aggregate` over checkpoint streams synthesized here through
    the package's checkpoint API. Names overlap across streams and final
    values are quantized to 0.1, so exact ties send the max-merge to its
    mean-RankIC tie rule."""

    name = "merge"
    calibration = "objects"

    def __init__(self, inputs: Path, seed: int, tiny: bool) -> None:
        super().__init__(inputs, seed, tiny)
        base, variants = _merge_universe()
        n_variants = self.size["pool"] - len(base)
        streams = []
        for s in range(self.size["streams"]):
            records = []
            for i in range(self.size["records"] + s):
                rng = np.random.default_rng([seed, s, i])
                picks = rng.choice(len(variants), size=n_variants, replace=False)
                pool = sorted(base + [variants[j] for j in picks], key=lambda r: r.name)
                records.append(self._record(65 + 5 * i, pool, rng))
            path = inputs / f"stream{s}.jsonl"
            save_checkpoints(records, str(path))
            streams.append(records)
        self.paths = [str(inputs / f"stream{s}.jsonl") for s in range(len(streams))]
        self.records_read = sum(len(run) for run in streams)
        # Only the expected outputs stay resident while commands are timed.
        self.want, self.want_pool = expected_merge(streams)

    @staticmethod
    def _record(step: int, pool: list, rng: np.random.Generator) -> SearchRecord:
        performance, quality = {}, {}
        for rec in pool:
            perf = rng.normal(0.0, 1.0, size=4)
            performance[rec.name] = {
                "final_value": round(100.0 + 5.0 * perf[0], 1),
                "max_drawdown": abs(float(perf[1])) / 10.0,
                "mean_return": float(perf[2]) / 1000.0,
                "sharpe_ratio": float(perf[3]),
                "std_return": 0.01,
            }
            q = rng.normal(0.0, 1.0, size=3)
            quality[rec.name] = {
                "mean_rankic": round(0.05 * float(q[0]), 3),
                "std_rankic": abs(float(q[1])) / 10.0,
                "mean_recall@20": abs(float(q[2])) / 2.0,
                "std_recall@20": 0.1,
            }
        state = {
            "baseline_value": 100.0,
            "phase": "live",
            "portfolio_value": 100.0 + step / 10.0,
            "prev_t": step,
            "prev_weights": [[j, 0.1] for j in range(10)],
        }
        return SearchRecord(step, tuple(pool), performance, quality, state)

    def argv(self, out_dir: Path) -> list[str]:
        return ["aggregate", *self.paths, "--output", str(out_dir)]

    def check(self, out_dir: Path, rc: int, gen_calls: list) -> Outcome:
        out = Outcome()
        if rc != 0:
            out.problem(f"aggregate exited {rc}")
        want, want_pool = self.want, self.want_pool
        out.attempted += len(want)
        out.steps = self.records_read
        try:
            got = [json.loads(line) for line in (out_dir / "merged.jsonl").read_text().splitlines()]
            pooled = json.loads((out_dir / "pooled_library.json").read_text())["factors"]
        except (OSError, ValueError, KeyError) as exc:
            out.problem(f"merge outputs unreadable: {exc}")
            out.failed += 1 + len(want)
            return out
        if len(got) != len(want):
            out.problem(f"merged.jsonl has {len(got)} records, expected {len(want)}")
        bad = 0
        for g, w in zip(got, want):
            ok = (
                g.get("step") == w["step"]
                and g.get("expressions") == w["expressions"]
                and all(
                    isinstance(g.get(key), dict)
                    and g[key].keys() == w[key].keys()
                    and all(close(float(g[key][n]), v) for n, v in w[key].items())
                    for key in ("performance", "quality")
                )
            )
            bad += not ok
        bad += abs(len(want) - len(got))
        if bad:
            out.problem(f"{bad} merged steps differ from the reference merge")
        if [rec["name"] for rec in pooled] != want_pool:
            out.problem("pooled library differs from the reference dedupe")
        out.failed += bad + bool(out.problems)
        return out


WORKLOADS = {cls.name: cls for cls in (Search, Backtest, Merge)}
