"""Digest every output of a fixed set of CLI commands, so that two commits
can be shown to write the same bytes.

In a temporary directory the script writes a planted snapshot, then runs:

- offline `evolve` twice: run `a` with `positive_score` weighting and a
  `cost_rate`, run `b` with another `rng_seed`, `mean_rankic`, a `t_drop`
  and a `max_pool_size` small enough that its searches prune;
- remote `evolve` on a scripted transport in place of `http_transport`,
  with an `audit_log` in its run directory: the log holds every prompt the
  run sent and every response it got, among them one retry and malformed
  items;
- offline `evolve` as run `a`, stopped by a `KeyboardInterrupt` at its
  sixth search step: it leaves only the five checkpoints it streamed;
- `evolve --resume-from` those five checkpoints;
- `backtest` of the seed library over the size's seed windows;
- `aggregate` of both runs' checkpoints;
- `report` in `factor_sweep` and `score_heatmap` modes over the pooled
  library, and in `wealth_curve` mode over copies of the three ledgers.

It prints `sha256  path` for every output file except `manifest.json`,
which records input paths and so differs between directories. The file is
not named test_*.py, so the test suite does not collect it. Run it at two
commits and compare the printouts:

    PYTHONPATH=src python tests/output_digests.py [--size smoke|full]

`smoke` (10 assets x 100 steps, 7-step seeds) takes about a second; `full`
(40 assets x 300 steps, every seed window, default config) a few seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path
from unittest import mock

from evofactor import cli
from evofactor.evolution import Generator
from evofactor.generator import GenerationRequest, GenerationResult, GeneratorConfig, Transport, generate_offline
from evofactor.market_data import save_snapshot
from evofactor.synthetic import planted_momentum_table

SIZES = {
    "smoke": (
        dict(n_assets=10, n_steps=100),
        ["m=3", "k_top=3", "m_candidates=4", "recall_n=3", "seed_windows=7"],
    ),
    "full": (dict(n_assets=40, n_steps=300), []),
}
RUNS = {
    "a": ["rng_seed=0", "weighting=positive_score", "cost_rate=0.002"],
    "b": ["rng_seed=1", "quality_metric=mean_rankic", "t_drop=0.01", "max_pool_size=16", "keep_top_n=4"],
}


def _cli(*args: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(args))
    if code != 0:
        raise RuntimeError(f"evofactor {' '.join(args)} exited {code}")


def scripted_transport(gcfg: GeneratorConfig) -> Transport:
    """A stand-in for `cli.http_transport`: its first answer holds no list,
    so that step retries; every later answer holds three items that parse,
    then one whose operator does not exist. Call k names its factors after
    k, so the answers depend only on the order of the calls."""
    calls = itertools.count()

    def call(system: str, user: str) -> str:
        k = next(calls)
        if k == 0:
            return "No factors this time."
        w = (3, 7, 14, 21)[k % 4]
        return (
            f'["scripted{k}_{w}_v1 = ts_delta(prices, {w})",'
            f' "scripted{k}_mix_7_v1 = sub(ts_mean(returns, 7), ts_mean(returns, {w}))",'
            f' "scripted{k}_rank_{w}_v1 = mul(ts_rank_pos(prices, {w}), {k}.5)",'
            f' "scripted{k}_bad_7_v1 = no_such_op(prices)"]'
        )

    return call


def stop_at(k: int) -> Generator:
    """The offline generator, except that its k-th call raises
    KeyboardInterrupt, as a kill during search step k would."""
    calls = itertools.count(1)

    def gen(req: GenerationRequest) -> GenerationResult:
        if next(calls) == k:
            raise KeyboardInterrupt
        return generate_offline(req)

    return gen


def _sets(keys: list[str]) -> list[str]:
    return [arg for key in keys for arg in ("--set", key)]


def write_outputs(root: Path, size: str) -> Path:
    """Run every command under root; returns the directory of their outputs."""
    shape, keys = SIZES[size]
    inputs, out = root / "inputs", root / "outputs"
    inputs.mkdir(parents=True)
    snapshot = str(inputs / "snapshot.json")
    save_snapshot(planted_momentum_table(**shape, seed=5, signal=0.6), snapshot)
    common = ["--snapshot", snapshot, *_sets(keys)]
    for run, run_keys in RUNS.items():
        _cli("evolve", *common, *_sets(run_keys), "-o", str(out / f"evolve_{run}"))
    remote = out / "evolve_remote"
    with mock.patch.object(cli, "http_transport", scripted_transport):
        _cli("evolve", *common, *_sets(["generator=remote", f"audit_log={remote / 'audit.jsonl'}"]), "-o", str(remote))
    stopped = out / "evolve_a_stopped"
    with mock.patch.object(cli, "generate_offline", stop_at(6)), contextlib.suppress(KeyboardInterrupt):
        _cli("evolve", *common, *_sets(RUNS["a"]), "-o", str(stopped))
    head = str(stopped / "checkpoints.jsonl")
    _cli("evolve", *common, *_sets(RUNS["a"]), "--resume-from", head, "-o", str(out / "resume_a"))
    _cli("backtest", *common, "-o", str(out / "backtest"))
    checkpoints = [str(out / f"evolve_{run}" / "checkpoints.jsonl") for run in RUNS]
    _cli("aggregate", *checkpoints, "-o", str(out / "aggregate"))
    pooled = str(out / "aggregate" / "pooled_library.json")
    report = ["report", "--snapshot", snapshot, "--library", pooled, *_sets(keys)]
    _cli(*report, "--mode", "factor_sweep", "-o", str(out / "report_sweep"))
    ledger_a = str(out / "evolve_a" / "ledger.csv")
    _cli(*report, "--mode", "score_heatmap", "--ledger", ledger_a, "-o", str(out / "report_heatmap"))
    # Ledgers whose stems differ are named by stem alone, not by their path.
    ledgers = []
    for run in ("evolve_a", "evolve_b", "backtest"):
        ledgers += ["--ledger", str(inputs / f"{run}.csv")]
        (inputs / f"{run}.csv").write_bytes((out / run / "ledger.csv").read_bytes())
    _cli("report", "--mode", "wealth_curve", *ledgers, "-o", str(out / "report_wealth"))
    return out


def digests(out: Path) -> dict[str, str]:
    """sha256 of each file under out but manifest.json, by relative path."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(write_outputs(Path(tmp), args.size)).items():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
