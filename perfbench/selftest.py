"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload runs, that every end-to-end and per-layer metric
named in BENCHMARK.json is printed with its unit, that the layer bypass
predictions hold, that the same seed writes the same input files, that a
corrupted ledger.csv or merged.jsonl is counted by the output check, and
that the benchmark refuses to run without the package sources.
Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_work" / "selftest"


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    expect(proc.returncode == 0, f"run.py exits 0 (stderr: {proc.stderr[-500:]})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics_printed() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result_of(
                bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
            )
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}, "result has exactly its four keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{workload} trace={trace} is correct with no failure")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(got == want, f"{workload} trace={trace} prints every {key} metric with its unit")
            if trace:
                values = {name: m["value"] for name, m in res["metrics"].items()}
                check_bypass(workload, values)
            else:
                expect(all(m["value"] > 0 for m in res["metrics"].values()), f"{workload} end-to-end metrics are nonzero")


def check_bypass(workload: str, values: dict) -> None:
    expect(values["trace.overhead_ratio"] > -1.0, f"{workload} reports its tracing overhead")
    if workload == "backtest":
        idle = [n for n in values if n.startswith(("generator.", "aggregation.")) and values[n] != 0]
        expect(not idle, f"backtest reads zero on generator.* and aggregation.* {idle}")
        expect(values["dsl.eval_calls"] > 0, "backtest evaluates factors")
    if workload == "merge":
        expect(values["dsl.eval_calls"] == 0, "merge evaluates no factor")
        expect(values["evolution.checkpoint_records_read"] > 0, "merge reads checkpoints")
    if workload == "search":
        expect(values["generator.calls"] > 0 and values["generator.round_samples"] > 0, "search calls the generator")


def check_corruption_counted() -> None:
    sys.path.insert(0, str(BENCH))
    import worker
    from workloads import WORKLOADS

    for name, target in (("search", "ledger.csv"), ("backtest", "ledger.csv"), ("merge", "merged.jsonl")):
        work = SCRATCH / name
        shutil.rmtree(work, ignore_errors=True)
        workload = WORKLOADS[name](work / "inputs", 5, tiny=True)
        again = WORKLOADS[name](work / "inputs-again", 5, tiny=True)
        expect(workload.digests() == again.digests(), f"{name}: the same seed writes the same input files")
        out_dir = work / "out"
        rc, *_, calls = worker.run_once(workload.argv(out_dir), out_dir)
        clean = workload.check(out_dir, rc, calls)
        expect(not clean.problems and clean.failed == 0, f"{name}: clean outputs pass the check")
        path = out_dir / target
        if target == "ledger.csv":
            # Double one weight of the last (live) row: off the simplex.
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
            weights = json.loads(rows[-1][-1])
            weights[0] = repr(2.0 * float(weights[0]))
            rows[-1][-1] = json.dumps(weights)
            with open(path, "w", newline="") as handle:
                csv.writer(handle).writerows(rows)
        else:
            lines = path.read_text().splitlines()
            doc = json.loads(lines[-1])
            doc["performance"][min(doc["performance"])] += 1.0
            lines[-1] = json.dumps(doc, sort_keys=True)
            path.write_text("\n".join(lines) + "\n")
        bad = workload.check(out_dir, rc, calls)
        expect(bool(bad.problems) and bad.failed > 0, f"{name}: a corrupted {target} is counted ({bad.problems[:1]})")
        shutil.rmtree(work, ignore_errors=True)


def check_refuses_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "search", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_refuses_without_sources()
    check_corruption_counted()
    check_metrics_printed()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
