"""Record the benchmark's reference outputs and its baseline.

    python3 perfbench/record.py reference   # rewrite perfbench/reference.json
    python3 perfbench/record.py baseline    # rewrite perfbench/baseline.json

`reference` runs the search and backtest commands once per reference seed
and stores their output fingerprints: names, selections and row counts
exactly, floats to be matched within 1e-9 relative. Record it only at a
commit whose outputs are known good; the check then holds later commits
to the same outputs. `baseline` runs run.py on every workload for the
tuning seeds (untraced) and once traced, and stores the medians, quartiles
and layer shares that later performance claims are compared against. A
metric whose spread over the seeds is wider than its bound is stored with
`"unresolved": true`.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

TUNING_SEEDS = tuple(range(10))
HELD_OUT_SEED = 1000
REFERENCE_SEEDS = TUNING_SEEDS + tuple(range(10, 16)) + (HELD_OUT_SEED,)


def record_reference() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import worker
    from workloads import WORKLOADS

    doc: dict = {}
    scratch = ROOT / ".bench_work" / "record"
    for name in ("search", "backtest"):
        doc[name] = {}
        for seed in REFERENCE_SEEDS:
            workload = WORKLOADS[name](scratch / "inputs", seed, tiny=False)
            out_dir = scratch / "out"
            rc, *_, calls = worker.run_once(workload.argv(out_dir), out_dir)
            outcome = workload.check(out_dir, rc, calls)
            if outcome.problems or outcome.failed:
                raise SystemExit(f"{name} seed {seed} fails its check: {outcome.problems}")
            doc[name][str(seed)] = workload.fingerprint(out_dir)
            print(f"{name} seed {seed}: recorded", file=sys.stderr, flush=True)
    (BENCH / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(scratch, ignore_errors=True)


def _run(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _spread(values: list[float], bound: float) -> dict:
    """Median, quartiles and spread of one metric over the tuning seeds. A
    spread wider than the metric's bound marks the median unresolved: a
    later change cannot be told apart from noise against it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "unresolved": spread > bound,
        "n": len(values),
        "values": values,
    }


def record_baseline() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc: dict = {"claim": None, "seeds": list(TUNING_SEEDS), "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        series: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in TUNING_SEEDS:
            t0 = time.monotonic()
            res, info = _run(name, seed, 0, spec["run_seconds"])
            if not res["correct"]:
                raise SystemExit(f"{name} seed {seed} is not correct: {info[-5:]}")
            failed += res["failed"]
            attempted += res["attempted"]
            for metric, m in res["metrics"].items():
                series.setdefault(metric, []).append(m["value"])
            doc.setdefault("env", json.loads(info[1].removeprefix("# env ")))
            print(f"{name} seed {seed}: {time.monotonic() - t0:.1f} s", file=sys.stderr, flush=True)
        traced, _ = _run(name, TUNING_SEEDS[0], 1, spec["run_seconds"])
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        doc["workloads"][name] = {
            "end_to_end": {k: _spread(v, bounds[k]) for k, v in series.items()},
            "fail_frac": failed / attempted,
            "trace_seed": TUNING_SEEDS[0],
            "layer_shares": {k: v for k, v in layers.items() if k.endswith(".share")},
            "per_layer": layers,
        }
    (BENCH / "baseline.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    what = sys.argv[1] if len(sys.argv) == 2 else ""
    if what == "reference":
        record_reference()
    elif what == "baseline":
        record_baseline()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
