"""evofactor benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload search --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`. Every sample runs in a fresh single-threaded process (worker.py):
several set-up-only processes give the set-up time samples, and the last
process also runs the timed command. With --trace 0 the result holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
The last line of standard output is the JSON result; the lines before it
list the environment, input digests, every metric's median, quartiles and
sample count, and any check that failed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5  # set-up processes per untraced run; the last one also measures
DEADLINE_S = 170.0  # a run must end within 180 s
OVERHEAD_NOTE = 0.05  # tracing overhead over the untraced time above which run.py says so
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(work: Path, args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({key: "1" for key in THREAD_ENV})
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(work),
    ]  # fmt: skip
    cmd += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    with open(work / "stdout.txt", "w") as out, open(work / "stderr.txt", "w") as err:
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(time.monotonic())],
                stdout=out,
                stderr=err,
                env=env,
                cwd=ROOT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker overran the {DEADLINE_S:.0f} s budget") from exc
    if proc.returncode != 0 or not (work / "report.json").is_file():
        tail = (work / "stderr.txt").read_text()[-2000:]
        raise BenchError(f"worker exited {proc.returncode}:\n{tail}")
    return json.loads((work / "report.json").read_text())


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "evofactor").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {key: "1" for key in THREAD_ENV},
    }


def describe(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {statistics.median(values):.6g} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def run(args: argparse.Namespace, spec: dict, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    samples = 1 if args.trace else SETUP_SAMPLES
    reports = [
        spawn(work / f"p{i}", args, deadline, setup_only=i < samples - 1) for i in range(samples)
    ]
    final = reports[-1]
    problems = list(final["problems"])
    failed = final["failed"]
    if any(r["digests"] != final["digests"] for r in reports):
        problems.append("set-ups of the same seed wrote different input files")
        failed += 1

    print(f"# evofactor benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    print("# inputs " + json.dumps(final["digests"], sort_keys=True))
    print(f"# reference check: {final['reference']}")
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in final["per_layer"].items()
            if name in units
        }
        for name, m in metrics.items():
            print(f"# {name}: {m['value']:.6g} {m['unit']}")
        overhead = final["per_layer"]["trace.overhead_ratio"][0]
        if overhead > OVERHEAD_NOTE:
            print(
                f"# note: tracing added {overhead:.1%} to the untraced time (over {OVERHEAD_NOTE:.0%}):"
                " shares of layers with many short calls read high"
            )
        (ROOT / ".bench_work" / "traces").mkdir(parents=True, exist_ok=True)
        shutil.copy(work / "p0" / "spans.npz", ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.npz")
    else:
        series = {
            "setup_s": [r["setup_s"] for r in reports],
            "run_s": final["run_s"],
            "steps_per_s": final["steps_per_s"],
            "peak_rss_mb": [final["peak_rss_mb"]],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {
            name: {"value": statistics.median(series[name]), "unit": units[name]} for name in units
        }
        for name in units:
            print(f"# {name}: {describe(series[name])} {units[name]}")
        print(f"# setup CPU time, unscaled: {describe([r['setup_cpu_s'] for r in reports])} s")
        print(f"# setup wall time: {describe([r['setup_wall_s'] for r in reports])} s")
        print(f"# run CPU time, unscaled: {describe(final['run_cpu_s'])} s")
        print(f"# run wall time: {describe(final['run_wall_s'])} s")
        print(f"# calibration block: {describe(final['calibration_s'])} s (reference {final['calibration_ref_s']} s)")
        if final["round_ms"]:
            print(f"# round_ms (between generator calls): {describe(final['round_ms'])} ms")
    print(f"# fail_frac: {failed}/{final['attempted']} = {failed / final['attempted']:.6g}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": final["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "evofactor" / "__init__.py").is_file():
        print(f"error: no evofactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = run(args, spec, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
