"""One workload process of the evofactor benchmark.

Sets up the workload's inputs from the seed, then (unless --setup-only)
runs its CLI command through `evofactor.cli.main` and checks the outputs
after every run. Untraced, it repeats the command until --seconds of wall
time have passed, and times each command in CPU seconds scaled by the
calibration blocks (calibrate.py) run next to it. Traced, it runs three
pairs of commands, one untraced and one under the tracer. The report goes
to <workdir>/report.json; run.py starts this script in a fresh process per
sample and reads that file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from evofactor import cli

import calibrate
import tracer as tracing
from workloads import WORKLOADS, Outcome, compare_reference

REFERENCE = Path(__file__).resolve().parent / "reference.json"
TRACE_PAIRS = 3  # untraced-then-traced command pairs in a traced run
# Calibration after a command runs for at least this share of the command's
# CPU time, so a long command's scale factor rests on more than one block.
BLOCK_SHARE = 0.1


def run_once(argv: list[str], out_dir: Path) -> tuple[int, float, float, list[float], list]:
    """One timed command: exit code, wall seconds, CPU seconds of this
    process, generator call starts and generator calls. A wrapper around
    the generator callable records the start of every generator call and
    keeps each request and result for the check, which validates
    candidates after the clock stops."""
    shutil.rmtree(out_dir, ignore_errors=True)
    starts: list[float] = []
    calls: list = []
    real = cli.generate_offline

    def generator(req):
        starts.append(time.perf_counter())
        result = real(req)
        calls.append((req, result))
        return result

    cli.generate_offline = generator
    gc.collect()  # every command starts from the same collector state
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        rc = cli.main(argv)
    except Exception:  # noqa: BLE001 - a crash is a failed command, not a benchmark crash
        traceback.print_exc()
        rc = 1
    finally:
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - c0
        cli.generate_offline = real
    return rc, elapsed, cpu, starts, calls


def round_gaps_ms(starts: list[float]) -> list[float]:
    """Time between starts of consecutive generator calls, first round excluded."""
    return [1000.0 * (b - a) for a, b in zip(starts[1:], starts[2:])]


def outputs_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def file_bytes(*paths: Path) -> int:
    return sum(p.stat().st_size for p in paths if p.is_file())


class Tally:
    """Outcomes of every checked command in this process."""

    def __init__(self, workload, seed: int, tiny: bool) -> None:
        self.workload = workload
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() and not tiny else {}
        self.reference = refs.get(workload.name, {}).get(str(seed))
        self.reference_status = "none recorded for this seed"
        self.first_digest: str | None = None
        self.outcomes: list[Outcome] = []
        self.problems: list[str] = []

    def check(self, out_dir: Path, rc: int, calls: list) -> Outcome:
        try:
            outcome = self.workload.check(out_dir, rc, calls)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            outcome = Outcome(failed=1)
            outcome.problem(f"outputs malformed: {exc!r}")
        if rc == 0:
            digest = outputs_digest(out_dir)
            if self.first_digest is None:
                self.first_digest = digest
                if self.reference is not None and outcome.problems:
                    self.reference_status = "not compared: the outputs failed their checks"
                elif self.reference is not None:
                    compare_reference(outcome, self.workload.fingerprint(out_dir), self.reference)
                    self.reference_status = "mismatch" if outcome.problems else "matched"
                    outcome.failed += bool(outcome.problems)
            elif digest != self.first_digest:
                outcome.problem("outputs differ between repeated runs of the same inputs")
                outcome.failed += 1
        self.outcomes.append(outcome)
        self.problems.extend(outcome.problems)
        return outcome

    def summary(self) -> dict:
        return {
            "attempted": sum(o.attempted for o in self.outcomes),
            "failed": sum(o.failed for o in self.outcomes),
            "problems": self.problems[:20],
            "reference": self.reference_status,
        }


def measure(workload, work: Path, seconds: float, tally: Tally, speed_s: float) -> dict:
    """Repeat the command for `seconds` of wall time. Each command's CPU
    time is scaled to the baseline machine's speed by the workload's
    calibration blocks just before and after it (calibrate.py); `speed_s`
    is the block time measured after set-up. Raw CPU and wall seconds are
    kept for the log."""
    out_dir = work / "out"
    argv = workload.argv(out_dir)
    blocks = [speed_s]
    run_s: list[float] = []
    cpu_s: list[float] = []
    wall_s: list[float] = []
    steps_per_s: list[float] = []
    gaps: list[float] = []
    t_end = time.monotonic() + seconds
    while not run_s or time.monotonic() < t_end:
        rc, wall, cpu, starts, calls = run_once(argv, out_dir)
        blocks.append(calibrate.speed(workload.calibration, BLOCK_SHARE * cpu))
        outcome = tally.check(out_dir, rc, calls)
        scaled = cpu * calibrate.REF_S[workload.calibration] / statistics.mean(blocks[-2:])
        run_s.append(scaled)
        cpu_s.append(cpu)
        wall_s.append(wall)
        steps_per_s.append(outcome.steps / scaled)
        gaps.extend(round_gaps_ms(starts))
    return {
        "run_s": run_s,
        "run_cpu_s": cpu_s,
        "run_wall_s": wall_s,
        "calibration_s": blocks,
        "calibration_ref_s": calibrate.REF_S[workload.calibration],
        "steps_per_s": steps_per_s,
        "round_ms": gaps,
    }


def traced(workload, work: Path, tally: Tally) -> dict:
    """Untraced and traced commands in adjacent pairs, so that each pair
    sees the same machine speed; the spans of the last traced command are
    reported."""
    out_dir = work / "out"
    argv = workload.argv(out_dir)
    untraced: list[float] = []
    added: list[float] = []
    gaps: list[float] = []
    for _ in range(TRACE_PAIRS):
        rc, elapsed, _, starts, calls = run_once(argv, out_dir)
        tally.check(out_dir, rc, calls)
        untraced.append(elapsed)
        gaps.extend(round_gaps_ms(starts))
        tr = tracing.Tracer()
        tr.install()
        try:
            rc, wall_s, _, _, calls = run_once(argv, out_dir)
        finally:
            tr.uninstall()
        outcome = tally.check(out_dir, rc, calls)
        added.append(wall_s - elapsed)
    table = tracing.SpanTable(tr)
    tr.write(str(work / "spans.npz"))
    cuts = statistics.quantiles(gaps, n=10) if len(gaps) >= 2 else [0.0] * 9
    extra = {
        "wall_s": wall_s,
        "untraced_s": statistics.median(untraced),
        "overhead_s": statistics.median(added),
        "overhead_ratio": statistics.median(a / u for a, u in zip(added, untraced)),
        "fallback_steps": outcome.fallback_steps,
        "empty_rounds": outcome.empty_rounds,
        "round_samples": len(gaps),
        "round_ms_p50": statistics.median(gaps) if gaps else 0.0,
        "round_ms_p90": cuts[8],
        "ledger_bytes": file_bytes(out_dir / "ledger.csv", out_dir / "ledger.json"),
        "checkpoint_bytes": file_bytes(out_dir / "checkpoints.jsonl"),
        "output_bytes": file_bytes(*out_dir.rglob("*")),
    }
    if table.min_self < -1e-6:
        tally.problems.append(f"span tree broken: a span's children outlast it by {-table.min_self:.3g} s")
    layers = tracing.layer_metrics(table, tr.counts, extra)
    return {"per_layer": {name: [value, unit] for name, (value, unit) in layers.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    work = Path(args.workdir)
    workload = WORKLOADS[args.workload](work / "inputs", args.seed, args.tiny)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    setup_wall_s = time.monotonic() - args.spawned_at
    speed_s = calibrate.block(workload.calibration)
    report: dict = {
        "setup_s": (usage.ru_utime + usage.ru_stime) * calibrate.REF_S[workload.calibration] / speed_s,
        "setup_cpu_s": usage.ru_utime + usage.ru_stime,
        "setup_wall_s": setup_wall_s,
        "digests": workload.digests(),
    }
    if not args.setup_only:
        tally = Tally(workload, args.seed, args.tiny)
        if args.trace:
            report.update(traced(workload, work, tally))
        else:
            report.update(measure(workload, work, args.seconds, tally, speed_s))
        report.update(tally.summary())
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (work / "report.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
