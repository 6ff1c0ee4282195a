"""Every microbenchmark case under tests/bench_*.py runs once, untimed, so a
change that breaks one fails here and not only when someone times it."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_microbenchmark_case_runs() -> None:
    files = sorted(str(path) for path in (ROOT / "tests").glob("bench_*.py"))
    assert files
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", *files],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout and "skipped" not in proc.stdout
