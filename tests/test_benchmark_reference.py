"""The benchmark's workloads, run through `cli.main` at their full sizes: each
command's outputs must pass the workload's own checks and, where
`perfbench/reference.json` records the seed, match that table. The
benchmark files are imported and read, never written."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from evofactor import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.append(str(PERFBENCH))
from workloads import WORKLOADS, compare_reference  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize(
    "name, seed",
    [("search", 0), ("search", 1000), ("backtest", 0), ("backtest", 1000), ("merge", 0)],
)
def test_workload_outputs_pass_their_checks_and_match_the_reference(
    tmp_path, monkeypatch, name, seed
) -> None:
    workload = WORKLOADS[name](tmp_path / "inputs", seed, False)
    calls = []
    real = cli.generate_offline

    def generator(req):
        # As perfbench/worker.py does: keep each call for the check.
        result = real(req)
        calls.append((req, result))
        return result

    monkeypatch.setattr(cli, "generate_offline", generator)
    out_dir = tmp_path / "out"
    rc = cli.main(workload.argv(out_dir))
    outcome = workload.check(out_dir, rc, calls)
    assert rc == 0 and outcome.problems == []
    reference = REFERENCE.get(name, {}).get(str(seed))
    if reference is None:
        assert workload.fingerprint(out_dir) is None  # only merge has no table
        return
    compare_reference(outcome, workload.fingerprint(out_dir), reference)
    assert outcome.problems == []
