"""The byte contract: every output of `output_digests.py --size smoke` must
match the digests committed in `tests/data/output_digests_smoke.txt`.

A change that alters an output on purpose regenerates that file in its own
diff, with the command it prints:

    PYTHONPATH=src python tests/output_digests.py --size smoke > tests/data/output_digests_smoke.txt
"""
from __future__ import annotations

from pathlib import Path

import output_digests

COMMITTED = Path(__file__).resolve().parent / "data" / "output_digests_smoke.txt"


def _committed() -> dict[str, str]:
    pairs = (line.split("  ", 1) for line in COMMITTED.read_text().splitlines() if line)
    return {path: digest for digest, path in pairs}


def test_smoke_outputs_match_the_committed_digests(tmp_path) -> None:
    want = _committed()
    got = output_digests.digests(output_digests.write_outputs(tmp_path, "smoke"))
    differ = sorted(path for path in want.keys() | got.keys() if want.get(path) != got.get(path))
    assert not differ, f"outputs differ from {COMMITTED.name}: {', '.join(differ)}"
