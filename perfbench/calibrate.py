"""Fixed blocks of work that track the speed of the machine.

The machine the benchmark runs on is a few vCPUs of a shared host. Its
speed drifts by a third or more over minutes, in CPU time as well as wall
time, while other tenants load the host. A run sees one such phase, so
the CPU time of a command alone spreads that widely between runs.

A block is a fixed piece of work that does not touch the package, so no
change to the program can change its time. Timed next to a command, it
measures how fast the machine is at that moment; the worker divides each
command's CPU time by it and multiplies by the block's CPU time on the
baseline machine (`REF_S`). A slow phase does not slow every kind of work
alike: work on megabytes of small Python objects slows more than
small-array numpy work that stays in cache. So there are two blocks, and
each workload is scaled by the one that resembles its own work:

- `objects`: building a document of a few MB of small Python objects,
  its JSON round trip and the dicts and tuples made from it, then numpy
  over a 200 x 600 panel of about 1 MB (`merge`, which parses checkpoint
  streams);
- `arrays`: numpy sorts and reductions over a 200 x 60 panel, with a
  little JSON (`search` and `backtest`, which evaluate factors on windows).

    python3 perfbench/calibrate.py     # CPU seconds of five runs of each block
"""

from __future__ import annotations

import json
import time

import numpy as np

_PANEL = np.random.default_rng(0).standard_normal((200, 60))
_SMALL_DOC = [
    {
        "name": f"f{i}",
        "expr": "sub(rank(ts_mean(close, 7)), rank(ts_std(volume, 14)))" * 2,
        "values": list(range(40)),
    }
    for i in range(200)
]
_WIDE_PANEL = np.random.default_rng(1).standard_normal((200, 600))


def _objects() -> None:
    # The document is built inside the block and dropped after it, so the
    # block adds nothing resident to the process's peak memory.
    for _ in range(3):
        doc = [
            {
                "name": f"f{i}",
                "expr": "sub(rank(ts_mean(close, 7)), rank(ts_std(volume, 14)))" * 2,
                "values": [j / 7 for j in range(40)],
                "meta": {"index": i, "label": str(i)},
            }
            for i in range(700)
        ]
        acc = {}
        for rec in json.loads(json.dumps(doc)):
            acc[rec["name"]] = (sum(rec["values"]), tuple(rec["expr"].split("(")))
    for _ in range(40):
        np.argsort(_WIDE_PANEL, axis=1)
        c = np.cumsum(_WIDE_PANEL, axis=1)
        (c[:, 7:] - c[:, :-7]).std(axis=0)


def _arrays() -> None:
    for _ in range(12):
        doc = json.loads(json.dumps(_SMALL_DOC))
        acc = {}
        for rec in doc:
            acc[rec["name"]] = sum(rec["values"]) + len(rec["expr"].split("("))
    for _ in range(750):
        np.argsort(_PANEL, axis=0)
        _PANEL.mean(axis=0)
        np.nanstd(_PANEL, axis=1)


BLOCKS = {"objects": _objects, "arrays": _arrays}
REF_S = {"objects": 0.25, "arrays": 0.22}  # CPU seconds on the baseline machine (2-vCPU VM)


def block(kind: str) -> float:
    """CPU seconds of one run of the named block."""
    t0 = time.process_time()
    BLOCKS[kind]()
    return time.process_time() - t0


def speed(kind: str, min_s: float) -> float:
    """Mean CPU seconds of one run of the named block, over as many runs as
    take at least `min_s` (at least one)."""
    times = [block(kind)]
    while sum(times) < min_s:
        times.append(block(kind))
    return sum(times) / len(times)


if __name__ == "__main__":
    for kind in BLOCKS:
        print(kind, " ".join(f"{block(kind):.4f}" for _ in range(5)))
