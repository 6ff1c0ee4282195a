"""Merge checkpoint streams from independent runs into one record stream
and a pooled factor library for re-evaluation under a static backtest.

Per aligned step, each run's record is version-filtered, then factors are
max-merged on final_value; an exact final_value tie is broken by the higher
mean_rankic. Runs are processed in a canonical content order so the merge
result does not depend on argument order: the truncated runs' records are
compared in turn as sorted-key JSON lines, each encoded only up to the first
difference. This orders like the lines joined by newlines: json.dumps escapes
control characters, so "\\n" sorts below every character a line holds.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

from . import dsl
from .evolution import (
    SearchRecord,
    checkpoint_line,
    filter_factor_versions,
    load_checkpoints,
)
from .seeds import FactorRecord, make_record

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MergedRecord:
    """One aligned step of the merged stream; every factor name is keyed in
    all four maps, with values taken from exactly one source run."""

    step: int
    performance: dict[str, float]  # factor -> final_value
    quality: dict[str, float]  # factor -> mean_rankic
    expressions: dict[str, str]  # factor -> canonical expression text
    # factor -> the tree merge_runs decoded; neither written nor compared
    trees: dict[str, dsl.Expr] = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.performance.keys() == self.quality.keys() == self.expressions.keys() == self.trees.keys()):
            raise ValueError("merged maps must share the same factor names")


def _content_order(runs: list[list[SearchRecord]]) -> list[list[SearchRecord]]:
    """Stable sort of equal-length runs in the content order above: record i
    of a run is encoded once, and only if records 0..i-1 tie another run's."""
    keys: list[list[str]] = [[] for _ in runs]
    memo: dict = {}
    for i in range(len(runs[0])):
        for r in [r for r, key in enumerate(keys) if keys.count(key) > 1]:
            keys[r].append(checkpoint_line(runs[r][i], memo))
    return [runs[r] for r in sorted(range(len(runs)), key=keys.__getitem__)]


def merge_runs(
    runs: Sequence[Sequence[SearchRecord]], n_limit: int = 0, ratio: float = 1.0
) -> list[MergedRecord]:
    """Align, truncate, and max-merge already-loaded checkpoint streams."""
    if not runs:
        raise ValueError("need at least one run")
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must lie in (0, 1]")
    length = min(len(run) for run in runs)
    if n_limit > 1:
        length = min(length, n_limit)
    if ratio < 1.0:
        length = min(length, math.floor(length * ratio))
    if length < 1:
        raise ValueError("no aligned records remain after truncation")
    ordered = _content_order([list(run[:length]) for run in runs])
    merged: list[MergedRecord] = []
    for i in range(length):
        perf: dict[str, float] = {}
        qual: dict[str, float] = {}
        trees: dict[str, dsl.Expr] = {}
        for run in ordered:
            record = run[i]
            values = {
                name: float(stats["final_value"])
                for name, stats in record.performance.items()
            }
            pool = record.pool_map()
            for name in filter_factor_versions(values, pool):
                fv = values[name]
                ic = float(record.quality[name]["mean_rankic"])
                if name not in perf or fv > perf[name]:
                    perf[name] = fv
                    qual[name] = ic
                    trees[name] = pool[name].expr
                elif fv == perf[name] and ic > qual[name]:
                    # literal tie rule: quality updates, expression source stays
                    qual[name] = ic
        texts = {name: tree.text for name, tree in trees.items()}
        merged.append(MergedRecord(ordered[0][i].step, perf, qual, texts, trees))
    return merged


def aggregate_records(
    paths: Sequence[str], n_limit: int = 0, ratio: float = 1.0
) -> list[MergedRecord]:
    """Load checkpoint files and merge them (see merge_runs). The files share
    one memo, so each distinct pool entry is decoded, and each distinct
    expression text parsed, once per call."""
    if not paths:
        raise ValueError("need at least one checkpoint path")
    memo: dict = {}
    return merge_runs([load_checkpoints(path, memo) for path in paths], n_limit, ratio)


def pooled_library(merged: Sequence[MergedRecord]) -> list[FactorRecord]:
    """Factor records from the final merged step, deduplicated structurally.

    Structural duplicates under different names, found by their canonical
    expression text, keep the lexicographically first name; dropped aliases
    are logged. Records take the trees the merge decoded, so nothing is
    parsed or printed here.
    """
    if not merged:
        raise ValueError("empty merge")
    final = merged[-1]
    seen: dict[str, str] = {}
    records: list[FactorRecord] = []
    for name in sorted(final.expressions):
        canon = final.expressions[name]
        if canon in seen:
            logger.info("pooled alias %s duplicates %s", name, seen[canon])
            continue
        seen[canon] = name
        records.append(make_record(name, final.trees[name], "pooled", validated=True))
    return records


def merged_to_json(record: MergedRecord) -> dict:
    return {
        "step": record.step,
        "performance": record.performance,
        "quality": record.quality,
        "expressions": record.expressions,
    }


def save_merged(records: Sequence[MergedRecord], path: str) -> None:
    with open(path, "w") as handle:
        handle.writelines(json.dumps(merged_to_json(rec), sort_keys=True) + "\n" for rec in records)

