"""Initial factor library and the named, versioned factor record type.

Twelve classic price/return factors expressed in the DSL, instantiated per
legal window size. Names follow `[factor_name_part]_[window_size]_v[version]`
for generated factors; seeds use bare names like momentum_7 or rsi_14 (an
implicit version 1).

Expression notes: windows carry gross relatives r = p_t/p_{t-1}, so net
returns are sub(returns, 1.0) and log returns are log(returns). RSI is
written as 100 * G / (G + L), identical to 100 - 100/(1 + G/L) for L > 0 and
exactly 100 on gain-only windows thanks to safe division.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from . import dsl
from .dsl import Expr
from .jsonfields import INTEGER, OBJECTS, STRING, STRINGS, check, field_error

LIBRARY_SCHEMA = "evofactor/factor-library@1"

ORIGINS = ("seed", "mutated", "crossover", "remote", "pooled")

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_VERSION_RE = re.compile(r"^(?P<stem>[a-z0-9_]+)_v(?P<version>[0-9]+)$")
_WINDOWS = "|".join(map(str, dsl.ALLOWED_WINDOWS))
_WINDOW_RE = re.compile(rf"^(?P<base>[a-z0-9_]+)_(?P<window>{_WINDOWS})$")
_GENERATED_RE = re.compile(rf"^[a-z][a-z0-9_]*_({_WINDOWS})_v[0-9]+$")


def parse_name(name: str) -> tuple[str, int | None, int]:
    """Split a factor name into (base_name, window_token, version).

    The version suffix _vK and then a trailing legal window token are
    stripped; a missing version means 1. "momentum_comb_sharpe_ratio_14_v2"
    -> ("momentum_comb_sharpe_ratio", 14, 2); "log_return_1" -> ("log_return_1",
    None, 1).
    """
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid factor name {name!r}")
    version = 1
    stem = name
    vm = _VERSION_RE.match(stem)
    if vm:
        stem = vm.group("stem")
        version = int(vm.group("version"))
        if version < 1:
            raise ValueError(f"invalid version in {name!r}")
    window: int | None = None
    wm = _WINDOW_RE.match(stem)
    if wm:
        stem = wm.group("base")
        window = int(wm.group("window"))
    if not stem:
        raise ValueError(f"invalid factor name {name!r}")
    return stem, window, version


def make_name(base: str, window: int, version: int) -> str:
    return f"{base}_{window}_v{version}"


def is_generated_name(name: str) -> bool:
    """True when the name carries both a window token and a version suffix."""
    return _GENERATED_RE.match(name) is not None


@dataclass(frozen=True)
class FactorRecord:
    """A named factor: its expression plus lineage metadata. base_name,
    window and version follow from the name; the expression is validated."""

    name: str
    expr: Expr
    origin: str = "seed"
    parents: tuple[str, ...] = ()
    created_step: int = 0
    base_name: str = field(init=False)
    window: int | None = field(init=False, compare=False)
    version: int = field(init=False)

    def __post_init__(self) -> None:
        for key, value in zip(("base_name", "window", "version"), parse_name(self.name)):
            object.__setattr__(self, key, value)
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown origin {self.origin!r}")
        if self.origin == "crossover":
            if len(self.parents) != 2:
                raise ValueError("crossover records need exactly 2 parents")
            if self.version != 1:
                raise ValueError("crossover records restart at version 1")
            if "_comb_" not in self.base_name:
                raise ValueError("crossover base_name must contain '_comb_'")
        if len(self.parents) > 2:
            raise ValueError("at most 2 parents")
        dsl.validate_expr(self.expr)

    @property
    def expr_text(self) -> str:
        return self.expr.text


make_record = FactorRecord  # an alias, kept for callers that build records by this name


# ------------------------------------------------------------ seed factors


def _seed_exprs(w: int) -> dict[str, Expr]:
    """The ten window-parametric factors at window w."""
    return {
        f"mean_return_{w}": dsl.parse(f"last(ts_mean(sub(returns, 1.0), {w}))"),
        f"std_return_{w}": dsl.parse(f"last(ts_std(returns, {w}))"),
        f"momentum_{w}": dsl.parse(f"sub(div(last(prices), last(lag(prices, {w}))), 1.0)"),
        f"max_drawdown_{w}": dsl.parse(f"last(ts_drawdown(prices, {w}))"),
        f"sharpe_ratio_{w}": dsl.parse(
            f"div(last(ts_mean(sub(returns, 1.0), {w})), last(ts_std(returns, {w})))"
        ),
        f"volatility_{w}": dsl.parse(f"last(ts_std(log(returns), {w}))"),
        f"price_position_{w}": dsl.parse(
            f"div(sub(last(prices), last(ts_min(prices, {w}))),"
            f" sub(last(ts_max(prices, {w})), last(ts_min(prices, {w}))))"
        ),
        f"ma_{w}": dsl.parse(f"last(ts_mean(prices, {w}))"),
        f"bb_width_{w}": dsl.parse(
            f"div(mul(2.0, last(ts_std(prices, {w}))), last(ts_mean(prices, {w})))"
        ),
        f"ema_ratio_{w}": dsl.parse(f"div(last(prices), last(ts_ema(prices, {w})))"),
    }


def _fixed_seed_exprs() -> dict[str, Expr]:
    """Window-fixed factors: one-step log return and 14-step RSI."""
    gain = "last(ts_mean(max2(sub(returns, 1.0), 0.0), 14))"
    loss = "last(ts_mean(max2(sub(1.0, returns), 0.0), 14))"
    return {
        "log_return_1": dsl.parse("last(log(returns))"),
        "rsi_14": dsl.parse(f"mul(100.0, div({gain}, add({gain}, {loss})))"),
    }


def seed_factors(windows: tuple[int, ...] = dsl.ALLOWED_WINDOWS) -> list[FactorRecord]:
    """Instantiate the initial library over the given window subset."""
    if not windows:
        raise ValueError("need at least one window size")
    for w in windows:
        if w not in dsl.ALLOWED_WINDOWS:
            raise ValueError(f"window {w} not in allowed set {dsl.ALLOWED_WINDOWS}")
    records: list[FactorRecord] = []
    for w in windows:
        for name, expr in _seed_exprs(w).items():
            records.append(FactorRecord(name, expr))
    for name, expr in _fixed_seed_exprs().items():
        records.append(FactorRecord(name, expr))
    return records


# ------------------------------------------------------------ serialization


# A record's JSON document: its fields, and the kind the reader checks each one for.
_RECORD_FIELDS = {"name": STRING, "expr": STRING, "base_name": STRING, "version": INTEGER,
                  "origin": STRING, "parents": STRINGS, "created_step": INTEGER}


def record_to_json(record: FactorRecord) -> dict:
    doc = {key: getattr(record, key) for key in _RECORD_FIELDS}
    return doc | {"expr": record.expr_text, "parents": list(record.parents)}


def json_to_record(doc: dict, memo: dict | None = None) -> FactorRecord:
    """The record a record_to_json document describes. memo maps a document
    decoded with it, by its fields and the types that == does not tell apart,
    to its record, and an expression text to its tree: a repeated document is
    decoded, and a repeated text parsed, once per memo."""
    memo = {} if memo is None else memo
    try:
        version, parents, step = doc["version"], doc["parents"], doc["created_step"]
        key = (doc["name"], doc["expr"], doc["base_name"], version, doc["origin"],
               tuple(parents), step, type(version), type(parents), type(step))
        return memo[key]
    except (KeyError, TypeError):  # not decoded yet, or check rejects it
        pass
    check(doc, _RECORD_FIELDS)  # so every field is there, and key is hashable
    text = doc["expr"]
    if text not in memo:
        try:
            memo[text] = dsl.parse(text)
        except ValueError as exc:
            raise field_error("expr", text, f"a valid expression: {exc}") from None
    record = FactorRecord(doc["name"], memo[text], doc["origin"], tuple(doc["parents"]), doc["created_step"])
    for name in ("base_name", "version"):
        if doc[name] != getattr(record, name):
            raise ValueError(f"{name} {doc[name]!r} does not match name {doc['name']!r}")
    memo[key] = record
    return record


def save_library(records: list[FactorRecord], path: str) -> None:
    doc = {
        "schema": LIBRARY_SCHEMA,
        "factors": [record_to_json(r) for r in records],
    }
    with open(path, "w") as handle:  # one dumps call runs the C encoder; json.dump never does
        handle.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


_LIBRARY_FIELDS = {"schema": (repr(LIBRARY_SCHEMA), lambda v: v == LIBRARY_SCHEMA), "factors": OBJECTS}


def load_library(path: str) -> list[FactorRecord]:
    """The library's factors in file order. A bad field or a repeated name
    fails naming the path and the factor's index; no factors, the path."""
    records, where = {}, f"{path}:"
    try:
        with open(path) as handle:
            doc = json.load(handle)
        for i, item in enumerate(check(doc, _LIBRARY_FIELDS)["factors"]):
            where = f"{path}: factor {i}"
            record = json_to_record(item)
            if records.setdefault(record.name, record) is not record:
                raise ValueError(f"duplicate factor name {record.name!r}")
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None
    if not records:
        raise ValueError(f"{path}: empty factor pool")
    return list(records.values())
