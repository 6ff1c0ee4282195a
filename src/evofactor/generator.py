"""Candidate factor generation: remote LLM client and offline mutation engine.

Both paths satisfy one contract: given a GenerationRequest describing the
current factor pool (names, expressions, metric summaries — never asset ids,
dates, or prices), produce up to M new FactorRecords whose expressions parse
under the DSL. The offline engine is a deterministic stand-in driven purely
by (pool, seed), exercising the same mutation/crossover action space the
prompt offers the model.
"""

from __future__ import annotations

import ast
import json
import logging
import math
import os
import re
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import dsl, metrics
from .seeds import FactorRecord, is_generated_name, make_name, make_record, parse_name

logger = logging.getLogger(__name__)

DEFAULT_API_KEY_ENV = "EVOFACTOR_API_KEY"

SYSTEM_PROMPT = """You are a quantitative factor researcher. You evolve alpha factors written
in a small expression language evaluated on one asset's trailing window of
normalized prices and gross returns (r = p_t / p_{t-1}).

GRAMMAR (prefix calls only):
  features: prices, returns          constants: float literals
  unary:  abs(x), log(x), neg(x), sign(x), sqrt_abs(x)
  binary: add(a,b), sub(a,b), mul(a,b), div(a,b), min2(a,b), max2(a,b)
  series: ts_sum(x,w), ts_mean(x,w), ts_std(x,w), ts_min(x,w), ts_max(x,w),
          ts_ema(x,w), ts_delta(x,w), ts_rank_pos(x,w), ts_drawdown(x,w),
          ts_argmax_recency(x,w), lag(x,w), last(x)
  window_size w can only be the following value: 3, 7, 14, 21.

FACTOR NAME RULES:
  Use the format [factor_name_part]_[window_size]_v[version number],
  for example: momentum_7_v3.

ACTION SPACE:
  1. Mutation: modify one existing factor by changing parameters
     (e.g. window size, constants) or adjusting its logic. Keep the base
     name and increase 1 to version number (momentum_7_v2 -> momentum_7_v3).
  2. Crossover: combine two existing factors into a new one. Use the name
     like: factor1_comb_factor2 (e.g. breakout_comb_meanrevert_21_v1) and
     restart version number from v1.

REQUIREMENTS:
  - Expressions must be valid under the grammar above; handle edge cases
    (short series, flat windows) -- undefined arithmetic scores 0.
  - Do not request data beyond the provided window features.
  - Output ONLY a JSON list of strings, each "name = expression", e.g.
    ["momentum_7_v2 = sub(div(last(prices), last(lag(prices, 7))), 1.0)"]
"""


@dataclass(frozen=True)
class TopFactor:
    """One pool factor with its recent metric summaries for the prompt."""

    record: FactorRecord
    performance: dict[str, float]
    quality: dict[str, float]


@dataclass(frozen=True)
class GenerationRequest:
    """Pool view handed to a generator: prompt material plus the full pool
    snapshot (for version bookkeeping and lineage inference)."""

    step: int
    top_factors: tuple[TopFactor, ...]
    library_factors: tuple[FactorRecord, ...]
    m_candidates: int
    recall_n: int  # the run's EvolutionConfig.recall_n: the prompt's recall@N columns
    pool_records: tuple[FactorRecord, ...] = ()
    rng_seed: int | None = None


@dataclass(frozen=True)
class GenerationResult:
    candidates: tuple[FactorRecord, ...]
    attempts: int
    transport_log: tuple[dict, ...]


class TransportError(RuntimeError):
    """Remote endpoint unreachable or returned garbage."""


# ------------------------------------------------------------------ prompts


def _format_table(names: Sequence[str], rows: Sequence[Mapping[str, float]], columns: Sequence[str]) -> str:
    width = max([len("factor")] + [len(n) for n in names]) if names else len("factor")
    header = "factor".ljust(width) + "".join(c.rjust(16) for c in columns)
    lines = [header]
    for name, row in zip(names, rows):
        cells = "".join(f"{row.get(c, 0.0):16.5f}" for c in columns)
        lines.append(name.ljust(width) + cells)
    return "\n".join(lines)


def build_prompt(req: GenerationRequest) -> dict[str, str]:
    """Render the system and user messages for one generation call."""
    parts: list[str] = []
    evolved = [tf.record for tf in req.top_factors if tf.record.origin != "seed"]
    sections = (("Existing Library Factors:", req.library_factors), ("Previously Generated Factors:", evolved))
    for title, records in sections:
        if records:
            parts += [title, *(f"  {rec.name}: {rec.expr_text}" for rec in records), ""]
    if req.top_factors:
        names = [tf.record.name for tf in req.top_factors]
        parts.append("Recent Performance Metrics:")
        tables = (("performance", metrics.PERFORMANCE_COLUMNS), ("quality", metrics.quality_columns(req.recall_n)))
        for key, columns in tables:
            parts += [_format_table(names, [getattr(tf, key) for tf in req.top_factors], columns), ""]
    parts.append(
        f"Generate {req.m_candidates} new factors by mutation or crossover of the"
        " factors above. Remember: output ONLY a JSON list of"
        ' "name = expression" strings.'
    )
    return {"system": SYSTEM_PROMPT, "user": "\n".join(parts)}


# A whole number: an ASCII digit run with no digit or "." on either side.
_WHOLE_NUMBER = re.compile(r"(?<![0-9.])[0-9]+(?![0-9.])")
MIN_LEAK_LEN = 3  # shorter forbidden tokens are too common in any text to flag


class ForbiddenTokens:
    """Forbidden tokens split once by how `scan_for_leakage` matches them.

    ASCII digit tokens are looked up among the text's whole numbers, other
    digit tokens (superscripts, non-Latin digits) keep a bounded pattern, and
    the rest are plain substrings. Build it once to scan many texts.
    """

    def __init__(self, tokens: Iterable[str]) -> None:
        self.numbers: set[str] = set()
        self.patterns: list[tuple[str, re.Pattern[str]]] = []
        self.substrings: list[str] = []
        for token in set(tokens):
            if token.isascii() and token.isdigit():
                self.numbers.add(token)
            elif token.isdigit():
                bounded = r"(?<![0-9.])" + re.escape(token) + r"(?![0-9.])"
                self.patterns.append((token, re.compile(bounded)))
            else:
                self.substrings.append(token)


def scan_for_leakage(text: str, forbidden: Iterable[str]) -> list[str]:
    """Return forbidden tokens (asset ids, dates) appearing in the text.

    Pure-digit tokens only count when not embedded in a longer number, so
    metric digits like 0.00050 do not flag the date string 00050. Pass a
    ForbiddenTokens to skip re-splitting the tokens; the text is read once
    for all ASCII digit tokens.
    """
    tokens = forbidden if isinstance(forbidden, ForbiddenTokens) else ForbiddenTokens(forbidden)
    found = tokens.numbers.intersection(_WHOLE_NUMBER.findall(text))
    found.update(tok for tok, pattern in tokens.patterns if pattern.search(text))
    found.update(tok for tok in tokens.substrings if tok in text)
    return sorted(tok for tok in found if len(tok) >= MIN_LEAK_LEN)


# ------------------------------------------------------- response handling


def _first_bracketed_list(text: str) -> str | None:
    start = text.find("[")
    while start != -1:
        depth = 0
        for i in range(start, len(text)):
            if text[i] == "[":
                depth += 1
            elif text[i] == "]":
                depth -= 1
                if depth == 0:
                    return text[start : i + 1]
        start = text.find("[", start + 1)
    return None


def parse_response(text: str) -> list[tuple[str, str]]:
    """Extract (name, expression) pairs from a model response.

    Tolerates surrounding prose: the first balanced bracketed list is taken,
    decoded as JSON, then as a Python literal, then by pulling quoted
    strings. Each item must look like "name = expression".
    """
    block = _first_bracketed_list(text)
    if block is None:
        return []
    items: list[str] = []
    for decoder in (json.loads, ast.literal_eval):
        try:
            decoded = decoder(block)
        except (ValueError, SyntaxError):
            continue
        if isinstance(decoded, list) and all(isinstance(x, str) for x in decoded):
            items = list(decoded)
            break
    if not items:
        items = re.findall(r'"([^"]+)"', block)
    pairs: list[tuple[str, str]] = []
    for item in items:
        if "=" not in item:
            continue
        name, expr_text = item.split("=", 1)
        pairs.append((name.strip(), expr_text.strip()))
    return pairs


def _infer_lineage(
    name: str, pool: Mapping[str, FactorRecord]
) -> tuple[str, tuple[str, ...]]:
    """Best-effort origin/parents for a model-named candidate."""
    base, window, version = parse_name(name)
    by_base: dict[str, list[FactorRecord]] = {}
    for rec in pool.values():
        by_base.setdefault(rec.base_name, []).append(rec)
    if "_comb_" in base:
        parts = base.split("_comb_")
        parents = []
        for part in parts[:2]:
            candidates = by_base.get(part, [])
            if candidates:
                best = max(candidates, key=lambda r: (r.version, r.name))
                parents.append(best.name)
            else:
                parents.append(part)
        return "crossover", tuple(parents)
    candidates = [r for r in by_base.get(base, []) if r.version < version]
    if candidates:
        parent = max(candidates, key=lambda r: (r.version, r.name))
        return "mutated", (parent.name,)
    return "mutated", ()


def candidate_record(
    name: str, expr_text: str, pool: Mapping[str, FactorRecord], step: int
) -> FactorRecord:
    """Build a validated-by-construction record from raw generator output."""
    if not is_generated_name(name):
        raise ValueError(f"name {name!r} violates the naming convention")
    expr = dsl.parse(expr_text)
    origin, parents = _infer_lineage(name, pool)
    return make_record(name, expr, origin, parents, created_step=step, validated=True)


# ----------------------------------------------------------- validation


def _smoke_battery() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(90210)
    relatives = np.exp(rng.normal(0.0005, 0.02, size=(50, 30)))
    prices = 100.0 * np.cumprod(relatives, axis=1)
    return prices, relatives


_SMOKE_PRICES, _SMOKE_RETURNS = _smoke_battery()


def validate_candidate(
    record: FactorRecord, pool: Mapping[str, FactorRecord]
) -> tuple[bool, str]:
    """Accept or reject a structurally parsed candidate against the pool.

    Rejection is a value: (False, reason). Checks name convention, name and
    expression collisions, and non-constant scores on a 50-window smoke
    battery. A FactorRecord validates its expression and the evaluator
    scrubs scores to finite values, so an evaluator error is a bug.
    """
    if not is_generated_name(record.name):
        return False, f"name {record.name!r} violates the naming convention"
    if record.name in pool:
        return False, f"name collision with existing {record.name!r}"
    text = record.expr_text
    for other in pool.values():
        if other.expr_text == text:
            return False, f"duplicate expression of {other.name!r}"
    scores = dsl.evaluate_cross_section(record.expr, _SMOKE_PRICES, _SMOKE_RETURNS)
    if np.unique(scores[:16]).size < 2:
        return False, "degenerate cross-section (constant scores)"
    return True, "ok"


# ------------------------------------------------------------ offline path


def _op_positions(expr: dsl.Expr) -> dict[type, list[int]]:
    """Preorder positions of the nodes a mutation can edit, by node class."""
    spots: dict[type, list[int]] = {k: [] for k in (dsl.TimeSeries, dsl.Const, dsl.Unary, dsl.Binary)}
    for pos, node in enumerate(dsl.iter_nodes(expr)):
        if type(node) in spots:
            spots[type(node)].append(pos)
    return spots


def _pick(rng: np.random.Generator, items: Sequence):
    return items[int(rng.integers(len(items)))]


def _name_window(record: FactorRecord, expr: dsl.Expr) -> int:
    if record.window is not None:
        return record.window
    windows = dsl.windows_in(expr)
    return max(windows) if windows else 3


def _next_version(base: str, window: int, start: int, taken: set[str]) -> str:
    version = start
    while make_name(base, window, version) in taken:
        version += 1
    return make_name(base, window, version)


def _parameter_mutation(
    rng: np.random.Generator, record: FactorRecord
) -> dsl.Expr | None:
    spots = _op_positions(record.expr)
    if spots[dsl.TimeSeries]:
        pos = _pick(rng, spots[dsl.TimeSeries])
        node = dsl.subtree_at(record.expr, pos)
        choices = [w for w in dsl.ALLOWED_WINDOWS if w != node.window]
        return dsl.replace_at(record.expr, pos, replace(node, window=_pick(rng, choices)))
    if spots[dsl.Const]:
        pos = _pick(rng, spots[dsl.Const])
        node = dsl.subtree_at(record.expr, pos)
        factor = float(rng.uniform(0.5, 2.0))
        return dsl.replace_at(record.expr, pos, dsl.Const(node.value * factor))
    return None


def _operator_mutation(rng: np.random.Generator, record: FactorRecord) -> dsl.Expr:
    """Swap one call's op for another op of the same node class."""
    spots = _op_positions(record.expr)
    classes = [k for k in (dsl.Unary, dsl.Binary, dsl.TimeSeries) if spots[k]]
    if not classes:
        op = _pick(rng, dsl.UNARY_OPS)
        return dsl.Unary(op, record.expr)
    kind = _pick(rng, classes)
    pos = _pick(rng, spots[kind])
    node = dsl.subtree_at(record.expr, pos)
    op = _pick(rng, [o for o, cls in dsl.OP_CLASSES.items() if cls is kind and o != node.op])
    return dsl.replace_at(record.expr, pos, replace(node, op=op))


def _crossover(
    rng: np.random.Generator, a: FactorRecord, b: FactorRecord
) -> dsl.Expr | None:
    for _ in range(8):
        pos_a = int(rng.integers(dsl.count_nodes(a.expr)))
        pos_b = int(rng.integers(dsl.count_nodes(b.expr)))
        child = dsl.replace_at(a.expr, pos_a, dsl.subtree_at(b.expr, pos_b))
        try:
            dsl.validate_expr(child)  # subtrees of valid trees fail only the size caps
        except dsl.ExprError:
            continue
        return child
    return None


def generate_offline(req: GenerationRequest) -> GenerationResult:
    """Deterministic mutation/crossover engine; pure function of pool+seed.

    Action per slot round-robins parameter mutation, operator mutation,
    crossover. Mutations bump to the next unused version of the parent's
    base+window; crossover names restart at v1 and duplicates are left for
    validation to reject.
    """
    if req.rng_seed is None:
        raise ValueError("offline generation needs rng_seed")
    rng = np.random.default_rng(np.random.SeedSequence([req.rng_seed, req.step]))
    parents_pool = {rec.name: rec for rec in req.library_factors}
    for tf in req.top_factors:
        parents_pool.setdefault(tf.record.name, tf.record)
    ordered = [parents_pool[name] for name in sorted(parents_pool)]
    if not ordered:
        return GenerationResult((), 1, ({"attempt": 1, "error": "empty pool"},))
    taken = {rec.name for rec in req.pool_records} | set(parents_pool)
    out: list[FactorRecord] = []
    log: list[dict] = []
    for slot in range(req.m_candidates):
        action = ("param", "operator", "crossover")[slot % 3]
        parent = _pick(rng, ordered)
        expr: dsl.Expr | None = None
        origin = "mutated"
        parents: tuple[str, ...] = (parent.name,)
        name = ""
        if action == "crossover" and len(ordered) >= 2:
            mate = _pick(rng, [r for r in ordered if r.name != parent.name])
            expr = _crossover(rng, parent, mate)
            if expr is not None:
                origin = "crossover"
                parents = (parent.name, mate.name)
                base = f"{parent.base_name}_comb_{mate.base_name}"
                window = max(_name_window(parent, expr), _name_window(mate, expr))
                name = make_name(base, window, 1)
        if expr is None:
            if action == "param":
                expr = _parameter_mutation(rng, parent)
            if expr is None:
                expr = _operator_mutation(rng, parent)
            origin = "mutated"
            parents = (parent.name,)
            name = _next_version(
                parent.base_name, _name_window(parent, expr), parent.version + 1, taken
            )
        try:
            record = make_record(name, expr, origin, parents, created_step=req.step)
        except ValueError as exc:  # dsl.ExprError included
            log.append({"slot": slot, "action": action, "rejected": str(exc)})
            continue
        taken.add(name)
        out.append(record)
        log.append({"slot": slot, "action": action, "name": name})
    return GenerationResult(tuple(out), 1, tuple(log))


# ------------------------------------------------------------- remote path


@dataclass(frozen=True)
class GeneratorConfig:
    """Remote endpoint settings; the API key comes from the environment."""

    endpoint: str = ""
    model: str = ""
    temperature: float = 0.7
    max_retries: int = 3
    min_valid: int | None = None  # defaults to ceil(M/2)
    timeout: float = 60.0
    api_key_env: str = DEFAULT_API_KEY_ENV
    audit_log: str = ""  # "" keeps no audit log

    def __post_init__(self) -> None:
        # Each rule holds for valid values, so NaN fails it.
        rules = (
            ("temperature", 0.0 <= self.temperature < math.inf, "must be finite and >= 0"),
            ("max_retries", self.max_retries >= 1, "must be >= 1"),
            ("min_valid", self.min_valid is None or self.min_valid >= 1, "must be >= 1"),
            ("timeout", self.timeout > 0.0, "must be positive"),
        )
        for key, ok, rule in rules:
            if not ok:
                raise ValueError(f"config key {key}={getattr(self, key)!r} {rule}")

    def min_valid_for(self, m_candidates: int) -> int:
        """Parsed candidates that accept a batch of m_candidates; a min_valid
        above the batch size fails, naming the key."""
        need = math.ceil(m_candidates / 2) if self.min_valid is None else self.min_valid
        if need > m_candidates:
            raise ValueError(f"config key min_valid={need} exceeds m_candidates={m_candidates}")
        return need


Transport = Callable[[str, str], str]


def http_transport(cfg: GeneratorConfig) -> Transport:
    """Minimal JSON-over-HTTP chat call: system+user in, text out. Needs
    the API key, an endpoint and a model."""
    key = os.environ.get(cfg.api_key_env, "")
    if not key:
        raise TransportError(f"API key env var {cfg.api_key_env} is not set")
    for name in ("endpoint", "model"):
        if not getattr(cfg, name):
            raise ValueError(f"config key {name}='' must be set for remote generation")
    import requests

    def call(system: str, user: str) -> str:
        payload = {
            "model": cfg.model,
            "temperature": cfg.temperature,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        try:
            resp = requests.post(
                cfg.endpoint,
                json=payload,
                headers={"Authorization": f"Bearer {key}"},
                timeout=cfg.timeout,
            )
            resp.raise_for_status()
            doc = resp.json()
            return doc["choices"][0]["message"]["content"]
        except Exception as exc:  # noqa: BLE001 - uniform transport failure
            raise TransportError(str(exc)) from exc

    return call


def _audit(cfg: GeneratorConfig, entry: dict) -> None:
    if not cfg.audit_log:
        return
    with open(cfg.audit_log, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def generate_remote(
    req: GenerationRequest,
    cfg: GeneratorConfig,
    transport: Transport,
) -> GenerationResult:
    """Query the endpoint through transport, retrying until enough candidates parse.

    A batch is accepted when at least min_valid (default ceil(M/2)) of its
    items parse into convention-respecting records; malformed items are
    dropped individually. Total failure returns an empty result so the
    evolution loop can log and proceed.
    """
    min_valid = cfg.min_valid_for(req.m_candidates)
    pool = {rec.name: rec for rec in req.pool_records}
    prompt = build_prompt(req)
    log: list[dict] = []
    for attempt in range(1, cfg.max_retries + 1):
        entry: dict = {"step": req.step, "attempt": attempt}
        try:
            text = transport(prompt["system"], prompt["user"])
        except TransportError as exc:
            entry.update({"error": str(exc), "accepted": False})
            log.append(entry)
            _audit(cfg, {**entry, "system": prompt["system"], "user": prompt["user"]})
            continue
        pairs = parse_response(text)
        candidates: list[FactorRecord] = []
        rejects = 0
        for name, expr_text in pairs:
            try:
                candidates.append(candidate_record(name, expr_text, pool, req.step))
            except (ValueError, dsl.ExprError):
                rejects += 1
        accepted = len(candidates) >= min_valid
        entry.update(
            {"n_raw": len(pairs), "n_valid": len(candidates), "rejects": rejects, "accepted": accepted}
        )
        log.append(entry)
        _audit(
            cfg,
            {**entry, "system": prompt["system"], "user": prompt["user"], "response": text},
        )
        if accepted:
            return GenerationResult(tuple(candidates), attempt, tuple(log))
    logger.warning("generation failed after %d attempts at step %d", cfg.max_retries, req.step)
    return GenerationResult((), cfg.max_retries, tuple(log))
