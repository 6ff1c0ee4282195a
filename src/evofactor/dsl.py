"""Factor expression trees: grammar, parser, printer and evaluator.

Expressions are small prefix-notation trees over two features (`prices`,
`returns`, each a trailing window of length T) plus float constants, e.g.

    sub(div(last(prices), ts_mean(prices, 7)), 1.0)

Every node evaluates to a full length-T vector (constants and `last`
broadcast), and the root is coerced to a scalar by taking the final element.
Time-series operators work on trailing windows of their child's vector; the
series is treated as flat before its first element (edge padding, and `lag`
clamps to the first element), so every position is defined without NaN.

All arithmetic is total: division by ~0 and log of a non-positive value
yield the neutral score 0.0, and any NaN/inf produced by overflow is
scrubbed to 0.0 at the node boundary. Window lengths are restricted to the
whitelist {3, 7, 14, 21}; trees are capped at depth 12 and 64 nodes.

Windows are reduced across columns: `_eval_ts` views the padded child as
(n, window, steps), so each op reduces whole (n, steps) columns rather than
one short window at a time. `_window_sum` adds them in numpy's own order for
a short axis, so scores keep the bits of a per-window reduction (a property
test pins this on the installed numpy).

Panel form: `evaluate_panel` evaluates a tree once over an (n_assets, steps)
span, with `last` taken as the identity, and reads column j as the score of
the step ending at column j. Every operator is causal, so this equals the
windowed score of that step whenever the span holds the step's whole window
and two static conditions hold on the tree (`panel_equivalent`):

  (a) its receptive field fits the window: `receptive_field(expr) <=
      lookback`, where a leaf reads 1 column, a windowed op adds window-1
      and `lag`/`ts_delta` add window;
  (b) no `last` has a time-series ancestor, so every `last` is only ever
      read at the window's final position, where it is the identity.

Under (a) the final position never reaches the edge padding, so a window
and a longer span ending on the same column give bit-identical scores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import ClassVar, Iterator, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FEATURES = ("prices", "returns")
TS_OPS = (
    "ts_sum",
    "ts_mean",
    "ts_std",
    "ts_min",
    "ts_max",
    "ts_ema",
    "ts_delta",
    "ts_rank_pos",
    "ts_drawdown",
    "ts_argmax_recency",
    "lag",
)
ALLOWED_WINDOWS = (3, 7, 14, 21)
MAX_DEPTH = 12
MAX_NODES = 64

_DIV_EPS = 1e-12


def _safe_log(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, np.log(np.where(x > 0.0, x, 1.0)), 0.0)


def _safe_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ok = np.abs(b) >= _DIV_EPS
    return np.where(ok, a / np.where(ok, b, 1.0), 0.0)


# The operator tables: op name -> numpy function applied to the evaluated
# children. Time-series ops are evaluated by _eval_ts.
_UNARY = {
    "abs": np.abs,
    "log": _safe_log,
    "neg": np.negative,
    "sign": np.sign,
    "sqrt_abs": lambda x: np.sqrt(np.abs(x)),
}
_BINARY = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": _safe_div,
    "min2": np.minimum,
    "max2": np.maximum,
}
UNARY_OPS = tuple(_UNARY)
BINARY_OPS = tuple(_BINARY)
_APPLY = {**_UNARY, **_BINARY}


class ExprError(ValueError):
    """Raised for structurally invalid expressions."""


class ParseError(ExprError):
    """Raised when expression text cannot be parsed."""


@dataclass(frozen=True)
class Feature:
    name: str  # "prices" or "returns"


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Unary:
    op: str
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class TimeSeries:
    op: str
    child: "Expr"
    window: int


@dataclass(frozen=True)
class Last:
    child: "Expr"
    op: ClassVar[str] = "last"


Expr = Union[Feature, Const, Unary, Binary, TimeSeries, Last]

# The grammar: every call name and the node class it builds. Parse, print,
# validate, rebuild, evaluate and the offline mutator all read these tables.
OP_CLASSES: dict[str, type] = {
    **dict.fromkeys(UNARY_OPS, Unary),
    **dict.fromkeys(BINARY_OPS, Binary),
    **dict.fromkeys(TS_OPS, TimeSeries),
    "last": Last,
}


# ---------------------------------------------------------------- structure


def children(expr: Expr) -> tuple[Expr, ...]:
    if isinstance(expr, (Feature, Const)):
        return ()
    if isinstance(expr, (Unary, TimeSeries, Last)):
        return (expr.child,)
    if isinstance(expr, Binary):
        return (expr.left, expr.right)
    raise TypeError(f"not an expression node: {expr!r}")


def iter_nodes(expr: Expr) -> Iterator[Expr]:
    """Preorder traversal."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def count_nodes(expr: Expr) -> int:
    return sum(1 for _ in iter_nodes(expr))


def depth(expr: Expr) -> int:
    kids = children(expr)
    if not kids:
        return 1
    return 1 + max(depth(k) for k in kids)


def windows_in(expr: Expr) -> tuple[int, ...]:
    """Window lengths appearing in the tree, in preorder."""
    return tuple(n.window for n in iter_nodes(expr) if isinstance(n, TimeSeries))


def subtree_at(expr: Expr, pos: int) -> Expr:
    """Return the subtree at preorder position pos (root is 0)."""
    for i, node in enumerate(iter_nodes(expr)):
        if i == pos:
            return node
    raise IndexError(f"no node at position {pos}")


def replace_at(expr: Expr, pos: int, replacement: Expr) -> Expr:
    """Rebuild the tree with the node at preorder position pos swapped out."""
    if pos == 0:
        return replacement
    kids = list(children(expr))
    offset = 1
    for i, kid in enumerate(kids):
        size = count_nodes(kid)
        if offset <= pos < offset + size:
            kids[i] = replace_at(kid, pos - offset, replacement)
            if isinstance(expr, Binary):
                return replace(expr, left=kids[0], right=kids[1])
            return replace(expr, child=kids[0])
        offset += size
    raise IndexError(f"no node at position {pos}")


def validate_expr(expr: Expr) -> None:
    """Check structural invariants; raises ExprError on violation."""
    n = 0
    for node in iter_nodes(expr):
        n += 1
        if isinstance(node, Feature):
            if node.name not in FEATURES:
                raise ExprError(f"unknown feature {node.name!r}")
        elif isinstance(node, Const):
            if not np.isfinite(node.value):
                raise ExprError(f"non-finite constant {node.value!r}")
        elif OP_CLASSES.get(op := getattr(node, "op", None)) is not type(node):
            raise ExprError(f"unknown {type(node).__name__} op {op!r}")
        elif isinstance(node, TimeSeries) and node.window not in ALLOWED_WINDOWS:
            raise ExprError(f"window {node.window} not in allowed set {ALLOWED_WINDOWS}")
    if n > MAX_NODES:
        raise ExprError(f"expression has {n} nodes, cap is {MAX_NODES}")
    d = depth(expr)
    if d > MAX_DEPTH:
        raise ExprError(f"expression depth {d} exceeds cap {MAX_DEPTH}")


# ------------------------------------------------------------ parse / print


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[a-z_][a-z0-9_]*)"
    r"|(?P<punct>[(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        if match.lastgroup is not None:
            tokens.append((match.lastgroup, match.group(match.lastgroup), match.start()))
        pos = match.end()
    return tokens


def parse(text: str) -> Expr:
    """Parse canonical expression text; validates structure on the way out."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    index = [0]

    def peek() -> tuple[str, str, int] | None:
        return tokens[index[0]] if index[0] < len(tokens) else None

    def take(kind: str | None = None, value: str | None = None) -> tuple[str, str, int]:
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind} at position {tok[2]}, got {tok[1]!r}")
        if value is not None and tok[1] != value:
            raise ParseError(f"expected {value!r} at position {tok[2]}, got {tok[1]!r}")
        index[0] += 1
        return tok

    def parse_window() -> int:
        tok = take("num")
        try:
            window = int(tok[1])
        except ValueError:
            raise ParseError(f"window must be an integer, got {tok[1]!r}") from None
        if window not in ALLOWED_WINDOWS:
            raise ParseError(
                f"window {window} not in allowed set {ALLOWED_WINDOWS}"
            )
        return window

    def parse_expr() -> Expr:
        tok = take()
        kind, value, at = tok
        if kind == "num":
            return Const(float(value))
        if kind != "name":
            raise ParseError(f"unexpected token {value!r} at position {at}")
        if value in FEATURES:
            return Feature(value)
        node_type = OP_CLASSES.get(value)
        if node_type is None:
            raise ParseError(f"unknown operator {value!r} at position {at}")
        take("punct", "(")
        args: list = [parse_expr()]
        if node_type is Binary:
            take("punct", ",")
            args.append(parse_expr())
        elif node_type is TimeSeries:
            take("punct", ",")
            args.append(parse_window())
        take("punct", ")")
        return Last(*args) if node_type is Last else node_type(value, *args)

    expr = parse_expr()
    if peek() is not None:
        tok = peek()
        raise ParseError(f"trailing input at position {tok[2]}: {tok[1]!r}")  # type: ignore[index]
    validate_expr(expr)
    return expr


def print_expr(expr: Expr) -> str:
    """Canonical text form; parse(print_expr(e)) reproduces e exactly."""
    if isinstance(expr, Feature):
        return expr.name
    if isinstance(expr, Const):
        return repr(float(expr.value))
    args = [print_expr(kid) for kid in children(expr)]
    if isinstance(expr, TimeSeries):
        args.append(str(expr.window))
    return f"{expr.op}({', '.join(args)})"


# ----------------------------------------------------------------- evaluate


def _scrub(values: np.ndarray) -> np.ndarray:
    # Neutral-zero policy: overflow and undefined arithmetic must not leak.
    if not np.all(np.isfinite(values)):
        values = np.nan_to_num(values, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
    return values


def _lag_index(steps: int, window: int) -> np.ndarray:
    return np.maximum(np.arange(steps) - window, 0)


def _window_sum(terms: np.ndarray) -> np.ndarray:
    """Sum (n, window, steps) terms over axis 1 in the order numpy reduces a
    short window axis: left to right under 8 terms, else eight interleaved
    partial sums, paired ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail
    left to right. Window sums and moments thus keep numpy's bits."""
    window = terms.shape[1]
    head = window - window % 8
    if head:
        lanes = terms[:, :8].copy()
        for k in range(8, head, 8):
            lanes += terms[:, k : k + 8]
        r = np.moveaxis(lanes, 1, 0)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    else:
        total, head = terms[:, 0].copy(), 1
    for k in range(head, window):
        total += terms[:, k]
    return total


def _eval_ts(op: str, child: np.ndarray, window: int) -> np.ndarray:
    steps = child.shape[1]
    if op == "lag":
        return child[:, _lag_index(steps, window)]
    if op == "ts_delta":
        return child - child[:, _lag_index(steps, window)]
    pad = np.concatenate([np.repeat(child[:, :1], window - 1, axis=1), child], axis=1)
    if op == "ts_ema":
        alpha = 2.0 / (window + 1.0)
        coef = alpha * (1.0 - alpha) ** np.arange(window - 1, -1, -1, dtype=np.float64)
        coef[0] = (1.0 - alpha) ** (window - 1)  # recursion seeded at the oldest value
        return sliding_window_view(pad, window, axis=1) @ coef
    if op == "ts_argmax_recency":
        # Last index attaining the window max, scaled to (0, 1].
        win = sliding_window_view(pad, window, axis=1)
        from_end = np.argmax(win[..., ::-1], axis=-1)
        return (window - from_end).astype(np.float64) / window
    stack = sliding_window_view(pad, steps, axis=1)  # [:, k]: k-th oldest of each window
    if op == "ts_sum":
        return _window_sum(stack)
    if op == "ts_mean":
        return _window_sum(stack) / window
    if op == "ts_std":
        # population std, matches the seed formulas; numpy's _var order
        dev = stack - (_window_sum(stack) / window)[:, None]
        dev *= dev
        return np.sqrt(_window_sum(dev) / window)
    if op == "ts_min":
        return stack.min(axis=1)
    if op == "ts_max":
        return stack.max(axis=1)
    if op == "ts_rank_pos":
        last = stack[:, -1:]
        less = (stack < last).sum(axis=1)
        equal = (stack == last).sum(axis=1)
        return (less + 0.5 * (equal - 1)) / (window - 1)
    if op == "ts_drawdown":
        peak = stack[:, 0].copy()
        worst = np.zeros_like(peak)
        for k in range(1, window):
            np.maximum(peak, stack[:, k], out=peak)
            ok = np.abs(peak) >= _DIV_EPS
            dd = np.where(ok, (stack[:, k] - peak) / np.where(ok, peak, 1.0), 0.0)
            np.minimum(worst, dd, out=worst)
        return worst
    raise ExprError(f"unknown time-series op {op!r}")


def _eval(
    expr: Expr, prices: np.ndarray, returns: np.ndarray, panel: bool = False
) -> np.ndarray:
    if isinstance(expr, Feature):
        return prices if expr.name == "prices" else returns
    if isinstance(expr, Const):
        return np.full(prices.shape, float(expr.value))
    args = [_eval(kid, prices, returns, panel) for kid in children(expr)]
    if isinstance(expr, TimeSeries):
        return _scrub(_eval_ts(expr.op, args[0], expr.window))
    if isinstance(expr, Last):
        return args[0] if panel else np.repeat(args[0][:, -1:], prices.shape[1], axis=1)
    return _scrub(_APPLY[expr.op](*args))


def _eval_span(expr: Expr, prices: np.ndarray, returns: np.ndarray, panel: bool) -> np.ndarray:
    prices = np.asarray(prices, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    if prices.shape != returns.shape or prices.ndim != 2:
        raise ValueError("prices and returns must share an (n, steps) shape")
    # Overflow and invalid operations are scrubbed to 0 by policy, so the
    # corresponding numpy warnings are noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _eval(expr, prices, returns, panel)


def evaluate_cross_section(
    expr: Expr, prices: np.ndarray, returns: np.ndarray
) -> np.ndarray:
    """Evaluate one expression over stacked asset windows.

    prices and returns are (n_assets, lookback) matrices sharing a step; the
    result is the (n_assets,) vector of raw scores. Guaranteed finite.
    """
    return _scrub(_eval_span(expr, prices, returns, panel=False)[:, -1].copy())


def evaluate_panel(expr: Expr, prices: np.ndarray, returns: np.ndarray) -> np.ndarray:
    """Evaluate one expression at every step of an (n_assets, steps) span.

    Column j of the (n_assets, steps) result is the score with column j as
    the latest step, `last` taken as the identity (see the module notes for
    when it equals evaluate_cross_section on that step's window). Guaranteed
    finite.
    """
    return _scrub(np.array(_eval_span(expr, prices, returns, panel=True)))


def receptive_field(expr: Expr) -> int:
    """Trailing columns the final value of expr reads, its own included.

    A leaf reads 1; a windowed op adds window-1 to its child's field and
    lag/ts_delta add window (they read column p-window). Other nodes read
    the widest of their children.
    """
    if isinstance(expr, (Feature, Const)):
        return 1
    if isinstance(expr, TimeSeries):
        extra = expr.window if expr.op in ("lag", "ts_delta") else expr.window - 1
        return receptive_field(expr.child) + extra
    return max(receptive_field(kid) for kid in children(expr))


def _last_under_ts(expr: Expr, under_ts: bool = False) -> bool:
    if isinstance(expr, Last) and under_ts:
        return True
    under_ts = under_ts or isinstance(expr, TimeSeries)
    return any(_last_under_ts(kid, under_ts) for kid in children(expr))


def panel_equivalent(expr: Expr, lookback: int) -> bool:
    """True when evaluate_panel reproduces windowed scores of this lookback:
    the receptive field fits it and no `last` has a time-series ancestor."""
    return receptive_field(expr) <= lookback and not _last_under_ts(expr)


def normalize_scores(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Min-max rescale a cross-section to [-1, 1]; degenerate rows go to 0.

    The max maps to exactly +1 and the min to exactly -1. A row whose values
    are all equal (or that is empty) comes back as zeros.
    """
    values = _scrub(np.asarray(scores, dtype=np.float64).copy())
    if values.size == 0:
        return values
    low = values.min()
    high = values.max()
    if high == low:
        return np.zeros_like(values)
    return 2.0 * (values - low) / (high - low) - 1.0
