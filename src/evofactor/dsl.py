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

Spans are evaluated time-major: `_eval_span` transposes its inputs once to
(steps, n), so window term k of every step is the contiguous slab
pad[k : k + steps] of the edge-padded child, and each op folds whole slabs.
`_window_sum` adds them in numpy's own order for a short axis, so scores keep
the bits of a per-window reduction (a property test pins this on the
installed numpy), with at most four partial sums live: a window's worth of
fresh temporaries costs more in page faults than it saves. `ts_ema` stays an
asset-major matmul on a transposed copy, since matmul's summation order
follows its operands' layout.

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

Under (a) the final position never reaches the edge padding, so every span
holding a column's receptive field gives that column bit-identical scores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, ClassVar, Iterator, Sequence, Union

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


class _Node:
    text = cached_property(lambda self: print_expr(self))  # a tree's canonical text, printed once
    valid = cached_property(lambda self: _validate(self))  # set once the tree passes; a failure sets nothing


@dataclass(frozen=True)
class Feature(_Node):
    name: str  # "prices" or "returns"


@dataclass(frozen=True)
class Const(_Node):
    value: float


@dataclass(frozen=True)
class Unary(_Node):
    op: str
    child: "Expr"


@dataclass(frozen=True)
class Binary(_Node):
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class TimeSeries(_Node):
    op: str
    child: "Expr"
    window: int


@dataclass(frozen=True)
class Last(_Node):
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
    """Check structural invariants; raises ExprError on violation. One
    preorder walk checks every node, then the node count and the depth; a
    tree that passed is remembered, so each tree object is walked once."""
    expr.valid


def _validate(expr: Expr) -> bool:
    nodes, deepest = _check_tree(expr)
    if nodes > MAX_NODES:
        raise ExprError(f"expression has {nodes} nodes, cap is {MAX_NODES}")
    if deepest > MAX_DEPTH:
        raise ExprError(f"expression depth {deepest} exceeds cap {MAX_DEPTH}")
    return True


def _check_tree(node: Expr) -> tuple[int, int]:
    """Check node, then its subtrees left to right: (nodes, depth)."""
    if isinstance(node, Feature):
        if node.name not in FEATURES:
            raise ExprError(f"unknown feature {node.name!r}")
        return 1, 1
    if isinstance(node, Const):
        if not np.isfinite(node.value):
            raise ExprError(f"non-finite constant {node.value!r}")
        return 1, 1
    if OP_CLASSES.get(op := getattr(node, "op", None)) is not type(node):
        raise ExprError(f"unknown {type(node).__name__} op {op!r}")
    if isinstance(node, Binary):
        left_nodes, left_depth = _check_tree(node.left)
        right_nodes, right_depth = _check_tree(node.right)
        return 1 + left_nodes + right_nodes, 1 + max(left_depth, right_depth)
    if isinstance(node, TimeSeries) and node.window not in ALLOWED_WINDOWS:
        raise ExprError(f"window {node.window} not in allowed set {ALLOWED_WINDOWS}")
    nodes, deepest = _check_tree(node.child)
    return 1 + nodes, 1 + deepest


# ------------------------------------------------------------ parse / print


_TOKEN_RE = re.compile(
    r"(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[a-z_][a-z0-9_]*)"
    r"|(?P<punct>[(),])"
    r"|(?P<other>\S)"
)

_Token = tuple[str, str, int]  # (kind, text, position of its first character)


def _tokenize(text: str) -> list[_Token]:
    """Every token of text from one scan, then an "end" token; whitespace
    only separates tokens, and any other character fails."""
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, value, at in tokens:
        if kind == "other":
            raise ParseError(f"unexpected character {value!r} at position {at}")
    tokens.append(("end", "", len(text)))
    return tokens


def _expected(token: _Token, kind: str, value: str | None = None) -> ParseError:
    """The error for token, found where a kind (and value) token belongs."""
    got_kind, got, at = token
    if got_kind == "end":
        return ParseError("unexpected end of expression")
    if got_kind != kind:
        return ParseError(f"expected {kind} at position {at}, got {got!r}")
    return ParseError(f"expected {value!r} at position {at}, got {got!r}")


def _parse_node(tokens: list[_Token], i: int) -> tuple[Expr, int]:
    """The tree whose text starts at tokens[i], and the index after it."""
    kind, value, at = tokens[i]
    if kind == "num":
        return Const(float(value)), i + 1
    if kind == "end":
        raise ParseError("unexpected end of expression")
    if kind != "name":
        raise ParseError(f"unexpected token {value!r} at position {at}")
    if value in FEATURES:
        return Feature(value), i + 1
    node_type = OP_CLASSES.get(value)
    if node_type is None:
        raise ParseError(f"unknown operator {value!r} at position {at}")
    if tokens[i + 1][1] != "(":
        raise _expected(tokens[i + 1], "punct", "(")
    child, i = _parse_node(tokens, i + 2)
    if node_type is Binary or node_type is TimeSeries:
        if tokens[i][1] != ",":
            raise _expected(tokens[i], "punct", ",")
        if node_type is Binary:
            second, i = _parse_node(tokens, i + 1)
        else:
            second, i = _parse_window(tokens[i + 1]), i + 2
        node = node_type(value, child, second)
    else:
        node = Last(child) if node_type is Last else Unary(value, child)
    if tokens[i][1] != ")":
        raise _expected(tokens[i], "punct", ")")
    return node, i + 1


def _parse_window(token: _Token) -> int:
    kind, value, _ = token
    if kind != "num":
        raise _expected(token, "num")
    try:
        window = int(value)
    except ValueError:
        raise ParseError(f"window must be an integer, got {value!r}") from None
    if window not in ALLOWED_WINDOWS:
        raise ParseError(f"window {window} not in allowed set {ALLOWED_WINDOWS}")
    return window


def parse(text: str) -> Expr:
    """Parse canonical expression text; validates structure on the way out."""
    tokens = _tokenize(text)
    if len(tokens) == 1:
        raise ParseError("empty expression")
    expr, i = _parse_node(tokens, 0)
    kind, value, at = tokens[i]
    if kind != "end":
        raise ParseError(f"trailing input at position {at}: {value!r}")
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


def _window_sum(slabs: list[np.ndarray], centre: np.ndarray | None = None) -> np.ndarray:
    """Sum a window's time-major slabs, oldest first, or with a centre their
    squares (slab - centre)**2, in the order numpy reduces a short window
    axis: left to right under 8 terms, else eight interleaved partial sums,
    paired ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail left to right.
    Window sums and moments thus keep numpy's bits. At most four partial
    sums and one scratch slab are live at once, never a window's worth."""
    head = len(slabs) - len(slabs) % 8
    scratch = None if centre is None else np.empty_like(centre)

    def term(k: int) -> np.ndarray:
        if scratch is None:
            return slabs[k]
        np.subtract(slabs[k], centre, out=scratch)
        return np.multiply(scratch, scratch, out=scratch)

    total = _lanes(term, head, 0, 8) if head else term(0).copy()
    for k in range(max(head, 1), len(slabs)):
        total += term(k)
    return total


def _lanes(term: Callable[[int], np.ndarray], head: int, lo: int, width: int) -> np.ndarray:
    """Lanes lo .. lo+width-1 of the first head terms (lane j sums terms j,
    j+8, ...), added as numpy pairs them. A module function, not a closure:
    a closure that calls itself is a reference cycle, which would keep the
    window's slabs alive until the cyclic collector runs."""
    if width > 1:
        acc = _lanes(term, head, lo, width // 2)
        acc += _lanes(term, head, lo + width // 2, width // 2)
        return acc
    acc = term(lo).copy()
    for k in range(lo + 8, head, 8):
        acc += term(k)
    return acc


def _eval_ts(op: str, child: np.ndarray, window: int) -> np.ndarray:
    """One time-series op over a time-major (steps, n) child."""
    steps = len(child)
    if op == "lag":
        return child[_lag_index(steps, window)]
    if op == "ts_delta":
        return child - child[_lag_index(steps, window)]
    pad = np.concatenate([np.repeat(child[:1], window - 1, axis=0), child])
    slabs = [pad[k : k + steps] for k in range(window)]  # k-th oldest of each window
    if op == "ts_ema":
        alpha = 2.0 / (window + 1.0)
        coef = alpha * (1.0 - alpha) ** np.arange(window - 1, -1, -1, dtype=np.float64)
        coef[0] = (1.0 - alpha) ** (window - 1)  # recursion seeded at the oldest value
        return (sliding_window_view(np.ascontiguousarray(pad.T), window, axis=1) @ coef).T
    if op == "ts_sum":
        return _window_sum(slabs)
    if op == "ts_mean":
        return _window_sum(slabs) / window
    if op == "ts_std":
        # population std, matches the seed formulas; numpy's _var order
        return np.sqrt(_window_sum(slabs, _window_sum(slabs) / window) / window)
    if op in ("ts_min", "ts_max"):
        fold, out = np.minimum if op == "ts_min" else np.maximum, slabs[0].copy()
        for slab in slabs[1:]:
            fold(out, slab, out=out)
        return out
    if op == "ts_rank_pos":
        less, equal = np.zeros(child.shape, np.intp), np.zeros(child.shape, np.intp)
        for slab in slabs:
            less += slab < child
            equal += slab == child
        return (less + 0.5 * (equal - 1)) / (window - 1)
    if op == "ts_drawdown":
        peak, worst, dd = slabs[0].copy(), np.zeros(child.shape), np.empty(child.shape)
        for slab in slabs[1:]:
            np.maximum(peak, slab, out=peak)
            ok = np.abs(peak) >= _DIV_EPS
            np.divide(np.subtract(slab, peak, out=dd), peak, out=dd, where=ok)
            dd[~ok] = 0.0
            np.minimum(worst, dd, out=worst)
        return worst
    if op == "ts_argmax_recency":
        # Newest index attaining the window max, scaled to (0, 1]: from_end
        # moves only on a strict > while the slabs run newest to oldest.
        best, from_end = child.copy(), np.zeros(child.shape, np.intp)
        for k, slab in enumerate(slabs[-2::-1], start=1):
            better = slab > best
            np.copyto(best, slab, where=better)
            from_end[better] = k
        return (window - from_end).astype(np.float64) / window
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
        return args[0] if panel else np.repeat(args[0][-1:], len(prices), axis=0)
    return _scrub(_APPLY[expr.op](*args))


def _eval_span(expr: Expr, prices: np.ndarray, returns: np.ndarray, panel: bool) -> np.ndarray:
    prices = np.asarray(prices, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    if prices.shape != returns.shape or prices.ndim != 2:
        raise ValueError("prices and returns must share an (n, steps) shape")
    # Overflow and invalid operations are scrubbed to 0 by policy, so the
    # corresponding numpy warnings are noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _eval(expr, np.ascontiguousarray(prices.T), np.ascontiguousarray(returns.T), panel).T


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
    """Min-max rescale a cross-section, or each row of a (k, n) block with
    the bits it gets alone, to [-1, 1]; degenerate rows go to 0.

    The max maps to exactly +1 and the min to exactly -1, also when max - min
    overflows. A row of equal values (or an empty one) comes back as zeros.
    """
    values = _scrub(np.array(scores, dtype=np.float64))
    if values.shape[-1] == 0:
        return values
    low, high = values.min(axis=-1, keepdims=True), values.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):  # a span may overflow; equal rows divide 0 by 0
        wide = np.isinf(high - low)
        if wide.any():  # halving is exact at this magnitude
            values, low, high = (np.where(wide, a / 2.0, a) for a in (values, low, high))
        return np.where(high == low, 0.0, 2.0 * ((values - low) / (high - low)) - 1.0)
