"""User-defined functions of d real arguments: a small expression language,
black-box and lookup-table handles, and the compositions (relabeling,
per-coordinate rescaling, linear combination) the decomposition machinery
works with.

Evaluation conventions, chosen so the max-monomial family behaves:

* ``0^0 = 1`` (an exponent of zero makes a factor neutral);
* ``sign(0) = 0``.

Every handle evaluates a function on many projected points of one anchor
through ``evaluate_masks``, which runs the handle's block path over blocks
of points and re-runs any point a block rejects through the scalar path.
Expressions, and compositions of expressions, evaluate a block with numpy;
Python callables and lookup tables go one point at a time.  An expression
is flattened once into a post-order program over one operation table, and
its scalar and batched paths both run that program.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    Permutation,
    Point,
    as_point,
    inverse_permutation,
    permute,
    permute_mask,
    project,
    validate_dimension,
    validate_masks,
    validate_permutation,
)

# Projected points per block in FunctionHandle.evaluate_masks: the working
# set of an expression is a few arrays of this length per tree node,
# whatever the number of masks.
MASK_BLOCK = 4096
# Blocks up to this many points call ^, exp and ln once per point instead
# of once per distinct operand (see _per_operand).
_SHORT = 64


class ParseError(ValueError):
    """Syntax or semantic error in an expression, with its position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ValueError):
    """Evaluation left the function's domain (log of a non-positive number,
    lookup-table miss, non-finite result, ...)."""


# ---------------------------------------------------------------------------
# Abstract syntax tree


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Node", ...]


Node = Num | Var | Neg | Bin | Call

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<var>x[1-9]\d*)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over: sums of products of signed powers.

    Power binds tighter than the unary minus and associates to the right,
    so ``-x1^2`` is ``-(x1^2)`` and ``2^3^2`` is ``2^(3^2)``.
    """

    def __init__(self, text: str, d: int) -> None:
        self.tokens = _tokenize(text)
        self.d = d
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        self.advance()

    def parse(self) -> Node:
        node = self.sum()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return node

    def sum(self) -> Node:
        node = self.product()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Bin(text, node, self.product())
            else:
                return node

    def product(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Bin(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Bin("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "number":
            return Num(float(text))
        if kind == "var":
            index = int(text[1:])
            if index > self.d:
                raise ParseError(f"variable {text} exceeds dimension {self.d}", pos)
            return Var(index - 1)
        if kind == "name":
            if text not in _OPERATIONS:
                raise ParseError(f"unknown function {text!r}", pos)
            arity = _OPERATIONS[text].arity
            self.expect_op("(")
            args = [self.sum()]
            while True:
                k, t, _ = self.peek()
                if k == "op" and t == ",":
                    self.advance()
                    args.append(self.sum())
                else:
                    break
            self.expect_op(")")
            if len(args) != arity:
                raise ParseError(
                    f"{text} takes {arity} argument(s), got {len(args)}", pos
                )
            return Call(text, tuple(args))
        if kind == "op" and text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse(text: str, d: int) -> Node:
    """Parse an expression over variables x1..xd into a syntax tree.

    Sums and products of any length parse without recursion; nesting
    deeper than the parser's recursion allows is a ``ParseError``.
    """
    validate_dimension(d)
    parser = _Parser(text, d)
    try:
        return parser.parse()
    except RecursionError:
        position = parser.tokens[max(parser.i - 1, 0)][2]
        raise ParseError("expression nested too deeply", position) from None


# ---------------------------------------------------------------------------
# Operations and flat programs


def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise EvaluationError("division by zero")
    return a / b


def _sign(t: float) -> float:
    return float((t > 0.0) - (t < 0.0))


def _power(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)  # math.pow(0, 0) is already 1
    except (ValueError, OverflowError) as exc:
        raise EvaluationError(f"{base!r} ^ {exponent!r}: {exc}") from None


def _exp(t: float) -> float:
    try:
        return math.exp(t)
    except OverflowError:
        raise EvaluationError(f"exp({t!r}) overflows") from None


def _log(t: float) -> float:
    if t <= 0.0:
        raise EvaluationError(f"ln of non-positive value {t!r}")
    return math.log(t)


def _finite(v, ok: np.ndarray):
    ok &= np.isfinite(v)
    return v


def _per_operand(scalar: Callable[..., float], ok: np.ndarray, *operands):
    """``scalar`` applied to each point's operands; points where it raises
    get NaN and are cleared in ``ok``.

    With one varying operand in a long block it is called once per distinct
    value: projected points share few (a variable's column holds only
    ``x_j`` and ``0.0``), so a block costs a few calls instead of one per
    point.  In short blocks finding the repeats costs more than it saves.
    """
    varying = [i for i, a in enumerate(operands) if isinstance(a, np.ndarray) and a.ndim]
    if not varying:
        try:
            return scalar(*map(float, operands))
        except EvaluationError:
            ok[:] = False
            return math.nan
    key = None
    if len(varying) == 1 and len(ok) > _SHORT:
        i = varying[0]
        distinct, key = _distinct(operands[i])
        operands = operands[:i] + (distinct,) + operands[i + 1:]
    n = len(operands[varying[0]])
    columns = [operands[i].tolist() if i in varying else [float(a)] * n
               for i, a in enumerate(operands)]
    values = np.array(_calls(scalar, zip(*columns)), dtype=float)
    return _finite(values if key is None else values[key], ok)


def _calls(scalar: Callable[..., float], rows: Iterable[tuple]) -> list[float]:
    out = []
    for args in rows:
        try:
            out.append(scalar(*args))
        except EvaluationError:
            out.append(math.nan)
    return out


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a float array, told apart by bit pattern (so
    ``-0.0`` and ``0.0`` stay apart), and each entry's index into them."""
    bits = values.view(np.int64)
    low, high = bits.min(), bits.max()
    upper = bits == high
    if (upper | (bits == low)).all():  # at most two values: skip the sort
        return np.array([low, high]).view(np.float64), upper.astype(np.intp)
    distinct, index = np.unique(bits, return_inverse=True)
    return distinct.view(np.float64), index


def _divide_batched(ok: np.ndarray, a, b):
    ok &= b != 0.0
    return _finite(np.divide(a, b), ok)


class _Operation(NamedTuple):
    arity: int
    scalar: Callable[..., float]
    batched: Callable[..., "np.ndarray | float"]


_NEGATE = "u-"  # unary minus: a key no name token can spell

# Every operator and function: its arity, its Python-float code for the
# scalar path and its numpy code for the batched path (see _run_block).  The
# parser reads function arities from here.
_OPERATIONS: dict[str, _Operation] = {
    "+": _Operation(2, operator.add, lambda ok, a, b: _finite(np.add(a, b), ok)),
    "-": _Operation(2, operator.sub, lambda ok, a, b: _finite(np.subtract(a, b), ok)),
    "*": _Operation(2, operator.mul, lambda ok, a, b: _finite(np.multiply(a, b), ok)),
    "/": _Operation(2, _divide, _divide_batched),
    "^": _Operation(2, _power, functools.partial(_per_operand, _power)),
    _NEGATE: _Operation(1, operator.neg, lambda ok, a: np.negative(a)),
    "max": _Operation(2, max, lambda ok, a, b: np.where(np.greater(b, a), b, a)),
    "min": _Operation(2, min, lambda ok, a, b: np.where(np.less(b, a), b, a)),
    "abs": _Operation(1, abs, lambda ok, a: np.abs(a)),
    "sign": _Operation(1, _sign, lambda ok, t: np.greater(t, 0.0) * 1.0 - np.less(t, 0.0)),
    "exp": _Operation(1, _exp, functools.partial(_per_operand, _exp)),
    "ln": _Operation(1, _log, functools.partial(_per_operand, _log)),
    "relu": _Operation(1, lambda t: max(t, 0.0), lambda ok, a: np.where(np.less(a, 0.0), 0.0, a)),
}


def _flatten(tree: Node) -> tuple:
    """The tree as a program for a stack machine: its nodes in post-order,
    leaves as they are and every inner node replaced by its operation.
    Walks with an explicit stack, so a tree of any depth flattens."""
    steps: list = []
    todo = [tree]
    while todo:  # root first, right subtree before left: post-order reversed
        node = todo.pop()
        if isinstance(node, Bin):
            steps.append(_OPERATIONS[node.op])
            todo += (node.left, node.right)
        elif isinstance(node, Neg):
            steps.append(_OPERATIONS[_NEGATE])
            todo.append(node.operand)
        elif isinstance(node, Call):
            steps.append(_OPERATIONS[node.name])
            todo += node.args
        else:
            steps.append(node)
    steps.reverse()
    return tuple(steps)


def _run(program: tuple, x: Sequence[float]) -> float:
    """The value of a program at one point, in Python floats; raises the
    ``EvaluationError`` of the first operation that fails."""
    stack: list = []
    push, pop = stack.append, stack.pop
    for step in program:
        kind = type(step)
        if kind is Var:
            push(x[step.index])
        elif kind is Num:
            push(step.value)
        elif step.arity == 1:
            push(step.scalar(pop()))
        else:
            right = pop()
            push(step.scalar(pop(), right))
    return stack[0]


def _run_block(program: tuple, cols: list, ok: np.ndarray) -> "np.ndarray | float":
    """The values of a program over a block of points, given the coordinate
    columns (indexed by variable) and one flag ``ok`` per point.

    Every value equals the scalar path's bit for bit: ``+ - * /``, negation
    and ``abs`` round as Python floats do, ``max``/``min``/``relu``/``sign``
    keep Python's tie rules, and ``^``, ``exp`` and ``ln`` call the scalar
    code.  The flags of points whose scalar evaluation raises are cleared:
    every operation that can turn finite operands into a non-finite value
    flags it where it first appears, ``/`` flags a zero divisor, and ``^``,
    ``exp`` and ``ln`` flag a failing call.
    """
    stack: list = []
    push, pop = stack.append, stack.pop
    for step in program:
        kind = type(step)
        if kind is Var:
            push(cols[step.index])
        elif kind is Num:
            if not math.isfinite(step.value):
                ok[:] = False
            push(step.value)
        elif step.arity == 1:
            push(step.batched(ok, pop()))
        else:
            right = pop()
            push(step.batched(ok, pop(), right))
    return stack[0]


def format_expression(node: Node) -> str:
    """Render a tree back to source text (fully parenthesized)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    if isinstance(node, Neg):
        return f"(-{format_expression(node.operand)})"
    if isinstance(node, Bin):
        return f"({format_expression(node.left)} {node.op} {format_expression(node.right)})"
    return f"{node.name}({', '.join(format_expression(a) for a in node.args)})"


# ---------------------------------------------------------------------------
# Function handles


class FunctionHandle:
    """Evaluatable representation of a function of ``d`` real arguments.

    A handle has a scalar path, ``_evaluate`` at one point, and a block
    path, ``_evaluate_block``; ``evaluate_masks`` drives the block path and
    falls back to the scalar one.  Handles are immutable after construction
    and evaluation is pure, so they may be shared and called concurrently.
    """

    d: int
    label: str

    def __call__(self, x: Sequence[float]) -> float:
        point = as_point(x, self.d)
        value = self._evaluate(point)
        if not math.isfinite(value):
            raise EvaluationError(f"{self.label} is not finite at {point}: {value!r}")
        return value

    def _evaluate(self, x: Point) -> float:
        raise NotImplementedError

    def _evaluate_block(self, on: Point, off: Point, masks: np.ndarray) -> np.ndarray:
        """Values at one point per mask, whose coordinate j is ``on[j]``
        where bit j of the mask is set and ``off[j]`` elsewhere.

        A value the block leaves finite equals the scalar path's bit for
        bit; a point the scalar path may reject is left NaN or makes the
        block raise.  This implementation calls the scalar path once per
        point and stops at the first point that raises, leaving it and the
        rest NaN, so no point is called after the one whose error the
        re-run in ``evaluate_masks`` raises.
        """
        coords = tuple(zip(on, off))
        values = np.full(len(masks), math.nan)
        for k, m in enumerate(masks.tolist()):
            try:
                values[k] = self(tuple(a if m >> j & 1 else b for j, (a, b) in enumerate(coords)))
            except Exception:  # of any kind: the scalar re-run raises it again
                break
        return values

    def evaluate_masks(self, x: Sequence[float], masks: Iterable[int]) -> np.ndarray:
        """Values at the projected points ``project(x, m)``, one per mask,
        in the order given, computed over blocks of at most ``MASK_BLOCK``
        masks.

        Every value equals the scalar path's bit for bit.  Points a block
        leaves non-finite, and every point of a block that raises, are
        re-evaluated one by one through the scalar path, in the order
        given, so the first failing mask and its error are the scalar
        path's too.  A mask's value does not depend on the block it lands
        in.
        """
        point = as_point(x, self.d)
        masks = validate_masks(masks, self.d)
        origin = (0.0,) * self.d
        out = np.empty(len(masks))
        with np.errstate(all="ignore"):
            for start in range(0, len(masks), MASK_BLOCK):
                block = masks[start:start + MASK_BLOCK]
                values = out[start:start + len(block)]
                try:
                    values[:] = self._evaluate_block(point, origin, block)
                    rerun = np.flatnonzero(~np.isfinite(values)).tolist()
                except Exception:  # of any kind: the scalar path re-raises the first one
                    rerun = range(len(block))
                for k in rerun:
                    values[k] = self(project(point, int(block[k])))
        return out


class ExpressionFunction(FunctionHandle):
    """Function defined by parsed expression text."""

    def __init__(self, text: str, d: int) -> None:
        self.d = validate_dimension(d)
        self.tree = parse(text, d)
        self.text = text
        self.label = text
        self._program = _flatten(self.tree)
        self._variables = sorted({step.index for step in self._program if type(step) is Var})

    def _evaluate(self, x: Point) -> float:
        return float(_run(self._program, x))

    def _evaluate_block(self, on: Point, off: Point, masks: np.ndarray) -> np.ndarray:
        """The program run with numpy over the block's coordinate columns;
        points whose scalar evaluation raises or passes through a
        non-finite value are left NaN."""
        cols: list = [None] * self.d
        for j in self._variables:
            cols[j] = np.where(masks >> j & 1, on[j], off[j])
        ok = np.ones(len(masks), dtype=bool)
        values = _run_block(self._program, cols, ok)
        if isinstance(values, np.ndarray) and ok.all():
            return values
        return np.where(ok, values, math.nan)


class NativeFunction(FunctionHandle):
    """Function backed by an arbitrary Python callable."""

    def __init__(self, fn: Callable[[Point], float], d: int, label: str = "native") -> None:
        self.d = validate_dimension(d)
        self.fn = fn
        self.label = label

    def _evaluate(self, x: Point) -> float:
        return float(self.fn(x))


class TableFunction(FunctionHandle):
    """Function known only through a finite table of point evaluations.

    The table declares exactly which points are covered; evaluation
    anywhere else is an error.  Conflicting values for one point are
    rejected up front.
    """

    def __init__(self, d: int, entries: Iterable[tuple[Sequence[float], float]],
                 label: str = "table") -> None:
        self.d = validate_dimension(d)
        self.label = label
        table: dict[Point, float] = {}
        for coords, value in entries:
            point = as_point(coords, d)
            value = float(value)
            known = table.get(point)
            if known is not None and known != value:
                raise EvaluationError(
                    f"conflicting table values {known!r} and {value!r} at {point}"
                )
            table[point] = value
        if not table:
            raise EvaluationError("empty lookup table")
        self.table = table

    def _evaluate(self, x: Point) -> float:
        try:
            return self.table[x]
        except KeyError:
            raise EvaluationError(f"point {x} is not covered by the lookup table") from None


# ---------------------------------------------------------------------------
# Compositions (lazy wrappers; no symbolic simplification).  Each block
# rewrites the block's points as points of the inner function and runs the
# inner block, so a composition of expressions evaluates with numpy.


class _Relabeled(FunctionHandle):
    def __init__(self, fn: FunctionHandle, perm: Permutation) -> None:
        self.d, self.fn, self.perm = fn.d, fn, perm
        self.inverse = inverse_permutation(perm)
        self.label = f"{fn.label} o perm{perm}"

    def _evaluate(self, x: Point) -> float:
        return self.fn(permute(x, self.perm))

    def _evaluate_block(self, on: Point, off: Point, masks: np.ndarray) -> np.ndarray:
        # coordinate i of the relabeled point is coordinate perm[i], so it is
        # on where bit perm[i] of the mask is set
        return self.fn._evaluate_block(permute(on, self.perm), permute(off, self.perm),
                                       permute_mask(masks, self.inverse))


class _Reparameterized(FunctionHandle):
    def __init__(self, fn: FunctionHandle, maps: Sequence["CoordinateMap"]) -> None:
        self.d, self.fn, self.maps = fn.d, fn, tuple(maps)
        self.label = f"{fn.label} o maps"

    def _mapped(self, x: Sequence[float]) -> Point:
        return tuple(h(c) for h, c in zip(self.maps, x))

    def _evaluate(self, x: Point) -> float:
        return self.fn(self._mapped(x))

    def _evaluate_block(self, on: Point, off: Point, masks: np.ndarray) -> np.ndarray:
        # off becomes h(off), not 0.0: a map may send 0.0 to -0.0; as_point
        # rejects a non-finite image as the scalar path does
        return self.fn._evaluate_block(as_point(self._mapped(on)), as_point(self._mapped(off)),
                                       masks)


class _LinearCombination(FunctionHandle):
    def __init__(self, terms: tuple[tuple[float, FunctionHandle], ...]) -> None:
        self.d, self.terms = terms[0][1].d, terms
        self.label = " + ".join(f"{a}*{fn.label}" for a, fn in terms)

    def _evaluate(self, x: Point) -> float:
        return math.fsum(a * fn(x) for a, fn in self.terms)

    def _evaluate_block(self, on: Point, off: Point, masks: np.ndarray) -> np.ndarray:
        blocks = [a * fn._evaluate_block(on, off, masks) for a, fn in self.terms]
        return np.array([math.fsum(row) for row in np.column_stack(blocks).tolist()], dtype=float)


def compose_permutation(fn: FunctionHandle, perm: Permutation) -> FunctionHandle:
    """The relabeled function x -> fn(permute(x, perm))."""
    if len(perm) != fn.d:
        raise DimensionMismatchError(f"permutation length {len(perm)} != d {fn.d}")
    validate_permutation(perm)
    return _Relabeled(fn, tuple(perm))


def compose_coordinate_maps(fn: FunctionHandle, maps: Sequence["CoordinateMap"]) -> FunctionHandle:
    """The function x -> fn(h1(x1), ..., hd(xd)) for per-coordinate maps h."""
    if len(maps) != fn.d:
        raise DimensionMismatchError(f"need {fn.d} coordinate maps, got {len(maps)}")
    for h in maps:
        if not isinstance(h, CoordinateMap):
            raise TypeError(f"not a coordinate map: {h!r}")
    return _Reparameterized(fn, maps)


def linear_combine(terms: Sequence[tuple[float, FunctionHandle]]) -> FunctionHandle:
    """Pointwise linear combination sum(a_k * F_k)."""
    if not terms:
        raise DimensionMismatchError("need at least one term")
    d = terms[0][1].d
    for _, fn in terms:
        if fn.d != d:
            raise DimensionMismatchError(f"dimension mismatch: {fn.d} vs {d}")
    return _LinearCombination(tuple((float(a), fn) for a, fn in terms))


# ---------------------------------------------------------------------------
# Per-coordinate reparameterizations: bijections of the real line, continuous
# both ways, fixing zero (so rescaling never moves the reference point).


class CoordinateMap:
    label = "map"

    def __call__(self, t: float) -> float:
        raise NotImplementedError


class ScaleMap(CoordinateMap):
    def __init__(self, beta: float) -> None:
        beta = float(beta)
        if beta == 0.0 or not math.isfinite(beta):
            raise ValueError(f"scale factor must be finite and non-zero, got {beta!r}")
        self.beta = beta
        self.label = f"scale({beta})"

    def __call__(self, t: float) -> float:
        return self.beta * t


class OddPowerMap(CoordinateMap):
    """t -> sign(t) * |t|^p with p > 0; fixes zero, inverse is p -> 1/p."""

    def __init__(self, p: float) -> None:
        p = float(p)
        if not (p > 0.0 and math.isfinite(p)):
            raise ValueError(f"exponent must be finite and positive, got {p!r}")
        self.p = p
        self.label = f"odd_power({p})"

    def __call__(self, t: float) -> float:
        if t == 0.0:
            return 0.0
        return math.copysign(abs(t) ** self.p, t)


class PiecewiseLinearMap(CoordinateMap):
    """Strictly increasing piecewise-linear bijection through (0, 0).

    Defined by knots; continues with the end slopes outside the knot range.
    """

    def __init__(self, knots: Sequence[tuple[float, float]]) -> None:
        pts = sorted((float(a), float(b)) for a, b in knots)
        if len(pts) < 2:
            raise ValueError("need at least two knots")
        xs = [a for a, _ in pts]
        ys = [b for _, b in pts]
        if (0.0, 0.0) not in pts:
            raise ValueError("knots must include (0, 0)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x1 <= x0 or y1 <= y0:
                raise ValueError("knots must be strictly increasing in both coordinates")
        self.xs = xs
        self.ys = ys
        self.label = f"piecewise_linear({pts})"

    def __call__(self, t: float) -> float:
        xs, ys = self.xs, self.ys
        if t in xs:  # exact at knots, in particular h(0) == 0.0
            return ys[xs.index(t)]
        if t < xs[0]:
            lo, hi = 0, 1
        elif t > xs[-1]:
            lo, hi = len(xs) - 2, len(xs) - 1
        else:
            hi = next(k for k, x in enumerate(xs) if x > t)
            lo = hi - 1
        slope = (ys[hi] - ys[lo]) / (xs[hi] - xs[lo])
        return ys[lo] + slope * (t - xs[lo])
