"""User-defined functions of d real arguments: a small expression language,
black-box and lookup-table handles, and the compositions (relabeling,
per-coordinate rescaling, linear combination) the decomposition machinery
works with.

Evaluation conventions, chosen so the max-monomial family behaves:

* ``0^0 = 1`` (an exponent of zero makes a factor neutral);
* ``sign(0) = 0``.

Every handle evaluates a function on the projected points of many anchors
through ``evaluate_table``, the only way the package reads a value, whose
blocks never raise: a block leaves a non-finite value wherever the
scalar path must decide, and the scalar path then runs there, in order.
Expressions and their compositions evaluate a block with numpy; an
expression's block is NaN throughout if ``/``, ``^``, ``exp`` or ``ln``
raise anywhere in it.  An expression evaluates each subtree on the
sub-cube of its own varying variables, gathered per mask only where it
outgrows the block (see ``_Layout``); ``^``, ``exp`` and ``ln`` make one
C call per operand value in one ``map``.  Callables and tables have no
block path.  An expression is flattened once into a post-order program
over one operation table, run by both paths.
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
    validate_dimension,
    validate_masks,
    validate_permutation,
)

# Projected points per block in FunctionHandle.evaluate_table: the working
# set of an expression is a few arrays of this length per tree node,
# whatever the number of masks.
MASK_BLOCK = 1 << 16


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


class _Unclean(Exception):
    """An operation of an expression's block raised somewhere in it."""


def _per_operand(call: Callable[..., float], *operands):
    """``call``, a C function of ``math``, applied to each point's operands
    in one ``map``: once per value of the broadcast operands, ``2^|T|`` per
    point for an operand on the sub-cube of its variables ``T``.  The
    operands may be of any shapes that broadcast together, and the result is
    of their broadcast shape, up to leading axes of length 1.  Raises
    ``_Unclean`` where ``call`` raises, which is where its scalar guard in
    ``_OPERATIONS`` raises."""
    varying = [i for i, a in enumerate(operands) if isinstance(a, np.ndarray) and a.size > 1]
    if len(varying) > 1:
        operands = np.broadcast_arrays(*operands)
    # the result takes the varying operands' shape, or () if none varies:
    # size-1 operands broadcast against any shape, so dropping their
    # leading axes changes no value
    shape = operands[varying[0]].shape if varying else ()
    columns = [np.ravel(a) for a in operands]  # one value in a size-1 operand
    n = len(columns[varying[0]]) if varying else 1
    args = [c.tolist() if i in varying else c.tolist() * n for i, c in enumerate(columns)]
    try:
        return np.fromiter(map(call, *args), float, n).reshape(shape)
    except (ValueError, OverflowError):
        raise _Unclean from None


def _divide_batched(a, b):
    if np.equal(b, 0.0).any():
        raise _Unclean
    return np.divide(a, b)


class _Operation(NamedTuple):
    arity: int
    scalar: Callable[..., float]
    batched: Callable[..., "np.ndarray | float"]


_NEGATE = "u-"  # unary minus: a key no name token can spell

# Every operator and function: its arity, its Python-float code for the
# scalar path and its numpy code for the batched path (see _run_block).  The
# parser reads function arities from here.
_OPERATIONS: dict[str, _Operation] = {
    "+": _Operation(2, operator.add, np.add),
    "-": _Operation(2, operator.sub, np.subtract),
    "*": _Operation(2, operator.mul, np.multiply),
    "/": _Operation(2, _divide, _divide_batched),
    "^": _Operation(2, _power, functools.partial(_per_operand, math.pow)),
    _NEGATE: _Operation(1, operator.neg, np.negative),
    "max": _Operation(2, max, lambda a, b: np.where(np.greater(b, a), b, a)),
    "min": _Operation(2, min, lambda a, b: np.where(np.less(b, a), b, a)),
    "abs": _Operation(1, abs, np.abs),
    "sign": _Operation(1, _sign, lambda t: np.greater(t, 0.0) * 1.0 - np.less(t, 0.0)),
    "exp": _Operation(1, _exp, functools.partial(_per_operand, math.exp)),
    "ln": _Operation(1, _log, functools.partial(_per_operand, math.log)),
    "relu": _Operation(1, lambda t: max(t, 0.0), lambda a: np.where(np.less(a, 0.0), 0.0, a)),
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


def _run_block(program: tuple, cols: list, join: Callable) -> tuple:
    """The values of a program over a block of points, given the coordinate
    columns (indexed by variable), as a ``(value, axes)`` entry; raises
    ``_Unclean`` if an operation of the scalar path raises at any point it
    computes.  A column, like every subtree, is such an entry, and ``join``
    puts the two operands of a binary operation on one layout (see
    ``_Layout``).

    Every value equals the scalar path's bit for bit: ``+ - * /``, negation
    and ``abs`` round as Python floats do, ``max``/``min``/``relu``/``sign``
    keep Python's tie rules, and ``^``, ``exp`` and ``ln`` call the scalar
    code's ``math`` functions.  ``/`` raises where a divisor is 0, and
    ``^``, ``exp`` and ``ln`` where the call fails.  A non-finite value
    does not raise: Python's ``+ - *`` never do, numpy gives Python's
    results on inf and NaN, and ``evaluate_table`` re-runs non-finite ones.
    """
    stack: list = []
    push, pop = stack.append, stack.pop
    for step in program:
        kind = type(step)
        if kind is Var:
            push(cols[step.index])
        elif kind is Num:
            push((step.value, ()))
        elif step.arity == 1:
            a, axes = pop()
            push((step.batched(a), axes))
        else:
            right, left = pop(), pop()
            if left[1] != right[1]:
                left, right = join(left, right)
            push((step.batched(left[0], right[0]), left[1]))
    return stack[0]


class _Layout:
    """Where the subtrees of one block are evaluated.  A variable whose bit
    is the same in all the block's masks is one constant per point; every
    other is a 2-value axis.  A subtree over the varying variables ``axes``
    (highest first) lives on their sub-cube: an array of shape ``(points,
    2, ..., 2)`` whose C-order flattening reads the variables' bits as a
    binary number, or a single number.  Where two operands together span
    more points than the block has masks, both are gathered to one value
    per mask, shape ``(points, masks)``, and ``axes`` is None: no array has
    more than ``log2(masks)`` axes of a sub-cube.  Where all the block's
    varying variables fit in one sub-cube, every column is put on it from
    the start, with length-1 axes for the variables it does not read, and
    nothing moves.  A sub-cube may hold points that no mask of the block
    reads; an operation that raises at one of them makes the block unclean.
    """

    def __init__(self, points: int, masks: np.ndarray) -> None:
        self.points, self.masks = points, masks
        self.depth = len(masks).bit_length() - 1  # the most axes of a sub-cube

    def join(self, a: tuple, b: tuple) -> tuple:
        """Two stack entries of different axes moved to one layout."""
        (va, own_a), (vb, own_b) = a, b
        if own_b == () and _scalar(vb):
            return a, (vb, own_a)
        if own_a == () and _scalar(va):
            return (va, own_b), b
        if own_a is not None and own_b is not None:
            axes, tail_a, tail_b = _union(own_a, own_b)
            if len(axes) <= self.depth:
                return (_lift(va, tail_a), axes), (_lift(vb, tail_b), axes)
        return (self.gather(va, own_a), None), (self.gather(vb, own_b), None)

    def gather(self, value, axes):
        """A value on the sub-cube of ``axes`` as one per mask."""
        if axes is None or _scalar(value):
            return value
        if not axes:
            return value.reshape(-1, 1)
        index = 0
        for place, j in enumerate(reversed(axes)):  # j >= place: bit j moves down
            index = index | (self.masks >> (j - place) & 1 << place)
        return value.reshape(self.points, -1)[:, np.asarray(index, dtype=np.intp)]


def _union(own_a: tuple, own_b: tuple) -> tuple:
    """The axes of two sub-cubes' union, and each one's shape there after
    its points axis."""
    axes = tuple(sorted({*own_a, *own_b}, reverse=True))
    return axes, *(tuple(2 if j in own else 1 for j in axes) for own in (own_a, own_b))


def _scalar(value) -> bool:
    """Whether a value is one number, which broadcasts against any layout."""
    return type(value) is not np.ndarray or value.size == 1


def _lift(value, tail: tuple):
    """A value on a sub-cube moved to a larger one, where it takes the shape
    ``tail`` after its points axis."""
    return value if _scalar(value) else value.reshape(value.shape[:1] + tail)


# ---------------------------------------------------------------------------
# Function handles


def _valid_prefix(points: Iterable[Sequence[float]],
                  d: int) -> tuple[np.ndarray, Exception | None]:
    """The points, as an ``(n, d)`` float array, up to the first that is
    not a point of dimension ``d``, and that one's error (None if every
    point is valid).  A float64 array of that shape is checked in one pass."""
    if isinstance(points, np.ndarray) and points.dtype == np.float64 and points.shape[1:] == (d,):
        finite = np.isfinite(points).all(axis=1)
        if finite.all():
            return points, None
        points = points[:finite.argmin() + 1]  # as_point raises at the last one
    anchors, invalid = [], None
    for x in points:
        try:
            anchors.append(as_point(x, d))
        except (TypeError, ValueError) as exc:
            invalid = exc
            break
    return np.array(anchors, dtype=float).reshape(len(anchors), d), invalid


class FunctionHandle:
    """Evaluatable representation of a function of ``d`` real arguments.

    A handle has a scalar path, ``_evaluate`` at one point, and a block
    path, ``_evaluate_block``, which never raises; ``evaluate_table`` runs
    the scalar path where a block is not finite.  Handles are immutable and
    evaluation is pure, so they may be shared and called concurrently.
    """

    d: int
    label: str

    def __call__(self, x: Sequence[float]) -> float:
        return self._finite_at(as_point(x, self.d))

    def _finite_at(self, point: Point) -> float:
        value = self._evaluate(point)
        if not math.isfinite(value):
            raise EvaluationError(f"{self.label} is not finite at {point}: {value!r}")
        return value

    def _evaluate(self, x: Point) -> float:
        raise NotImplementedError

    def _evaluate_block(self, anchors: np.ndarray, off: Point, masks: np.ndarray) -> np.ndarray:
        """Values at the points of a block, anchor by anchor and, for each
        anchor, mask by mask: ``len(anchors) * len(masks)`` values, where
        the point of anchor ``a`` (a row of ``anchors``) and mask ``m`` has
        coordinate j equal to ``a[j]`` where bit j of ``m`` is set and
        ``off[j]`` elsewhere.

        A block must not raise.  A value it leaves finite equals the scalar
        path's bit for bit, and it leaves a non-finite value at every point
        the scalar path must decide (where it raises, or may), for
        ``evaluate_table`` to evaluate one by one.  This one leaves them all,
        so a callable or a table is called once per point.
        """
        return np.full(len(anchors) * len(masks), math.nan)

    def evaluate_table(self, points: Iterable[Sequence[float]],
                       masks: Iterable[int]) -> np.ndarray:
        """Values at the projected points ``project(x, m)``: one row per
        point and one column per mask, in the orders given.

        The (point, mask) pairs are evaluated point by point, in blocks of
        at most ``MASK_BLOCK`` pairs: whole rows of several points, or a
        run of one point's masks.  Every value equals the scalar path's bit
        for bit.  Points a block leaves non-finite then go through the
        scalar path one by one, in order, in the only loop that calls it:
        the first failing (point, mask) and its error are the scalar
        path's, and no later point is evaluated.  A point that is not a
        valid point of the function raises only after every point before
        it was evaluated.  A value does not depend on the block it lands in.
        """
        coords, invalid = _valid_prefix(points, self.d)
        if invalid is not None and not len(coords):
            raise invalid
        masks = validate_masks(masks, self.d)
        table = np.empty((len(coords), len(masks)))
        origin = (0.0,) * self.d
        width = max(1, min(len(masks), MASK_BLOCK))  # masks per block
        rows = MASK_BLOCK // width  # points per block
        with np.errstate(all="ignore"):
            for a0 in range(0, len(coords), rows):
                for m0 in range(0, len(masks), width):
                    block = masks[m0:m0 + width]
                    values = table[a0:a0 + rows, m0:m0 + width]
                    values[:] = self._evaluate_block(coords[a0:a0 + rows], origin,
                                                     block).reshape(values.shape)
                    unfinished = ~np.isfinite(values)
                    if unfinished.any():  # argwhere costs more than a clean block's check
                        for a, m in np.argwhere(unfinished).tolist():
                            mask, x = int(block[m]), coords[a0 + a].tolist()
                            values[a, m] = self._finite_at(
                                tuple(c if mask >> j & 1 else 0.0 for j, c in enumerate(x)))
        if invalid is not None:
            raise invalid
        return table


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

    def _evaluate_block(self, anchors: np.ndarray, off: Point, masks: np.ndarray) -> np.ndarray:
        """The program run with numpy over the block's coordinate columns:
        the scalar path's values, or NaN throughout if an operation raises
        anywhere on the block's sub-cubes, even at a point no mask reads.

        Each subtree is evaluated on the sub-cube of its own varying
        variables, or per mask once it outgrows the block (see
        ``_Layout``).  Variable j takes ``[off_j, a_j]`` where its bit
        varies, else ``a_j`` or ``off_j`` as the bit is set in every mask or
        in none.  A block that is one aligned run ``m0 .. m0 + 2^k - 1``,
        ``m0`` a multiple of ``2^k``, such as a whole table's row, is the
        root's sub-cube broadcast to the full cube ``(anchors, 2, ..., 2)``
        of bits ``k - 1 .. 0``; any other block gathers the root per mask.
        """
        points, n = len(anchors), len(masks)
        layout = _Layout(points, masks)
        k = layout.depth
        run = n > 1 and n == 1 << k and masks[0] % n == 0 and (np.diff(masks) == 1).all()
        if run:  # bits k and up are m0's, and every bit below k varies
            every, varying = int(masks[0]), n - 1
        else:
            every = int(np.bitwise_and.reduce(masks))
            varying = int(np.bitwise_or.reduce(masks)) ^ every
        wide = tuple(j for j in reversed(self._variables) if varying >> j & 1)
        shared = len(wide) <= k  # every union fits when all varying variables do
        cols: list = [None] * self.d
        for j in self._variables:
            axes = wide if shared else (j,) if varying >> j & 1 else ()
            ones = (1,) * len(axes)
            on = anchors[:, j].reshape((points,) + ones)
            if varying >> j & 1:  # off, then on, along its own axis
                i = axes.index(j)
                bit = np.array([False, True]).reshape(ones[:i] + (2,) + ones[i + 1:])
                value = np.where(bit, on, off[j])
            else:
                value = on if every >> j & 1 else off[j]
            cols[j] = (value, axes)
        try:
            values, axes = _run_block(self._program, cols, layout.join)
        except _Unclean:
            return np.full(points * n, math.nan)
        if run:
            cube = tuple(range(k - 1, -1, -1))
            values = _lift(values, _union(axes, cube)[1])
            block = np.empty((points,) + (2,) * k)
        else:
            values = layout.gather(values, axes)
            block = np.empty((points, n))
        block[...] = values
        return block.reshape(-1)


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
# inner block, NaN and all, so a composition of expressions uses numpy.


class _Relabeled(FunctionHandle):
    def __init__(self, fn: FunctionHandle, perm: Permutation) -> None:
        self.d, self.fn, self.perm = fn.d, fn, perm
        self.inverse = inverse_permutation(perm)
        self.label = f"{fn.label} o perm{perm}"

    def _evaluate(self, x: Point) -> float:
        return self.fn._finite_at(permute(x, self.perm))

    def _evaluate_block(self, anchors: np.ndarray, off: Point, masks: np.ndarray) -> np.ndarray:
        # coordinate i of the relabeled point is coordinate perm[i], so it is
        # the anchor's where bit perm[i] of the mask is set
        return self.fn._evaluate_block(anchors[:, self.perm], permute(off, self.perm),
                                       permute_mask(masks, self.inverse))


class _Reparameterized(FunctionHandle):
    def __init__(self, fn: FunctionHandle, maps: Sequence["CoordinateMap"]) -> None:
        self.d, self.fn, self.maps = fn.d, fn, tuple(maps)
        self.label = f"{fn.label} o maps"

    def _mapped(self, x: Sequence[float]) -> Point:
        return tuple(h(c) for h, c in zip(self.maps, x))

    def _evaluate(self, x: Point) -> float:
        return self.fn._finite_at(as_point(self._mapped(x), self.d))

    def _evaluate_block(self, anchors: np.ndarray, off: Point, masks: np.ndarray) -> np.ndarray:
        # each anchor is mapped once, not once per mask; off becomes h(off),
        # not 0.0: a map may send 0.0 to -0.0
        try:
            mapped = np.array([as_point(self._mapped(a)) for a in anchors.tolist()])
            mapped_off = as_point(self._mapped(off))
        except Exception:  # of any kind, from a map: the scalar re-run raises it in order
            return np.full(len(anchors) * len(masks), math.nan)
        return self.fn._evaluate_block(mapped, mapped_off, masks)


class _LinearCombination(FunctionHandle):
    def __init__(self, terms: tuple[tuple[float, FunctionHandle], ...]) -> None:
        self.d, self.terms = terms[0][1].d, terms
        self.label = " + ".join(f"{a}*{fn.label}" for a, fn in terms)

    def _evaluate(self, x: Point) -> float:
        return _fsum([a * fn._finite_at(x) for a, fn in self.terms])

    def _evaluate_block(self, anchors: np.ndarray, off: Point, masks: np.ndarray) -> np.ndarray:
        blocks = [a * fn._evaluate_block(anchors, off, masks) for a, fn in self.terms]
        if len(blocks) <= 2:
            # fsum of one or two terms is their rounded sum, with -0.0 made
            # 0.0, wherever that sum is finite
            return sum(blocks[1:], blocks[0]) + 0.0
        return np.array([_fsum(row) for row in np.column_stack(blocks).tolist()], dtype=float)


def _fsum(values: list[float]) -> float:
    """``math.fsum``, or NaN where it raises (an intermediate overflow, or
    ``inf`` and ``-inf`` together): a sum that is not finite."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


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
