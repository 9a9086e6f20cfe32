"""Traced run: wraps the public entry points of each funcdecomp layer from
outside the package, records one span per call, and reduces the spans of an
operation to per-layer self time and call counts.

Names are patched where the caller looks them up: ``cli`` binds ``shapley``
and ``game_from_json`` by name, so those are patched on ``funcdecomp.cli``;
every other layer is reached through its module attribute or, for the
function handles, through the class.  Spans stay in memory until the run
ends.  The untraced run never installs the tracer.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (span name, module, class or None, attribute)
PATCHES = (
    ("cli", "funcdecomp.cli", None, "main"),
    ("expr.parse", "funcdecomp.expr", "ExpressionFunction", "__init__"),
    ("expr.eval", "funcdecomp.expr", "FunctionHandle", "__call__"),
    ("decomp", "funcdecomp.decomp", None, "sequential"),
    ("decomp", "funcdecomp.decomp", None, "as_subset"),
    ("decomp", "funcdecomp.decomp", None, "delta_star"),
    ("decomp", "funcdecomp.decomp", None, "pointwise_shapley"),
    ("game.from_json", "funcdecomp.cli", None, "game_from_json"),
    ("game.shapley", "funcdecomp.cli", None, "shapley"),
    ("montecarlo", "funcdecomp.montecarlo", None, "estimate_as"),
    ("axioms", "funcdecomp.axioms", None, "default_corpus"),
    ("axioms", "funcdecomp.axioms", None, "run_axiom_suite"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in PATCHES))


class Tracer:
    """Span recorder for one single-threaded process.

    A span is ``(name, start, end, parent)`` with ``parent`` the index of
    the span open when it started, or -1.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, cls, attr in PATCHES:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def summarize(spans: list[tuple[str, float, float, int]], first: int, stop: int) -> dict:
    """Per span name: call count and self time (duration minus the part
    covered by direct children) over ``spans[first:stop]``, the spans of one
    operation.  Also counts the evaluations the Monte Carlo estimator made
    directly, one per distinct prefix mask."""
    child = defaultdict(float)
    for index in range(first, stop):
        _, start, end, parent = spans[index]
        child[parent] += end - start
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    mc_evals = 0
    for index in range(first, stop):
        name, start, end, parent = spans[index]
        self_s[name] += (end - start) - child[index]
        calls[name] += 1
        if name == "expr.eval" and parent >= 0 and spans[parent][0] == "montecarlo":
            mc_evals += 1
    return {"self_s": self_s, "calls": calls, "montecarlo_evals": mc_evals}
