"""Span recording around varipade's layer boundaries.

The tracer wraps public functions in the module namespaces that call them
(for example `optimize.loss_and_grad`, the name `train` looks up), so a
traced run executes the unmodified library. Each wrapper records one span
(id, name, start, end, parent id, solve id, thread, work) and passes
arguments, return values and exceptions through unchanged. Spans stay in
memory until the run ends; self times are computed from them afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time
from collections import defaultdict

# (module, attribute, span name). A solve is one `train` call; the span that
# wraps it opens a new solve id which every nested span inherits.
# `loss.sample_grid` is left alone: only `functional_value`, which the
# correctness gate calls outside the measured rounds, looks it up there.
PATCHES = (
    ("varipade", "parse_integrand", "expressions.parse"),
    ("varipade", "train", "optimize.train"),
    ("varipade.problems", "train", "optimize.train"),
    ("varipade.optimize", "loss_and_grad", "loss.loss_and_grad"),
    ("varipade.optimize", "adam_step", "optimize.adam_step"),
    ("varipade.optimize", "sample_grid", "loss.sample_grid"),
    ("varipade.optimize", "compose_final_many", "boundary.compose"),
    ("varipade.loss", "compose_final_many", "boundary.compose"),
    ("varipade.loss", "eval_integrand_many", "expressions.eval"),
    ("varipade.boundary", "family_jet_many", "families.jet"),
    ("varipade.boundary", "boundary_factor_many", "boundary.factor"),
    ("varipade.families", "legendre_table", "families.legendre"),
)

SOLVE_SPAN = "optimize.train"


def tree_nodes(root):
    """Number of nodes in a parsed integrand tree."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        for f in dataclasses.fields(node):
            child = getattr(node, f.name)
            if dataclasses.is_dataclass(child):
                stack.append(child)
    return count


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, solve, thread, work)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self._nodes = {}  # id(expr) -> (expr, node count); holding expr keeps the id unique

    def _work(self, name, args, result):
        """Work a span did: bytes a jet computed, tree nodes an evaluation visited."""
        if name == "families.jet":
            return sum(a.nbytes for a in result)
        if name == "expressions.eval":
            expr = args[0]
            entry = self._nodes.get(id(expr))
            if entry is None:
                entry = self._nodes[id(expr)] = (expr, tree_nodes(expr.root))
            return entry[1]
        return 0

    def wrap(self, name, fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        work_of = self._work
        opens_solve = name == SOLVE_SPAN
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, solve = stack[-1] if stack else (0, 0)
            sid = next(ids)
            if opens_solve and not solve:
                solve = sid
            stack.append((sid, solve))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work = 0 if result is None else work_of(name, args, result)
                spans.append((sid, name, start, end, parent, solve, threading.get_ident(), work))

        return wrapper

    def install(self, modules):
        """Replace every patched attribute with its wrapper; undo with uninstall."""
        for module_name, attr, name in PATCHES:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self):
        """Remove and return the spans recorded so far."""
        taken = list(self.spans)
        del self.spans[:]
        return taken


def self_times(spans):
    """Per span name [calls, self seconds, work]; and self seconds per thread."""
    child = defaultdict(float)
    for sid, name, start, end, parent, solve, thread, work in spans:
        if parent:
            child[parent] += end - start
    by_name = defaultdict(lambda: [0, 0.0, 0])
    by_thread = defaultdict(float)
    for sid, name, start, end, parent, solve, thread, work in spans:
        own = (end - start) - child.get(sid, 0.0)
        entry = by_name[name]
        entry[0] += 1
        entry[1] += own
        entry[2] += work
        by_thread[thread] += own
    return dict(by_name), dict(by_thread)


def write_spans(path, spans):
    """Write spans as CSV, times in seconds from the first span's start."""
    t0 = min((s[2] for s in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,solve,thread,work\n")
        for sid, name, start, end, parent, solve, thread, work in spans:
            fh.write(f"{sid},{name},{start - t0:.9f},{end - t0:.9f},{parent},{solve},{thread},{work}\n")
