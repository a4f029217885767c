"""In-memory span tracer that measures selid's modules from outside.

The tracer wraps public functions and methods of the ``selid`` modules in
place, records one span per outermost call of each wrapped name, and keeps
per-name totals: calls, total time and self time (span time minus the time
covered by child spans).  A recursive call of a name that is already open is
not a new span; its time is self time of the outermost frame.  Hot methods
can be wrapped as counters that count calls without reading the clock.

Nothing under ``src/`` is changed on disk: ``instrument`` prepares wrappers
for attributes of the live modules and classes, ``Rebinding.enable`` puts
them in place and ``Rebinding.disable`` puts the originals back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


class Tracer:
    """Aggregated spans and counters, kept in memory for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.max_cells = 0
        self._stack = []  # open frames: [start, child_s]
        self._open = Counter()  # name -> open frames of that name

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def wrap(self, name: str, fn, on_result=None):
        """A wrapper of ``fn`` that records spans named ``name``.

        ``on_result(result)`` runs after the span closes, on every outermost
        call that returns normally.
        """
        clock, stack, opened = self.clock, self._stack, self._open
        spans = self.spans

        def traced(*args, **kwargs):
            if opened[name]:
                return fn(*args, **kwargs)
            opened[name] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                opened[name] -= 1
                st = spans.get(name)
                if st is None:
                    st = spans[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, name: str, fn):
        """A wrapper of ``fn`` that only counts its calls (no clock reads)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        counted.__name__ = getattr(fn, "__name__", name)
        return counted

    def calls(self, name: str) -> int:
        st = self.spans.get(name)
        return st[0] if st else self.counts[name]

    def self_s(self, name: str) -> float:
        st = self.spans.get(name)
        return st[2] if st else 0.0

    def total_self_s(self) -> float:
        return sum(st[2] for st in self.spans.values())


class Rebinding:
    """A set of attribute rebindings that can be switched on and off."""

    def __init__(self):
        self._items = []  # (owner, attr, original, replacement)

    def add(self, owner, attr: str, replacement):
        self._items.append((owner, attr, owner.__dict__[attr], replacement))

    def enable(self):
        for owner, attr, _, new in self._items:
            setattr(owner, attr, new)

    def disable(self):
        for owner, attr, old, _ in reversed(self._items):
            setattr(owner, attr, old)


def rebind_function(rebinding: Rebinding, modules, fn, wrapper) -> int:
    """Rebind every module attribute that holds ``fn``; return how many."""
    n = 0
    for mod in modules:
        for attr, value in vars(mod).items():
            if value is fn:
                rebinding.add(mod, attr, wrapper)
                n += 1
    return n


def rebind_method(rebinding: Rebinding, cls, attr: str, make_wrapper):
    """Wrap ``cls.attr`` (plain, class- or static method)."""
    raw = cls.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        rebinding.add(cls, attr, type(raw)(make_wrapper(raw.__func__)))
    else:
        rebinding.add(cls, attr, make_wrapper(raw))


def selid_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "selid" or n.startswith("selid.")]


# Layer -> wrapped module functions, as (module, function name, span suffix).
FUNCTIONS = {
    "lsg": [("lsg", "parse_graph", "parse_graph"), ("lsg", "parse_query", "parse_query")],
    "cli": [("cli", "main", "main")],
    "projection": [
        ("projection", f, f)
        for f in ("derive_labels", "latent_project", "canonical_hidden_dag", "context_graph", "swig")
    ],
    "estimand": [
        ("estimand", "normal_form", "normal_form"),
        ("estimand", "trim_conditioning", "trim_conditioning"),
        ("estimand", "render", "render"),
    ],
    "identify": [
        ("identify", f, f)
        for f in ("identify_selected", "identify", "identify_fused", "sequential_baseline")
    ],
    "oracle": [
        ("oracle", f, f)
        for f in (
            "random_cs_scm", "joint", "interventional", "dataset_table",
            "eval_estimand", "parity_witness", "verify",
        )
    ],
}

# Layer -> wrapped methods, as (module, class, method, span suffix).
METHODS = {
    "graph": [
        ("graph", "Graph", m, m)
        for m in ("m_separated", "fix", "reachable", "reachable_closure", "districts", "ancestors")
    ],
    "estimand": [
        ("estimand", "ChainKernel", "from_joint", "chain_from_joint"),
        ("estimand", "ChainKernel", "fix", "chain_fix"),
    ],
    "oracle": [
        ("oracle", "DiscreteCsScm", "joint", "joint"),
        ("oracle", "DiscreteCsScm", "interventional", "interventional"),
        ("oracle", "Table", "multiply", "table_multiply"),
        ("oracle", "Table", "sum_out", "table_sum_out"),
        ("oracle", "Table", "conditional", "table_conditional"),
    ],
}

IDENTIFY_ENTRIES = tuple(f"identify.{f}" for _, f, _ in FUNCTIONS["identify"])


def instrument(tracer: Tracer, selid) -> Rebinding:
    """Wrappers for every function and method above in the live modules.

    ``selid`` maps module short names (``"graph"``, ``"oracle"``, ...) to
    the imported modules.  Every module attribute bound to a wrapped
    function is rebound, so names imported with ``from ... import`` are
    traced too.  The returned rebinding is disabled until ``enable``.
    """
    rebinding = Rebinding()
    modules = selid_modules()

    def on_table(result):
        cells = len(result.data)
        tracer.counts["oracle.cells_out"] += cells
        if cells > tracer.max_cells:
            tracer.max_cells = cells

    def on_chain_fix(result):
        if result.factors is None:
            tracer.counts["estimand.chain_degraded"] += 1

    def on_verdict(result):
        # only verdicts that leave the identify layer, not nested calls
        if not any(tracer.is_open(n) for n in IDENTIFY_ENTRIES):
            tracer.counts[f"identify.verdicts.{result.kind}"] += 1

    def on_verify(report):
        tracer.counts["oracle.trials"] += report.trials

    hooks = {
        "oracle.table_multiply": on_table,
        "oracle.table_sum_out": on_table,
        "oracle.table_conditional": on_table,
        "estimand.chain_fix": on_chain_fix,
        "oracle.verify": on_verify,
    }
    hooks.update({n: on_verdict for n in IDENTIFY_ENTRIES})

    for layer, entries in FUNCTIONS.items():
        for mod, fname, suffix in entries:
            name = f"{layer}.{suffix}"
            fn = getattr(selid[mod], fname)
            if rebind_function(rebinding, modules, fn, tracer.wrap(name, fn, hooks.get(name))) == 0:
                raise RuntimeError(f"no binding found for {mod}.{fname}")
    for layer, entries in METHODS.items():
        for mod, cls_name, meth, suffix in entries:
            name = f"{layer}.{suffix}"
            cls = getattr(selid[mod], cls_name)
            rebind_method(
                rebinding, cls, meth, lambda f, name=name: tracer.wrap(name, f, hooks.get(name))
            )

    # counters on hot paths: no clock reads
    rebind_method(rebinding, selid["graph"].Graph, "__post_init__",
                  lambda f: tracer.count("graph.construct", f))
    estimand = selid["estimand"]
    for cls in vars(estimand).values():
        if isinstance(cls, type) and issubclass(cls, estimand.Estimand) and "outcomes" in cls.__dict__:
            rebind_method(rebinding, cls, "outcomes", lambda f: tracer.count("estimand.outcomes", f))
    return rebinding
