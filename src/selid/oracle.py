"""Exact ground-truth engine: discrete selector SCMs with rational tables.

Everything here is exact: probabilities are ``fractions.Fraction`` values or
integers over a common denominator, laws are enumerated (with variable
elimination over latents), and every comparison is equality of rationals,
never a tolerance.  The module supplies random model generation,
observational/interventional laws, estimand evaluation, agreement witnesses
for non-identification verdicts, and the top-level ``verify`` entry point.

Two representations, one per side:

* **Law plans** (``_compile_law``) compute the laws of a model.  A plan is
  variable elimination worked out once per law shape: which factors to
  multiply, in which order, and which axes to sum.  It is recorded as
  gather indices and group widths, and replayed on the flat integer
  CPT vectors of each model of that shape (``_Laws``), so the models of one
  ``verify`` call or one witness pair share their plans.
* **Eval tables** (``Table``) hold the laws once computed, keyed by value
  tuples, and carry estimand evaluation: margins, conditionals, products,
  ratios and restrictions.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import random as _random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional

from .estimand import (
    BaseKernel,
    Estimand,
    FailureNode,
    Lo,
    Marginal,
    Product,
    Ratio,
    Restrict,
    SelectorAssign,
    SumOver,
    Sym,
    Var,
)
from .graph import Graph, SelectorSupport, SelectorValue
from .projection import bidirected_latents, canonical_hidden_dag

MAX_CELLS = 1 << 20


class OracleError(ValueError):
    pass


class Undefined:
    """Marker for kernel values at zero-mass contexts; absorbs arithmetic."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEF"


UNDEF = Undefined()


def _mul(a, b):
    if a is UNDEF:
        return 0 if b == 0 else UNDEF
    if b is UNDEF:
        return 0 if a == 0 else UNDEF
    return a * b


def _div(a, b):
    if a is UNDEF or b is UNDEF or b == 0:
        return UNDEF
    return Fraction(a, b)


def _has_undef(values) -> bool:
    return any(map(operator.is_, values, itertools.repeat(UNDEF)))


def _picker(idx):
    """Key function taking the row positions ``idx``, always as a tuple."""
    if not idx:
        return lambda vals: ()
    if len(idx) == 1:
        i = idx[0]
        return lambda vals: (vals[i],)
    return operator.itemgetter(*idx)


def _scaled(data: dict) -> Optional[tuple]:
    """``(numerators, denominator)``: the rational entries of ``data`` as
    integers over their least common denominator; None if any is UNDEF."""
    if _has_undef(data.values()):
        return None
    denom = math.lcm(*(p.denominator for p in data.values()))
    return {k: p.numerator * (denom // p.denominator) for k, p in data.items()}, denom


def _undef_sum(values):
    return UNDEF if _has_undef(values) else sum(values)


def _sum_rows(data: dict, key: Callable, total: Callable) -> dict:
    """Entries of ``data`` grouped by ``key`` of their rows, each group
    reduced by ``total``."""
    groups = collections.defaultdict(list)
    for k, p in zip(map(key, data), data.values()):
        groups[k].append(p)
    return {k: total(ps) for k, ps in groups.items()}


def _product_cells(tables) -> int:
    domains: dict = {}
    for t in tables:
        domains.update(t.domains)
    return math.prod(map(len, domains.values()))


def _joined(factors) -> tuple:
    """Axes and domains of the product of ``factors`` (anything with ``axes``
    and ``domains``) taken in order.  An axis whose domains differ keeps the
    common values: a join of supported selector values against the full
    response domain of a child row."""
    axes = list(factors[0].axes)
    domains = {a: factors[0].domains[a] for a in axes}
    for f in factors[1:]:
        for a in f.axes:
            if a not in domains:
                axes.append(a)
                domains[a] = f.domains[a]
            elif set(domains[a]) != set(f.domains[a]):
                common = set(f.domains[a])
                domains[a] = tuple(x for x in domains[a] if x in common)
    return axes, domains


# --------------------------------------------------------------------------
# eval tables


class Table:
    """Exact-rational factor over named axes, the eval-side representation.

    Laws arrive here from law plans; estimand evaluation (margins,
    conditionals, products, ratios, restrictions) works on these tables.
    ``given`` marks context axes: the table is normalized per assignment of
    those axes (a conditional), or overall when ``given`` is empty.

    Rows are value tuples in ``axes`` order.  Operations map axes to row
    positions once per call, and decide once per table whether UNDEF
    arithmetic is needed.  ``numerators`` is the integer form of ``data``,
    ``(integers keyed like data, common denominator)`` as ``_scaled`` gives
    it.  A table built from numerators alone makes ``data`` on first use;
    ``sum_out`` keeps the integer form, and ``conditional`` computes it once
    per table when it is missing.  While ``eval_estimand`` runs, a table
    keeps the margins its kernels take, and sums each new one from the
    smallest one already taken.
    """

    def __init__(self, axes, domains, data=None, given=frozenset(), numerators=None):
        self.axes = tuple(axes)
        self.domains = domains
        self.given = frozenset(given)
        self.numerators = numerators
        self._data = data
        self._margins = None  # axis set -> margin, while eval_estimand runs

    def __repr__(self):
        return f"Table(axes={self.axes!r}, given={sorted(self.given)!r}, data={self.data!r})"

    @property
    def data(self) -> dict:
        if self._data is None:
            nums, denom = self.numerators
            self._data = {k: Fraction(n, denom) for k, n in nums.items()}
        return self._data

    def value(self, assignment: Mapping):
        key = tuple(assignment[a] for a in self.axes)
        return self.data[key]

    def _key(self, axes) -> Callable:
        return _picker([self.axes.index(a) for a in axes])

    def multiply(self, other: "Table") -> "Table":
        axes, domains = _joined([self, other])
        shared = [a for a in self.axes if a in other.axes]
        extra = axes[len(self.axes):]
        other_key, other_extra = other._key(shared), other._key(extra)
        index: dict = {}
        for vals, q in other.data.items():
            index.setdefault(other_key(vals), []).append((other_extra(vals), q))
        mul = (
            _mul
            if _has_undef(self.data.values()) or _has_undef(other.data.values())
            else operator.mul
        )
        key = self._key(shared)
        data = {
            vals + ext: mul(p, q)
            for vals, p in self.data.items()
            for ext, q in index.get(key(vals), ())
        }
        return Table(axes, domains, data, self.given | other.given)

    def sum_out(self, axes: Iterable[str]) -> "Table":
        drop = frozenset(axes) & frozenset(self.axes)
        if not drop:
            return self
        axes_out = tuple(a for a in self.axes if a not in drop)
        key = self._key(axes_out)
        domains = {a: self.domains[a] for a in axes_out}
        if self.numerators is not None:
            nums, denom = self.numerators
            nums = _sum_rows(nums, key, sum)
            return Table(axes_out, domains, None, self.given - drop, (nums, denom))
        total = _undef_sum if _has_undef(self.data.values()) else sum
        return Table(axes_out, domains, _sum_rows(self.data, key, total), self.given - drop)

    def _size(self) -> int:
        return len(self._data if self._data is not None else self.numerators[0])

    def _margin(self, axes: frozenset) -> "Table":
        """The margin of this table over ``axes``, on the integer numerators
        when the table has them.  With margins kept, it is summed from the
        smallest kept margin that has all of ``axes`` and kept in turn."""
        if self.numerators is None:
            self.numerators = _scaled(self.data)
        if self._margins is None:
            return self.sum_out(frozenset(self.axes) - axes)
        t = self._margins.get(axes)
        if t is None:
            src = min((m for k, m in self._margins.items() if axes <= k), key=Table._size)
            t = self._margins[axes] = src.sum_out(frozenset(src.axes) - axes)
        return t

    def _kernel_margins(self, outcome: frozenset, context: frozenset) -> tuple:
        """The axis sets of the two margins ``conditional`` divides."""
        keep = (outcome | context | self.given) & frozenset(self.axes)
        return keep, keep - outcome

    def conditional(self, outcome: Iterable[str], context: Iterable[str]) -> "Table":
        """p(outcome | context) derived from this (conditional) table.

        Context axes of the table (``given``) that the requested kernel omits
        must not matter: the conditional is checked to be exactly constant
        across them and then read at an arbitrary slice.  Margins are taken
        on the integer numerators, whose common denominator cancels.
        """
        return self._conditional(frozenset(outcome), frozenset(context))

    def _conditional(self, outcome: frozenset, context: frozenset, only=None) -> "Table":
        """``conditional``; ``only = (axis, pattern)`` keeps just the rows
        whose selector value on that context axis has ``pattern``."""
        missing = self.given - context
        keep, rest = self._kernel_margins(outcome, context)
        base, den = self._margin(keep), self._margin(rest)
        if base.numerators is None:
            num_data, den_data = base.data, den.data
        else:
            num_data, den_data = base.numerators[0], den.numerators[0]
        den_key = base._key(den.axes)
        rows = num_data.items()
        if only is not None:
            i, pattern = base.axes.index(only[0]), only[1]
            rows = [(vals, p) for vals, p in rows if vals[i][0] == pattern]
        data = {vals: _div(p, den_data[den_key(vals)]) for vals, p in rows}
        out = Table(base.axes, dict(base.domains), data, context | missing)
        if missing:
            out = out.project_constant(missing)
        return out

    def project_constant(self, axes: Iterable[str]) -> "Table":
        """Drop axes the table provably does not vary over (exact check)."""
        drop = frozenset(axes) & frozenset(self.axes)
        if not drop:
            return self
        axes_out = tuple(a for a in self.axes if a not in drop)
        axes_drop = [a for a in self.axes if a in drop]
        key, drop_key = self._key(axes_out), self._key(axes_drop)
        ref = tuple(self.domains[a][0] for a in axes_drop)
        data = {key(vals): p for vals, p in self.data.items() if drop_key(vals) == ref}
        get = data.get
        for vals, p in self.data.items():
            if get(key(vals)) != p:
                raise OracleError(
                    f"kernel is not constant over context axes {sorted(drop)}"
                )
        return Table(
            axes_out,
            {a: self.domains[a] for a in axes_out},
            data,
            self.given - drop,
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        axes = tuple(mapping.get(a, a) for a in self.axes)
        if len(set(axes)) != len(axes):
            raise OracleError("axis rename collision")
        domains = {mapping.get(a, a): d for a, d in self.domains.items()}
        given = frozenset(mapping.get(a, a) for a in self.given)
        return Table(axes, domains, dict(self.data), given)

    def select_equal(self, a: str, b: str, drop: str) -> "Table":
        """Keep entries where axes ``a`` and ``b`` agree, dropping ``drop``."""
        ia, ib = self.axes.index(a), self.axes.index(b)
        axes = tuple(x for x in self.axes if x != drop)
        key = self._key(axes)
        data = {key(vals): p for vals, p in self.data.items() if vals[ia] == vals[ib]}
        domains = {x: self.domains[x] for x in axes}
        return Table(axes, domains, data, self.given - {drop})

    def defined_everywhere(self) -> bool:
        return not _has_undef(self.data.values())

    def _aligned(self, other: "Table"):
        """Pairs (own entry, entry of ``other``) over the rows of ``other``."""
        key = other._key(self.axes)
        data = self.data
        return ((data[key(vals)], q) for vals, q in other.data.items())

    def total_variation(self, other: "Table") -> Fraction:
        if set(self.axes) != set(other.axes):
            raise OracleError("total variation over mismatched axes")
        tv = Fraction(0)
        for p, q in self._aligned(other):
            if p is UNDEF or q is UNDEF:
                raise OracleError("total variation over undefined entries")
            tv += abs(p - q)
        return tv / 2

    def equals(self, other: "Table") -> bool:
        if set(self.axes) != set(other.axes):
            return False
        return all(p == q for p, q in self._aligned(other))


def _slice(t: Table, fixed: Mapping) -> Table:
    """The rows of ``t`` at the values ``fixed`` gives, without those axes."""
    at = [a for a in t.axes if a in fixed]
    if not at:
        return t
    axes = tuple(a for a in t.axes if a not in fixed)
    key, pick = t._key(axes), t._key(at)
    want = tuple(fixed[a] for a in at)
    data = {key(vals): p for vals, p in t.data.items() if pick(vals) == want}
    return Table(axes, {a: t.domains[a] for a in axes}, data, t.given - frozenset(fixed))


def selector_domain(support: SelectorSupport, child_sizes: Mapping[str, int]) -> tuple:
    """All concrete selector values: (sorted pattern, matching value tuple)."""
    out = []
    for pattern in support:
        kids = tuple(sorted(pattern))
        for vals in itertools.product(*(range(child_sizes[c]) for c in kids)):
            out.append((kids, vals))
    return tuple(out)


# --------------------------------------------------------------------------
# discrete context-selected SCMs


class _SelectorDomains:
    """Vertex domains of a model with ``graph``, ``sizes`` and ``support``:
    the selector ranges over (sorted pattern, value tuple) pairs."""

    @property
    def selector(self):
        return self.graph.selector

    def domain(self, v) -> tuple:
        if v == self.selector:
            return selector_domain(self.support, self.sizes)
        return tuple(range(self.sizes[v]))

    def response_support(self) -> SelectorSupport:
        """Patterns the mechanisms must respond to: the declared support plus
        the observational value (always a legal intervention)."""
        return SelectorSupport(self.support.patterns | {frozenset()})

    def row_domain(self, v) -> tuple:
        """Domain used when enumerating mechanism rows: children of the
        selector carry rows for every response value, supported or not."""
        if v == self.selector:
            return selector_domain(self.response_support(), self.sizes)
        return tuple(range(self.sizes[v]))


@dataclass
class DiscreteCsScm(_SelectorDomains):
    """Exact-rational SCM over a full DAG with optional selector semantics.

    ``cpts`` maps each vertex to ``(parents, rows)`` where rows map a parent
    assignment (values in ``parents`` order) to a mapping value -> Fraction.
    Children of the selector obey the intervene/natural case split by
    construction of their rows.
    """

    graph: Graph  # full DAG: observed + latent (+ selector)
    sizes: dict  # vertex -> domain size (non-selector vertices)
    cpts: dict  # vertex -> (parents tuple, {pa values: {value: Fraction}})
    support: Optional[SelectorSupport] = None

    def observed(self) -> frozenset:
        return self.graph.random - self.graph.latent

    def validate(self):
        """Check normalization and the selector case split (mechanism
        invariance across laidback values, forced values when serious)."""
        sel = self.selector
        for v, (parents, rows) in sorted(self.cpts.items()):
            dom = self.domain(v)
            for pa_vals, dist in rows.items():
                total = sum(dist.values())
                if total != 1:
                    raise OracleError(f"rows of {v} must sum to 1 exactly")
                if set(dist) != set(dom):
                    raise OracleError(f"row of {v} misses domain values")
            if sel is not None and sel in parents and v != sel:
                si = parents.index(sel)
                base_by_rest: dict = {}
                for pa_vals, dist in rows.items():
                    sval = pa_vals[si]
                    rest = tuple(x for i, x in enumerate(pa_vals) if i != si)
                    pattern, values = sval
                    if v in pattern:
                        forced = values[pattern.index(v)]
                        if dist.get(forced) != 1:
                            raise OracleError(
                                f"{v} must equal its forced value when intervened"
                            )
                    else:
                        if rest in base_by_rest and base_by_rest[rest] != dist:
                            raise OracleError(
                                f"{v} must reuse its natural mechanism across "
                                "laidback selector values"
                            )
                        base_by_rest[rest] = dist
        return True

    # -- laws -----------------------------------------------------------------

    def _cells(self, axes) -> int:
        return math.prod(len(self.domain(a)) for a in axes)

    def _fixed_values(self, a: Mapping, s: Optional[SelectorValue]) -> dict:
        """The values an intervention fixes: ``a`` plus, in a model with a
        selector, the selector's (sorted pattern, value tuple) for ``s``."""
        sel = self.selector
        if sel is not None and s is None:
            raise OracleError("models with a selector need a selector value")
        if sel is not None and s.pattern and s.pattern not in self.response_support():
            raise OracleError("selector pattern outside the response domain")
        for v, val in a.items():
            if v == sel:
                raise OracleError("intervene on the selector via its own slot")
            if val not in self.domain(v):
                raise OracleError(f"value {val!r} outside the domain of {v}")
        fixed = dict(a)
        if sel is not None:
            svals = dict(s.values)
            pattern = tuple(sorted(s.pattern))
            fixed[sel] = (pattern, tuple(svals[c] for c in pattern))
        return fixed

    def joint(self) -> Table:
        """Exact observational joint over the observed vertices (selector
        included), latents summed out by variable elimination."""
        return _Laws().joint(self)

    def interventional(self, a: Mapping, s: Optional[SelectorValue] = None) -> Table:
        """Truncated factorization: intervened factors (and the selector's)
        are dropped and their values substituted; latents summed out."""
        fixed = self._fixed_values(a, s)
        return _Laws().law(self, fixed, frozenset(), self.observed() - frozenset(fixed))


# --------------------------------------------------------------------------
# law plans


class _Operand:
    """A factor of a law plan: its ``axes`` and ``domains``, and where its
    rows sit in run vector ``slot``.  ``place`` maps each axis to its
    row-major stride and the positions of its values; ``offset`` is the
    constant part that axes fixed to one value contribute."""

    __slots__ = ("axes", "domains", "slot", "place", "offset", "cells")

    def __init__(self, slot: int, layout, domains: Mapping, fixed: Mapping):
        self.slot = slot
        self.place = {}
        self.offset = 0
        stride = 1
        for a in reversed(layout):
            pos = {x: i for i, x in enumerate(domains[a])}
            if a in fixed:
                if fixed[a] not in pos:
                    raise OracleError(f"value {fixed[a]!r} outside the domain of {a}")
                self.offset += stride * pos[fixed[a]]
            else:
                self.place[a] = (stride, pos)
            stride *= len(pos)
        self.axes = tuple(a for a in layout if a not in fixed)
        self.domains = {a: domains[a] for a in self.axes}
        self.cells = math.prod(len(self.domains[a]) for a in self.axes)

    def gather(self, axes, domains: Mapping) -> list:
        """Positions of this factor's rows for every row of the row-major
        table over ``axes``; axes the factor lacks are broadcast."""
        idx = [self.offset]
        for a in axes:
            if a in self.place:
                stride, pos = self.place[a]
                steps = [stride * pos[x] for x in domains[a]]
            else:
                steps = [0] * len(domains[a])
            idx = [i + d for i in idx for d in steps]
        return idx


class _LawPlan:
    """Variable elimination for one law shape, recorded to be replayed.

    ``vertices`` name the CPT vectors a run starts from (slots 0, 1, ...).
    Each step multiplies its inputs, ``(slot, gather indices)`` pairs, cell
    by cell, sums consecutive groups of ``width`` cells, and appends the
    result as the next slot; a step without inputs is all ones.  Every
    factor enters exactly one product, so a step releases its inputs.  The
    last slot holds the law over ``axes`` in row-major order (rows ``keys``).
    """

    def __init__(self, vertices, steps, axes, domains, given):
        self.vertices = vertices
        self.steps = steps
        self.axes = tuple(axes)
        self.domains = domains
        self.given = frozenset(given)
        self.keys = list(itertools.product(*(domains[a] for a in self.axes)))

    def run(self, vectors: Mapping) -> Table:
        """The law of the model whose CPT vectors (``_cpt_vectors``) these
        are, as integer numerators over the product of CPT denominators."""
        slots = [vectors[v][0] for v in self.vertices]
        for inputs, width, cells in self.steps:
            if inputs:
                (s, idx), *rest = inputs
                acc = map(slots[s].__getitem__, idx)
                for s, idx in rest:
                    acc = map(operator.mul, acc, map(slots[s].__getitem__, idx))
            else:
                acc = itertools.repeat(1, cells)
            slots.append(list(acc) if width == 1 else list(map(sum, zip(*[acc] * width))))
            for s, _ in inputs:
                slots[s] = None
        denom = math.prod(vectors[v][1] for v in self.vertices)
        nums = dict(zip(self.keys, slots[-1]))
        return Table(self.axes, dict(self.domains), None, self.given, (nums, denom))


def _compile_law(m: DiscreteCsScm, fixed: Mapping, free: frozenset, out_axes: frozenset) -> _LawPlan:
    """The plan of the law of ``m`` over ``out_axes`` with the factors of
    ``fixed`` and ``free`` vertices dropped: ``fixed`` axes are held at their
    values, ``free`` axes stay as context (``given``) axes of the result.

    Latents are eliminated smallest product first, ties to the first name,
    so the order never depends on set iteration; what is left is multiplied
    and summed down to ``out_axes``.  The output lists the kept axes in
    product order, then the free axes sorted, broadcast where no factor has
    them.  Every product is sized before anything runs, and one over
    ``MAX_CELLS`` raises ``OracleError``.
    """
    if m.selector in free:
        raise OracleError("intervene on the selector via its own slot")
    if m._cells(m.observed()) > MAX_CELLS:
        raise OracleError("observed state space exceeds the enumeration cap")
    vertices = [v for v in m.graph.topological_order() if v not in fixed and v not in free]
    ops = []
    for slot, v in enumerate(vertices):
        parents = m.cpts[v][0]
        domains = {p: m.row_domain(p) for p in parents}
        domains[v] = m.domain(v)
        ops.append(_Operand(slot, parents + (v,), domains, fixed))
    steps = []

    def product(factors: list, keep: list, summed: list, domains: Mapping) -> _Operand:
        layout = keep + summed
        cells = math.prod(len(domains[a]) for a in layout)
        if cells > MAX_CELLS:
            raise OracleError(
                f"an intermediate factor of {cells} cells exceeds the enumeration cap"
            )
        width = math.prod(len(domains[a]) for a in summed)
        gathers = [(f.slot, array("l", f.gather(layout, domains))) for f in factors]
        steps.append((gathers, width, cells))
        return _Operand(len(vertices) + len(steps) - 1, keep, domains, {})

    left = sorted(m.graph.latent - frozenset(fixed) - free)
    while left:
        h = min(left, key=lambda v: _product_cells(op for op in ops if v in op.axes))
        left.remove(h)
        # smallest first: this order fixes the axis order of the product
        touching = sorted((op for op in ops if h in op.axes), key=lambda op: op.cells)
        ops = [op for op in ops if h not in op.axes]
        if touching:
            axes, domains = _joined(touching)
            ops.append(product(touching, [a for a in axes if a != h], [h], domains))
    ops.sort(key=lambda op: op.cells)
    axes, domains = _joined(ops) if ops else ([], {})
    keep = [a for a in axes if a in out_axes and a not in free] + sorted(free)
    for v in free:
        domains.setdefault(v, m.domain(v))
    out = product(ops, keep, [a for a in axes if a not in keep], domains)
    return _LawPlan(vertices, steps, keep, out.domains, free)


def _cpt_vectors(m: DiscreteCsScm) -> dict:
    """vertex -> (integers, denominator): each CPT of ``m`` as one vector over
    its least common denominator, in the row-major layout of its law-plan
    factor (parent row domains in order, then the vertex's own domain).
    A missing row or value counts as zero."""
    out = {}
    for v, (parents, rows) in m.cpts.items():
        dom = m.domain(v)
        probs = []
        for pa_vals in itertools.product(*(m.row_domain(p) for p in parents)):
            dist = rows.get(pa_vals, {})
            probs.extend(dist.get(x, 0) for x in dom)
        denom = math.lcm(*(p.denominator for p in probs))
        out[v] = ([p.numerator * (denom // p.denominator) for p in probs], denom)
    return out


class _Laws:
    """Laws of the models of one shape (DAG, domain sizes, support).

    Each law plan is compiled on first use, keyed by its fixed values, free
    vertices and output axes, and replayed for every model; the CPT vectors
    of the model last asked about are kept, so a model's CPTs are scaled to
    integers once however many of its laws are taken in a row.
    """

    def __init__(self):
        self._plans: dict = {}
        self._model = None
        self._vectors = None

    def law(self, m: DiscreteCsScm, fixed: Mapping, free: frozenset, out_axes: frozenset) -> Table:
        key = (tuple(sorted(fixed.items())), free, out_axes)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _compile_law(m, fixed, free, out_axes)
        if m is not self._model:
            self._model, self._vectors = m, _cpt_vectors(m)
        return plan.run(self._vectors)

    def joint(self, m: DiscreteCsScm) -> Table:
        return self.law(m, {}, frozenset(), m.observed())

    def dataset(self, m: DiscreteCsScm, z, s: Optional[SelectorValue]) -> Table:
        """p(V - Z | do(Z)) for every value of Z at once: the factors of Z
        are dropped and its axes kept, last, as context axes."""
        if not z:
            return self.joint(m)
        fixed = m._fixed_values({}, s)
        return self.law(m, fixed, frozenset(z), m.observed() - frozenset(fixed))

    def query(self, m: DiscreteCsScm, query) -> Table:
        """p(query outcomes | do(treatments)) for every treatment value at
        once, at the observational selector value when there is one; the
        treatment axes are context axes."""
        fixed = m._fixed_values({}, SelectorValue() if m.selector is not None else None)
        return self.law(m, fixed, query.treated, query.outcomes | query.treated)


# --------------------------------------------------------------------------
# random model generation


def _rational_dist(rng: _random.Random, n: int) -> dict:
    weights = [rng.randint(1, 16) for _ in range(n)]
    total = sum(weights)
    return {i: Fraction(w, total) for i, w in enumerate(weights)}


def _point(n: int, value) -> dict:
    return {k: Fraction(1 if k == value else 0) for k in range(n)}


def _build_model(dag: Graph, support, mechanism, domain_size: int = 2) -> DiscreteCsScm:
    """Assemble a CS-SCM from per-vertex laidback mechanisms.

    ``mechanism(v, parents, pa_vals)`` returns the natural-case distribution
    of ``v`` (or a selector-domain distribution for the selector itself).
    The intervene case of selector children is enforced here: a child the
    selector value intervenes on takes its forced value, and the mechanism
    is not asked for that row.  The other rows are asked for in
    ``itertools.product`` order.
    """
    sel = dag.selector
    sizes = {v: domain_size for v in dag.vertices if v != sel}
    m = DiscreteCsScm(dag, sizes, {}, support)
    for v in dag.topological_order():
        parents = tuple(sorted(dag.parents(v)))
        si = parents.index(sel) if v != sel and sel in parents else None
        rows = {}
        for pa_vals in itertools.product(*(m.row_domain(p) for p in parents)):
            if si is not None:
                pattern, values = pa_vals[si]
                if v in pattern:
                    rows[pa_vals] = _point(domain_size, values[pattern.index(v)])
                    continue
            rows[pa_vals] = mechanism(v, parents, pa_vals)
        m.cpts[v] = (parents, rows)
    return m


def random_cs_scm(
    g: Graph,
    support: Optional[SelectorSupport] = None,
    seed: int = 0,
    domain_size: int = 2,
) -> DiscreteCsScm:
    """Seeded random model on the full DAG ``g`` obeying the selector case
    split; all rows strictly positive with denominators at most 64."""
    if domain_size < 2:
        raise OracleError("domain size must be at least 2")
    if any(e.kind != "directed" for e in g.edges):
        raise OracleError("models are defined over DAGs; project or expand first")
    rng = _random.Random(seed)
    sel = g.selector
    if sel is not None and support is None:
        support = g.support
    if sel is not None and support is None:
        raise OracleError("selector models need a support")
    sel_dom = ()
    if sel is not None:
        sel_dom = selector_domain(support, {v: domain_size for v in g.vertices if v != sel})
    # a selector child draws its natural row on the first row with the same
    # non-selector parent values; that row has the observational selector
    # value (first in its row domain), so the draws follow the product of
    # the non-selector parents
    natural: dict = {}

    def mechanism(v, parents, pa_vals):
        if v == sel:
            return dict(zip(sel_dom, _rational_dist(rng, len(sel_dom)).values()))
        if sel not in parents:
            return _rational_dist(rng, domain_size)
        rest = (v,) + tuple(x for p, x in zip(parents, pa_vals) if p != sel)
        if rest not in natural:
            natural[rest] = _rational_dist(rng, domain_size)
        return dict(natural[rest])

    return _build_model(g, support, mechanism, domain_size)


def joint(m: DiscreteCsScm) -> Table:
    return m.joint()


def interventional(m: DiscreteCsScm, a: Mapping, s: Optional[SelectorValue] = None) -> Table:
    return m.interventional(a, s)


# --------------------------------------------------------------------------
# estimand evaluation


def _base_kernels(e: Estimand) -> set:
    """The ``BaseKernel`` nodes of ``e``, shared subtrees walked once."""
    seen, kernels, stack = set(), set(), [e]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            if isinstance(x, BaseKernel):
                kernels.add(x)
            stack.extend(getattr(x, "children", ()))
            stack.extend(getattr(x, a) for a in ("child", "num", "den") if hasattr(x, a))
    return kernels


def eval_estimand(e: Estimand, tables: Mapping[str, Table]) -> Table:
    """Bottom-up exact evaluation; symbolic tokens become table axes and
    zero-mass contexts evaluate to an undefined marker that propagates.

    The margins every ``BaseKernel`` divides are taken first, largest axis
    set first, and kept for this evaluation, so each is summed from the
    smallest margin of the same table already taken rather than from the
    whole table."""
    wanted = {
        (k.name, axes)
        for k in _base_kernels(e)
        if k.name in tables
        for axes in tables[k.name]._kernel_margins(k.outcome, k.context)
    }
    kept = {name: tables[name] for name, _ in wanted}
    for t in kept.values():
        t._margins = {frozenset(t.axes): t}
    try:
        for name, axes in sorted(wanted, key=lambda w: (-len(w[1]), w[0], sorted(w[1]))):
            kept[name]._margin(axes)
        return _evaluate(e, tables)
    finally:
        for t in kept.values():
            t._margins = None


def _kernel_slice(e: Restrict, tables: Mapping[str, Table]):
    """``(axis, pattern)`` when ``e`` restricts a ``BaseKernel`` to a
    selector pattern on one of its context axes, so the kernel need only be
    divided on rows of that pattern; None otherwise.  Only kernels whose
    context covers the table's context axes qualify: for the others the
    constancy check of ``project_constant`` must see every row."""
    k = e.child
    if not isinstance(k, BaseKernel) or k.name not in tables:
        return None
    t = tables[k.name]
    if not t.given <= k.context:
        return None
    for var, val in e.assignment:
        if isinstance(val, SelectorAssign) and var in k.context and var in t.axes:
            return var, tuple(sorted(val.pattern))
    return None


def _evaluate(e: Estimand, tables: Mapping[str, Table]) -> Table:
    if isinstance(e, BaseKernel):
        if e.name not in tables:
            raise OracleError(f"no table for kernel {e.name!r}")
        return tables[e.name].conditional(e.outcome, e.context)
    if isinstance(e, (Marginal, SumOver)):
        t = _evaluate(e.child, tables)
        return t.sum_out(e.over)
    if isinstance(e, Product):
        t = _evaluate(e.children[0], tables)
        for c in e.children[1:]:
            t = t.multiply(_evaluate(c, tables))
        return t
    if isinstance(e, Ratio):
        num = _evaluate(e.num, tables)
        den = _evaluate(e.den, tables)
        if not set(den.axes) <= set(num.axes):
            raise OracleError("ratio denominator misses axes of the numerator")
        den_key, dd = num._key(den.axes), den.data
        try:
            data = {vals: _div(p, dd[den_key(vals)]) for vals, p in num.data.items()}
        except KeyError:
            raise OracleError("ratio denominator misses rows of the numerator")
        return Table(num.axes, dict(num.domains), data, num.given | den.given)
    if isinstance(e, Restrict):
        only = _kernel_slice(e, tables)
        if only is None:
            t = _evaluate(e.child, tables)
        else:
            t = tables[e.child.name]._conditional(e.child.outcome, e.child.context, only)
        for var, val in e.assignment:
            t = _apply_restriction(t, var, val)
        return t
    if isinstance(e, FailureNode):
        raise OracleError(f"cannot evaluate a failure node ({e.reason})")
    raise OracleError(f"unknown estimand node {type(e).__name__}")


def _apply_restriction(t: Table, var: str, val) -> Table:
    if var not in t.axes:
        return t
    if isinstance(val, Sym):
        name = val.name
        if name == var:
            return t
        if name in t.axes:
            return t.select_equal(name, var, drop=var)
        return t.rename({var: name})
    if isinstance(val, Var):
        w = val.vertex
        if w == var:
            return t
        if w in t.axes:
            return t.select_equal(w, var, drop=var)
        return t.rename({var: w})
    if isinstance(val, SelectorAssign):
        # rows carry the selector value (pattern, component values) with the
        # components in sorted-pattern order; each component moves into a
        # token axis, is matched against an axis, or is matched to a literal
        pattern = tuple(sorted(val.pattern))
        idx = t.axes.index(var)
        comp_tokens = dict(val.values)
        base_axes = tuple(a for a in t.axes if a != var)
        domains = {a: t.domains[a] for a in base_axes}
        child_domain = {}
        for kids, cvals in t.domains[var]:
            for c, cv in zip(kids, cvals):
                child_domain.setdefault(c, set()).add(cv)
        new_axes = list(base_axes)
        extend = []  # component positions that become new axes
        bound = {}  # token -> the component position whose axis it became
        match = []  # (component position, row position) that must agree
        same = []  # (component position, earlier component position)
        literal = []  # (component position, value)
        for ci, c in enumerate(pattern):
            tok = comp_tokens[c]
            name = None
            if isinstance(tok, (Sym, Var)):
                name = tok.name if isinstance(tok, Sym) else tok.vertex
            if name is None:
                literal.append((ci, min(child_domain[c]) if isinstance(tok, Lo) else tok))
            elif name in bound:
                same.append((ci, bound[name]))
            elif name in base_axes:
                match.append((ci, t.axes.index(name)))
            else:
                bound[name] = ci
                new_axes.append(name)
                extend.append(ci)
                domains[name] = tuple(sorted(child_domain[c]))
        key, extra = t._key(base_axes), _picker(extend)
        out = {}
        for vals, p in t.data.items():
            kids, cvals = vals[idx]
            if kids != pattern:
                continue
            if (
                any(cvals[ci] != vals[i] for ci, i in match)
                or any(cvals[ci] != cvals[cj] for ci, cj in same)
                or any(cvals[ci] != lit for ci, lit in literal)
            ):
                continue
            k = key(vals) + extra(cvals)
            if k in out:
                raise OracleError("selector restriction is not single-valued")
            out[k] = p
        return Table(tuple(new_axes), domains, out, t.given - {var})
    raise OracleError(f"unknown restriction value {val!r}")


# --------------------------------------------------------------------------
# functional models: deterministic mechanisms over explicit noises, for
# counterfactual (single-world) laws


@dataclass
class FunctionalCsScm(_SelectorDomains):
    """Structural-equation form: each vertex is a deterministic function of
    its parents and a private noise; the selector case split is enforced.
    Counterfactual laws are enumerable by integrating over the noises."""

    graph: Graph
    sizes: dict
    support: Optional[SelectorSupport]
    noise: dict  # vertex -> {value: Fraction}
    mech: dict  # vertex -> {(pa values, noise value): value}

    def counterfactual_law(self, a: Mapping, s: Optional[SelectorValue] = None) -> Table:
        """The single-world law p(V(a, s)): counterfactuals of non-intervened
        vertices jointly with the natural values of intervened ones."""
        sel = self.selector
        fixed_vals = dict(a)
        if s is not None:
            if sel is None:
                raise OracleError("selector value given for a selector-free model")
            svals = dict(s.values)
            fixed_vals[sel] = (
                tuple(sorted(s.pattern)),
                tuple(svals[c] for c in sorted(s.pattern)),
            )
        order = self.graph.topological_order()
        observed = sorted(self.graph.random - self.graph.latent)
        noise_vars = sorted(self.noise)
        parents_of = {v: tuple(sorted(self.graph.parents(v))) for v in order}
        axes = tuple(observed)
        domains = {v: self.domain(v) for v in observed}
        data: dict = {}
        for combo in itertools.product(*(sorted(self.noise[v]) for v in noise_vars)):
            eps = dict(zip(noise_vars, combo))
            w = Fraction(1)
            for v, val in eps.items():
                w *= self.noise[v][val]
            natural: dict = {}
            downstream: dict = {}
            for v in order:
                pa_vals = tuple(downstream[p] for p in parents_of[v])
                val = self.mech[v][(pa_vals, eps[v])]
                natural[v] = val
                downstream[v] = fixed_vals.get(v, val)
            key = tuple(natural[v] for v in observed)
            data[key] = data.get(key, Fraction(0)) + w
        full = {}
        for vals in itertools.product(*(domains[v] for v in observed)):
            full[vals] = data.get(vals, Fraction(0))
        return Table(axes, domains, full)


def random_functional_cs_scm(
    g: Graph,
    support: Optional[SelectorSupport] = None,
    seed: int = 0,
    domain_size: int = 2,
) -> FunctionalCsScm:
    """Seeded random structural-equation model obeying the selector case split."""
    if any(e.kind != "directed" for e in g.edges):
        raise OracleError("functional models are defined over DAGs")
    rng = _random.Random(seed)
    sel = g.selector
    if sel is not None and support is None:
        support = g.support
    sizes = {v: domain_size for v in g.vertices if v != sel}
    m = FunctionalCsScm(g, sizes, support, {}, {})
    for v in g.topological_order():
        dom = m.domain(v)
        n_noise = len(dom) + 1
        m.noise[v] = _rational_dist(rng, n_noise)
        parents = tuple(sorted(g.parents(v)))
        table = {}
        for pa_vals in itertools.product(*(m.row_domain(p) for p in parents)):
            forced = None
            if sel is not None and sel in parents and v != sel:
                sval = pa_vals[parents.index(sel)]
                pattern, values = sval
                if v in pattern:
                    forced = values[pattern.index(v)]
            base = [rng.choice(dom) for _ in range(n_noise)]
            for nz in range(n_noise):
                table[(pa_vals, nz)] = forced if forced is not None else base[nz]
        m.mech[v] = table
    return m


# --------------------------------------------------------------------------
# agreement witnesses for non-identification verdicts


def _uniform(n: int) -> dict:
    return {k: Fraction(1, n) for k in range(n)}


def _sel_uniform(sel_dom) -> dict:
    return {sv: Fraction(1, len(sel_dom)) for sv in sel_dom}


def _sel_pattern_uniform(sel_dom, pattern: tuple) -> dict:
    hits = [sv for sv in sel_dom if sv[0] == pattern]
    out = {sv: Fraction(0) for sv in sel_dom}
    for sv in hits:
        out[sv] = Fraction(1, len(hits))
    return out


def _never_laidback_members(support: SelectorSupport, vertices) -> list:
    out = []
    for v in sorted(vertices):
        if all(v in p for p in support):
            out.append(v)
    return out


def positivity_witness_pair(g: Graph, query, district) -> tuple:
    """Two models agreeing exactly on the supported observed law but
    disagreeing on the query: the natural mechanism of a never-laidback
    vertex is unobservable, and a copy path carries the difference to the
    outcome."""
    if g.selector is None or g.support is None:
        raise OracleError("positivity witnesses need a selector with support")
    candidates = _never_laidback_members(g.support, district)
    if not candidates:
        raise OracleError(
            "no single never-laidback vertex; construction unsupported"
        )
    z = candidates[0]
    path_pred = _carrier_path(g, query, z)
    dag = canonical_hidden_dag(g)
    sel_dom = selector_domain(g.support, {v: 2 for v in dag.vertices if v != g.selector})

    def mech(zvalue):
        def mechanism(v, parents, pa_vals):
            if v == g.selector:
                return _sel_uniform(sel_dom)
            if v == z:
                return _point(2, zvalue)
            if v in path_pred:
                p = path_pred[v]
                return _point(2, pa_vals[parents.index(p)])
            return _uniform(2)

        return mechanism

    m1 = _build_model(dag, g.support, mech(0))
    m2 = _build_model(dag, g.support, mech(1))
    return m1, m2


def hedge_witness_pair(g: Graph, district, closure) -> tuple:
    """Bit-parity pair for a hedge: inside the closure every vertex is the
    parity of its incoming bits; the second model blinds the district to
    everything outside it.  Exactly agreeing observed laws, different query."""
    district = frozenset(district)
    closure = frozenset(closure)
    sel = g.selector
    us_of = {v: [] for v in g.vertices}
    dag = canonical_hidden_dag(g)
    for e, u in bidirected_latents(g).items():
        if e.endpoints() <= closure:
            us_of[e.tail].append(u)
            us_of[e.head].append(u)

    laid_pattern = serious_pattern = None
    sel_dom = ()
    if sel is not None and sel in closure:
        if g.support is None:
            raise OracleError("selector hedges need a support")
        laid = [p for p in g.support if not (p & district)]
        if not laid:
            raise OracleError("no laidback pattern; use the positivity witness")
        laid_pattern = tuple(sorted(laid[0]))
        others = [p for p in g.support if tuple(sorted(p)) != laid_pattern]
        if not others:
            raise OracleError("selector hedge needs at least two support patterns")
        serious_pattern = tuple(sorted(others[0]))
        sel_dom = selector_domain(g.support, {v: 2 for v in dag.vertices if v != sel})

    def parity_inputs(v, blind: bool):
        scope = district if blind else closure
        ins = [p for p in g.parents(v) if p in scope and p != sel]
        ins += [
            u
            for u in us_of[v]
            if not blind or dag.children(u) <= district
        ]
        return sorted(set(ins))

    def mech(blind_district: bool):
        def mechanism(v, parents, pa_vals):
            asg = dict(zip(parents, pa_vals))
            if v == sel:
                bit = 0
                for u in us_of[v]:
                    bit ^= asg[u]
                pattern = serious_pattern if bit else laid_pattern
                return _sel_pattern_uniform(sel_dom, pattern)
            if v not in closure:
                return _uniform(2)
            blind = blind_district and v in district
            bit = 0
            for w in parity_inputs(v, blind):
                val = asg[w]
                bit ^= val
            return _point(2, bit)

        return mechanism

    m1 = _build_model(dag, g.support, mech(False))
    m2 = _build_model(dag, g.support, mech(True))
    return m1, m2


def _witness_separation(query, m1, m2) -> Fraction:
    """The largest total variation between the two models' query laws over
    all treatment values; 0 when their observed laws differ.  A pair is a
    valid witness exactly when this is positive.  The pair shares its law
    plans."""
    laws = _Laws()
    if not laws.joint(m1).equals(laws.joint(m2)):
        return Fraction(0)
    q1, q2 = laws.query(m1, query), laws.query(m2, query)
    return max(
        _slice(q1, vert_vals).total_variation(_slice(q2, vert_vals))
        for vert_vals, _ in _token_bindings(query, m1.sizes)
    )


def _carrier_path(g: Graph, query, start: str) -> dict:
    """Copy-path predecessors from ``start`` to a query outcome, avoiding
    treatments and the selector; empty when start is itself an outcome."""
    treated = frozenset(v for v, _ in query.treatments)
    sub = g.induced_subgraph(g.random - treated - ({g.selector} - {start}))
    target = frozenset(query.outcomes)
    if start in target:
        return {}
    prev = {start: None}
    frontier = [start]
    goal = None
    while frontier and goal is None:
        nxt = []
        for v in frontier:
            for w in sorted(sub.children(v)):
                if w not in prev:
                    prev[w] = v
                    if w in target:
                        goal = w
                        break
                    nxt.append(w)
            if goal:
                break
        frontier = nxt
    if goal is None:
        raise OracleError("no carrier path from the witness vertex to the outcome")
    path_pred = {}
    v = goal
    while prev[v] is not None:
        path_pred[v] = prev[v]
        v = prev[v]
    return path_pred


def adjacent_child_witness_pair(g: Graph, query, district, closure) -> tuple:
    """Hedge witness for a selector bidirected-adjacent to one of its children:
    the child's natural value reads the shared latent bit, which also drives
    the selector's seriousness, so the natural value is only ever observed at
    bit zero; freeing the bit under the observational intervention separates
    the models, and a copy path carries the difference to the outcome."""
    sel = g.selector
    if sel is None or sel not in closure or g.support is None:
        raise OracleError("construction needs a selector inside the closure")
    district = frozenset(district)
    latents = bidirected_latents(g)
    options = []
    for e, u in latents.items():
        if sel not in e.endpoints():
            continue
        other = next(iter(e.endpoints() - {sel}))
        if other in g.children(sel) and other in closure:
            options.append((other not in district, other, u))
    if not options:
        raise OracleError("the selector has no bidirected-adjacent child here")
    _, child, u_name = sorted(options)[0]
    laid = [p for p in g.support if not (p & district)]
    serious = [p for p in g.support if child in p]
    if not laid or not serious:
        raise OracleError("support cannot express the child's two regimes")
    laid_pattern = tuple(sorted(laid[0]))
    serious_pattern = tuple(sorted(serious[0]))
    path_pred = _carrier_path(g, query, child)

    dag = canonical_hidden_dag(g)
    sel_dom = selector_domain(g.support, {v: 2 for v in dag.vertices if v != sel})

    def mech(blind: bool):
        def mechanism(v, parents, pa_vals):
            asg = dict(zip(parents, pa_vals))
            if v == sel:
                pattern = serious_pattern if asg[u_name] else laid_pattern
                return _sel_pattern_uniform(sel_dom, pattern)
            if v == child:
                return _point(2, 0 if blind else asg[u_name])
            if v in path_pred:
                return _point(2, asg[path_pred[v]])
            return _uniform(2)

        return mechanism

    m1 = _build_model(dag, g.support, mech(False))
    m2 = _build_model(dag, g.support, mech(True))
    return m1, m2


def _certified_witness(g: Graph, query, failure) -> tuple:
    """``((m1, m2), separation)``: a witness pair for a non-identification
    verdict, validated exactly, with its ``_witness_separation``."""
    kind = getattr(failure, "kind", None)
    if kind == "positivity":
        pair = positivity_witness_pair(g, query, failure.district)
        tv = _witness_separation(query, *pair)
        if not tv:
            raise OracleError("positivity witness construction failed validation")
        return pair, tv
    if kind == "hedge":
        builders = [
            lambda: hedge_witness_pair(g, failure.district, failure.closure),
            lambda: adjacent_child_witness_pair(
                g, query, failure.district, failure.closure
            ),
        ]
        for builder in builders:
            try:
                pair = builder()
            except OracleError:
                continue
            tv = _witness_separation(query, *pair)
            if tv:
                return pair, tv
        raise OracleError(
            "no known witness construction separates this hedge shape"
        )
    raise OracleError(f"no witness construction for failure kind {kind!r}")


def parity_witness(g: Graph, query, failure) -> tuple:
    """Two models witnessing a non-identification verdict: exactly equal
    observed laws over the support, different query distributions.

    Every returned pair is validated exactly before being handed out; hedge
    shapes outside the known constructions raise the unsupported error
    instead of returning an uncertified pair.
    """
    return _certified_witness(g, query, failure)[0]


# --------------------------------------------------------------------------
# verification


def dataset_table(m: DiscreteCsScm, z: Iterable[str], s: Optional[SelectorValue] = None) -> Table:
    """The conditional table p(V - Z | do(Z)) stacked over all values of Z,
    with the Z axes last in sorted order."""
    return _Laws().dataset(m, z, s)


@dataclass
class VerifyReport:
    status: str  # "verified" | "refuted" | "unverified"
    kind: str
    trials: int = 0
    failures: tuple = ()
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "verified"

    def to_jsonable(self):
        bad = set(self.failures)
        return {
            "status": self.status,
            "kind": self.kind,
            "trials": self.trials,
            "failures": list(self.failures),
            "per_trial": [
                "mismatch" if t in bad else "match" for t in range(self.trials)
            ],
            "detail": self.detail,
        }


def _token_bindings(query, sizes: Mapping[str, int]):
    """(treatment values, token values) for every binding of the query's
    distinct tokens; treatments that share a token share its value."""
    verts_of: dict = {}
    for v, tok in query.treatments:
        verts_of.setdefault(tok.name, []).append(v)
    ranges = [range(min(sizes[v] for v in vs)) for vs in verts_of.values()]
    for combo in itertools.product(*ranges):
        toks = dict(zip(verts_of, combo))
        yield {v: toks[tok.name] for v, tok in query.treatments}, toks


def verify(
    g: Graph,
    query,
    support: Optional[SelectorSupport],
    result,
    trials: int = 100,
    seed: int = 0,
    dag: Optional[Graph] = None,
    datasets: Optional[list] = None,
    domain_size: int = 2,
) -> VerifyReport:
    """Check an identification verdict against enumerated ground truth.

    Identified results must match the interventional law exactly on every
    random model; hedge and positivity failures must ship a valid agreement
    pair; thicket and unknown failures are reported unverified by design.
    """
    if trials < 1:
        raise OracleError("at least one trial is required")
    kind = getattr(result, "kind", None)
    dag = dag or (g if not any(e.kind == "bidirected" for e in g.edges) else canonical_hidden_dag(g))

    if kind == "identified":
        laws = _Laws()  # every trial's model has the same shape
        failures = []
        for t in range(trials):
            m = random_cs_scm(dag, support, seed=seed + t, domain_size=domain_size)
            tables = {"p": laws.joint(m)}
            for name, z in datasets or ():
                tables[name] = laws.dataset(m, z, None)
            est = eval_estimand(result.estimand, tables)
            truth = laws.query(m, query)
            for vert_vals, tok_vals in _token_bindings(query, m.sizes):
                sliced = _slice(est, tok_vals)
                # leftover context axes must be provably irrelevant
                try:
                    sliced = sliced.project_constant(
                        frozenset(sliced.axes) - frozenset(query.outcomes)
                    )
                except OracleError:
                    failures.append(t)
                    break
                if not sliced.defined_everywhere() or not _slice(truth, vert_vals).equals(sliced):
                    failures.append(t)
                    break
        status = "verified" if not failures else "refuted"
        return VerifyReport(status, kind, trials, tuple(failures))

    if kind in ("hedge", "positivity"):
        try:
            _, tv = _certified_witness(g, query, result)
        except OracleError as exc:
            return VerifyReport("unverified", kind, 0, (), str(exc))
        return VerifyReport("verified", kind, 1, (), f"witness total variation {tv}")

    return VerifyReport("unverified", str(kind), 0, (), "no checkable certificate")


def exact_ci(t: Table, x, y, z) -> bool:
    """Exact conditional independence X indep Y | Z in the joint table ``t``,
    decided by cross-multiplication (no divisions)."""
    x, y, z = frozenset(x), frozenset(y), frozenset(z)
    pxyz = t.sum_out(frozenset(t.axes) - x - y - z)
    pz = pxyz.sum_out(x | y)
    pxz = pxyz.sum_out(y)
    pyz = pxyz.sum_out(x)
    kz, kxz, kyz = (pxyz._key(t.axes) for t in (pz, pxz, pyz))
    return all(
        p * pz.data[kz(vals)] == pxz.data[kxz(vals)] * pyz.data[kyz(vals)]
        for vals, p in pxyz.data.items()
    )
