"""Exact ground-truth engine: discrete selector SCMs with rational tables.

Everything here is exact: probabilities are integers over denominators,
laws are enumerated by variable elimination over a model's CPTs, and every
comparison is equality of rationals, never a tolerance.  The module
supplies random model generation, observational/interventional laws,
estimand evaluation, agreement witnesses for non-identification verdicts,
and the top-level ``verify`` entry point.

One table layout, one step runner:

* **Tables** (``Table``) hold values row-major over their axes, as one flat
  list over one integer denominator: a law's integer numerators, or one
  ``Fraction`` per row over 1 once a table has been divided.
* **Plans** (``_Plan``) are steps worked out once per shape and replayed
  on a batch of models at a time, their rows back to back: each step
  gathers its inputs by readers made on first use for a batch size, one
  C-level call per input, multiplies or divides them cell by cell, and
  reduces groups of ``width`` cells as strided slices.  A step only
  multiplies, divides or reduces: a restriction is a view, rows read in
  place by the one addressing rule of ``_Operand``, and ``finish`` copies
  out a result that is a view.  ``_Plan.eliminate`` is the one
  variable-elimination routine, for every sum of products: a law's margin
  over the CPTs of its ancestral set (``_compile_law``), which are
  ``Table``s in the plan's layout from the moment they are drawn, an
  estimand's ``Product`` as each parent reads it, and ``Table.multiply``.
  An estimand's steps (``_estimand_steps``) run on the laws it makes: each
  kernel's ``keep`` margin is eliminated from the CPTs once per axis set,
  over one pattern's selector values alone when the kernel is read at a
  value of that pattern, its ``rest`` summed from that ``keep``, and no
  joint table is built; given ``Table``s (``eval_estimand``), each
  ``keep`` is summed from its table.  A plan may
  keep several results, and each oracle call compiles one: ``verify`` one
  holding its estimand, ground truth and comparison, run once per batch of
  trials on models laid out once per call (``_ModelLayout``); a witness
  check one holding the observed joint and the query's slices, run once
  per model of the pair.  Each ``Table`` operation, and each of ``joint``,
  ``interventional`` and ``dataset_table``, is a plan run once.
* **Models** are filled one way: a ``_ModelLayout`` lists each CPT's
  draws, one per value of its parents other than the selector, and a
  model is one group of weights per draw (``_cpt``), normalized for a
  batch of models at once.  A random model draws the weights
  (``_random_model``); a witness pair computes them from parity rules,
  data rather than code (``_witness_models``).
* **Arithmetic** is on integers alone: a run keeps numerators over one
  common denominator per model, or from a divide onward over one
  denominator per row, each divide's rows in lowest terms; products run
  on ``operator.mul``, which ``UNDEF`` answers itself; a result over
  per-row denominators is divided once per row, into ``Fraction``s.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
import random as _random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional

from .estimand import (
    BaseKernel,
    Estimand,
    Lo,
    Product,
    Ratio,
    Restrict,
    SumOver,
    Sym,
    Var,
    fold,
)
from .graph import OBSERVATIONAL, Graph, GraphError, SelectorSupport, SelectorValue
from .projection import bidirected_latents, canonical_hidden_dag

MAX_CELLS = 1 << 20
# The cells one plan's steps make for one model, summed over its steps: a
# plan that would make more is refused while it is made.  Of the identified
# benchmark sweep cases at 16-128 observed vertices, seeds 0-31, 128/11
# plans the most, 49 676 cells per model.
MAX_PLAN_CELLS = 1 << 20
# The cells one run of a plan may cover, over all the models of its batch,
# and the cells of the batch's CPTs: ``verify`` runs as many trials per
# batch as keep both within it.  Plans of a few dozen cells run dozens of
# trials per batch, where per-step Python overhead dominates;
# big-integer-bound plans run a few (selection_web: 3240 cells per trial,
# five), since wider batches of them were measured slower; a model whose
# CPTs alone exceed it runs one trial per batch.
BATCH_CELLS = 1 << 14


class OracleError(ValueError):
    pass


class CapError(OracleError):
    """A table or product past ``MAX_CELLS`` cells, or a plan past
    ``MAX_PLAN_CELLS`` cells per model, refused before it is built."""


class Undefined:
    """Marker for kernel values at zero-mass contexts; absorbs arithmetic.
    A product with it is 0 when the other factor is 0 and ``UNDEF``
    otherwise, from either side, so every product runs on ``operator.mul``;
    a sum that holds it is ``UNDEF`` (``_reduce``, ``_reduce_rows``)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEF"

    def __mul__(self, other):
        return 0 if other == 0 else self

    __rmul__ = __mul__


UNDEF = Undefined()


def _has_undef(values) -> bool:
    return any(map(operator.is_, values, itertools.repeat(UNDEF)))


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
# tables


class Table:
    """Exact-rational factor over named axes.

    ``values`` lists one entry per row, row-major over ``axes`` (the last
    axis varies fastest, each over its tuple in ``domains``), and the table's
    value at a row is that entry over ``denom``: an integer, or ``UNDEF``.
    A table a plan divided, or one built from rationals, holds ``Fraction``
    entries over 1, which a plan reads, once on entry, as numerators over
    per-row denominators.  ``given`` marks context axes: the table is
    normalized per assignment of those axes (a conditional), or overall when
    ``given`` is empty.  ``values`` may also be given as a mapping from value
    tuples to entries, covering every row.

    Every operation is a ``_Plan`` run once; ``data`` is a view of the
    values keyed by value tuples.
    """

    def __init__(self, axes, domains, values, given=frozenset(), denom: int = 1):
        self.axes = tuple(axes)
        self.domains = domains
        if isinstance(values, Mapping):
            values = [values[k] for k in itertools.product(*(domains[a] for a in self.axes))]
        self.values = values
        self.given = frozenset(given)
        self.denom = denom

    def __repr__(self):
        return f"Table(axes={self.axes!r}, given={sorted(self.given)!r}, data={self.data!r})"

    @property
    def data(self) -> dict:
        rows = itertools.product(*(self.domains[a] for a in self.axes))
        values, denom = self.values, self.denom
        if denom != 1:
            values = (v if v is UNDEF else Fraction(v, denom) for v in values)
        return dict(zip(rows, values))

    def value(self, assignment: Mapping):
        return self.data[tuple(assignment[a] for a in self.axes)]

    def multiply(self, other: "Table") -> "Table":
        return _once([self, other], lambda plan, a, b: plan.eliminate([a, b], frozenset(a.axes) | frozenset(b.axes)))

    def sum_out(self, axes: Iterable[str]) -> "Table":
        return _once([self], lambda plan, a: plan.sum_out(a, axes))

    def conditional(self, outcome: Iterable[str], context: Iterable[str]) -> "Table":
        """p(outcome | context) derived from this (conditional) table.

        Context axes of the table (``given``) that the requested kernel omits
        must not matter: the conditional is checked to be exactly constant
        across them and then read at an arbitrary slice.  Margins are taken
        on the integer numerators, whose common denominator cancels.
        """
        outcome, context = frozenset(outcome), frozenset(context)
        return _once([self], lambda plan, a: plan.conditional(a, outcome, context))

    def total_variation(self, other: "Table") -> Fraction:
        if set(self.axes) != set(other.axes):
            raise OracleError("total variation over mismatched axes")
        mine = self._read_as(other)
        if _has_undef(mine) or _has_undef(other.values):
            raise OracleError("total variation over undefined entries")
        dp, dq = self.denom, other.denom
        return Fraction(sum(abs(p * dq - q * dp) for p, q in zip(mine, other.values)), 2 * dp * dq)

    def _read_as(self, other: "Table"):
        """This table's values in the row order of ``other``, which has the
        same axes, read as a plan step reads its inputs."""
        return _reader(_Operand(0, self.axes, self.domains).gather(other.axes, other.domains))(self.values)


def _equal_rows(a: tuple, b: tuple) -> bool:
    """Whether the rows ``(values, denominators)`` of ``a`` and ``b``, the
    same rows in the same order, are equal: by cross-multiplication, each
    denominator one integer or one per row.  ``UNDEF`` equals ``UNDEF``
    alone."""
    (p, dp), (q, dq) = a, b
    if type(dp) is int and dp == dq:
        return all(map(operator.eq, p, q))
    dp = itertools.repeat(dp) if type(dp) is int else dp
    dq = itertools.repeat(dq) if type(dq) is int else dq
    if _has_undef(p) or _has_undef(q):
        return all(
            x is y if x is UNDEF or y is UNDEF else x * e == y * d
            for x, d, y, e in zip(p, dp, q, dq)
        )
    return all(map(operator.eq, map(operator.mul, p, dq), map(operator.mul, q, dp)))


def selector_domain(support: SelectorSupport, child_sizes: Mapping[str, int]) -> tuple:
    """All concrete selector values: (sorted pattern, matching value tuple)."""
    out = []
    for pattern in support:
        kids = tuple(sorted(pattern))
        for vals in itertools.product(*(range(child_sizes[c]) for c in kids)):
            out.append((kids, vals))
    return tuple(out)


def _selector_key(s: SelectorValue) -> tuple:
    """The entry of ``selector_domain`` that ``s`` names."""
    return tuple(sorted(s.pattern)), tuple(v for _, v in s.values)


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

    ``cpts`` maps each vertex v to its CPT in the law-plan layout: a
    ``Table`` over ``parents + (v,)`` (parents sorted, each over its row
    domain, then v over its own domain) of integer numerators over one
    denominator.  ``rows`` reads it.  Children of the selector obey the
    intervene/natural case split by construction of their rows.
    """

    graph: Graph  # full DAG: observed + latent (+ selector)
    sizes: dict  # vertex -> domain size (non-selector vertices)
    cpts: dict  # vertex -> Table over parents + (vertex,)
    support: Optional[SelectorSupport] = None

    def observed(self) -> frozenset:
        return self.graph.random - self.graph.latent

    def rows(self, v) -> tuple:
        """``(parents, rows)`` of the CPT of ``v``: for each row in order,
        the parents' values and the numerators of v's values, in domain
        order, over the table's ``denom``."""
        t = self.cpts[v]
        parents, n = t.axes[:-1], len(t.domains[v])
        keys = itertools.product(*(t.domains[p] for p in parents))
        return parents, ((pa_vals, t.values[i * n:(i + 1) * n]) for i, pa_vals in enumerate(keys))

    def validate(self):
        """Check normalization and the selector case split (mechanism
        invariance across laidback values, forced values when serious)."""
        sel = self.selector
        for v in sorted(self.cpts):
            denom = self.cpts[v].denom
            parents, rows = self.rows(v)
            si = parents.index(sel) if v != sel and sel in parents else None
            natural: dict = {}
            for pa_vals, row in rows:
                if sum(row) != denom:
                    raise OracleError(f"rows of {v} must sum to 1 exactly")
                if si is None:
                    continue
                pattern, values = pa_vals[si]
                if v in pattern:
                    if row[values[pattern.index(v)]] != denom:
                        raise OracleError(f"{v} must equal its forced value when intervened")
                elif natural.setdefault(pa_vals[:si] + pa_vals[si + 1:], row) != row:
                    raise OracleError(
                        f"{v} must reuse its natural mechanism across laidback selector values"
                    )
        return True

    # -- laws -----------------------------------------------------------------

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
            fixed[sel] = _selector_key(s)
        return fixed

    def joint(self) -> Table:
        """Exact observational joint over the observed vertices (selector
        included), latents summed out by variable elimination."""
        return _Law(self, {}).table()

    def interventional(self, a: Mapping, s: Optional[SelectorValue] = None) -> Table:
        """Truncated factorization: intervened factors (and the selector's)
        are dropped and their values substituted; latents summed out."""
        return _Law(self, self._fixed_values(a, s)).table()


# --------------------------------------------------------------------------
# plans


class _Operand:
    """A table a plan reads or makes: its ``axes``, ``domains`` and
    ``given``, and where its rows sit in run vector ``slot``: ``place`` maps
    each axis to the position each of its values adds, in domain order, to
    ``offset``.  A restriction is a view (``at``, ``renamed``, ``fixed``,
    ``narrowed``): it reads the rows already in the slot elsewhere.
    ``whole`` says the operand reads every row of its slot in order, as one
    a step makes does; every view but a rename clears it.  An operand only
    names a slot: plans append steps and never rewrite one, so every
    operand that reads a slot reads the same rows."""

    __slots__ = ("axes", "domains", "slot", "place", "offset", "cells", "given", "whole")

    def __init__(self, slot: int, layout, domains: Mapping, given=frozenset()):
        self.slot, self.place, stride = slot, {}, 1
        for a in reversed(layout):
            self.place[a] = {x: stride * i for i, x in enumerate(domains[a])}
            stride *= len(domains[a])
        self.offset = 0
        self.axes = tuple(layout)
        self.domains = {a: domains[a] for a in self.axes}
        self.cells = stride
        self.given = frozenset(given)
        self.whole = True

    def _view(self, axes, place: dict, offset: int, given) -> "_Operand":
        out = copy.copy(self)
        out.axes, out.place, out.offset, out.given = tuple(axes), place, offset, frozenset(given)
        out.domains = {a: tuple(place[a]) for a in out.axes}
        out.cells = math.prod(map(len, out.domains.values()))
        out.whole = False
        return out

    def at(self, var: str, parts, base: int = 0) -> "_Operand":
        """This operand read at one value of axis ``var``, without that
        axis: at position ``base`` of it plus, for each ``(adds, token)`` of
        ``parts``, the position ``adds`` gives the token's value.  A literal,
        or ``Lo`` for the lowest value, adds its position; a ``Var`` or
        ``Sym`` naming an axis there reads the diagonal with it; one naming
        no axis becomes a new one, after the others, over ``adds``' values."""
        axes = [a for a in self.axes if a != var]
        place = {a: self.place[a] for a in axes}
        offset = self.offset + base
        for adds, tok in parts:
            if isinstance(tok, (Sym, Var)):
                name = tok.name if isinstance(tok, Sym) else tok.vertex
                if name not in place:
                    axes.append(name)
                    place[name] = adds
                elif set(place[name]) <= set(adds):
                    place[name] = {x: p + adds[x] for x, p in place[name].items()}
                else:
                    raise OracleError("restriction misses rows of its result")
            else:
                val = min(adds) if isinstance(tok, Lo) else tok
                if val not in adds:
                    raise OracleError(f"value {val!r} outside the domain of {var}")
                offset += adds[val]
        return self._view(axes, place, offset, self.given - {var})

    def renamed(self, var: str, name: str) -> "_Operand":
        """This operand with axis ``var`` called ``name``: the rows stay in
        order, so a whole operand stays whole."""
        out = copy.copy(self)
        out.axes = tuple(name if a == var else a for a in self.axes)
        out.domains = {name if a == var else a: d for a, d in self.domains.items()}
        out.place = {name if a == var else a: p for a, p in self.place.items()}
        out.given = frozenset(name if a == var else a for a in self.given)
        return out

    def fixed(self, values: Mapping) -> "_Operand":
        """This operand read at ``values`` of its axes, without them."""
        out = self
        for a, val in values.items():
            if a in out.place:
                out = out.at(a, [(out.place[a], val)])
        return out

    def narrowed(self, axis: str, values: tuple) -> "_Operand":
        """This operand read at ``values`` of ``axis`` alone, when it has
        that axis: the rows stay where they are, and a product over it keeps
        those values (``_joined``)."""
        if axis not in self.domains:
            return self
        place = {**self.place, axis: {x: self.place[axis][x] for x in values}}
        return self._view(self.axes, place, self.offset, self.given)

    def view(self, axes, domains: Mapping) -> tuple:
        """``(slot, base, diffs)``: where this factor's first row sits for
        the row-major table over ``axes``, and what each value of each axis
        of several values adds; two views are equal exactly when they gather
        equal positions, each a sum of one term per axis (``gather``)."""
        base, diffs = self.offset, []
        for a in axes:
            place = self.place.get(a)
            steps = [place[x] for x in domains[a]] if place else [0] * len(domains[a])
            base += steps[0]
            if len(steps) > 1:
                diffs.append(tuple(d - steps[0] for d in steps))
        return self.slot, base, tuple(diffs)

    def gather(self, axes, domains: Mapping) -> list:
        """Positions of this factor's rows for every row of the row-major
        table over ``axes``; axes the factor lacks are broadcast.  Every
        plan step gathers its inputs here, so a step over more than
        ``MAX_CELLS`` cells raises ``CapError`` before its index arrays are
        built."""
        cells = math.prod(len(domains[a]) for a in axes)
        if cells > MAX_CELLS:
            raise CapError(f"an intermediate factor of {cells} cells exceeds the enumeration cap")
        _, base, diffs = self.view(axes, domains)
        idx = [base]
        for steps in diffs:
            idx = [i + d for i in idx for d in steps]
        return idx


def _reader(idx):
    """One C-level call that reads the positions ``idx`` of a sequence, as a
    sequence: ``operator.itemgetter(*idx)``.  One position is read as a
    one-row slice, since ``itemgetter`` of one index returns the value
    itself."""
    if len(idx) == 1:
        return operator.itemgetter(slice(idx[0], idx[0] + 1))
    return operator.itemgetter(*idx)


_SUM, _DIV, _SAME = "sum", "divide", "same"


@dataclass(eq=False, slots=True)
class _Step:
    """Gather each input ``(slot, idx)``, the positions ``idx`` of that
    slot's rows, multiply the inputs cell by cell (``_SUM``, ``_SAME``; all
    ones without inputs) or divide the first by the second (``_DIV``),
    then reduce consecutive groups of ``width`` cells: by
    summing, or for ``_SAME`` by checking that they are equal and keeping
    one.  ``cells`` counts one model's.  Numerators and denominators are
    multiplied apart; a divide gives one denominator per row, and products
    and sums of such rows keep one (``_Plan.run_rows``).  ``release`` lists
    the slots no later step reads.  ``readers`` holds the inputs' readers
    by input and batch size (``_batch_reader``)."""

    op: str
    inputs: list
    width: int
    cells: int
    drop: list  # the axes a _SAME step drops, for its error
    release: list = field(default_factory=list)
    readers: dict = field(default_factory=dict)


class _Plan:
    """Steps worked out once for inputs of one shape, to be replayed.

    ``inputs`` name the tables a run starts from (slots 0, 1, ...), and
    ``operands`` are those shaped like ``tables``; each step appends its
    result as the next slot and is never changed once made, and ``outs``
    are the results, one or more: every oracle call plans all it compares
    in one plan and runs it once per model.  Operations return
    ``_Operand``s; every sum of products is eliminated (``eliminate``), a
    margin of a ``_Law`` once per axis set (``margin``), and a step equal
    to one already planned is not planned again (``step``).  A restriction
    (``restrict``) is a view, never a step, and ``finish`` copies out a
    result that is a view.
    """

    def __init__(self, inputs, tables=()):
        self.inputs = list(inputs)
        self.operands = [_Operand(i, t.axes, t.domains, given=t.given) for i, t in enumerate(tables)]
        self.steps = []
        self.margins: dict = {}  # (law, axis set, selector values) -> margin
        self.made: dict = {}  # step key -> its slot
        self.cells = 0  # the cells of one model's run, over every step
        self.outs = ()

    def step(self, op, operands, axes, domains, given=frozenset(), drop=(), summed=()) -> _Operand:
        """The table over ``axes`` a step makes from ``operands``, each read
        over ``axes`` then ``summed`` (``_Operand.gather``) and reduced over
        ``summed``; or the slot of an equal step already planned, one with
        the same op, width and input views (``_Operand.view``), which
        makes the same rows (two margins eliminated from one law share
        products); an equal step is found before any input is gathered.  A
        step that would take the plan past ``MAX_PLAN_CELLS`` cells raises
        ``CapError`` before its inputs are gathered."""
        layout = list(axes) + list(summed)
        width = math.prod(len(domains[a]) for a in summed)
        key = (op, width, tuple(drop), tuple(t.view(layout, domains) for t in operands))
        slot = self.made.get(key)
        if slot is None:
            cells = width * math.prod(len(domains[a]) for a in axes)
            if self.cells + cells > MAX_PLAN_CELLS:
                raise CapError(f"a plan of at least {self.cells + cells} cells per model exceeds the enumeration cap")
            inputs = [(t.slot, t.gather(layout, domains)) for t in operands]
            self.cells += cells
            self.steps.append(_Step(op, inputs, width, cells, drop))
            slot = self.made[key] = len(self.inputs) + len(self.steps) - 1
        return _Operand(slot, axes, domains, given=given)

    def eliminate(self, factors: list, out_axes, free: Mapping = {}) -> _Operand:
        """The product of ``factors`` summed down to ``out_axes``: the one
        variable-elimination routine.  Axes are summed out smallest product
        first, ties to the first name, each from the factors that hold it,
        multiplied smallest first; at the first axis every factor left
        holds, one last step multiplies them and sums the rest.  It keeps
        the kept axes in product order, then the ``free`` axes sorted, each
        over its domain there, broadcast where no factor has it.  A lone
        factor with nothing to sum is returned as it is."""
        live = list(factors)
        left = sorted(frozenset().union(*(f.axes for f in live)) - frozenset(out_axes))
        while left:
            h = min(left, key=lambda v: _product_cells(f for f in live if v in f.axes))
            touching = sorted((f for f in live if h in f.axes), key=lambda f: f.cells)
            if len(touching) == len(live):
                break
            left.remove(h)
            live = [f for f in live if h not in f.axes]
            axes, domains = _joined(touching)
            live.append(self.step(_SUM, touching, [a for a in axes if a != h], domains, summed=[h]))
        live.sort(key=lambda f: f.cells)
        axes, domains = _joined(live) if live else ([], {})
        keep = [a for a in axes if a in out_axes and a not in free] + sorted(free)
        if len(live) == 1 and tuple(keep) == live[0].axes:
            return live[0]
        given = frozenset().union(*(f.given for f in factors), free) & frozenset(keep)
        return self.step(_SUM, live, keep, {**free, **domains}, given, summed=[a for a in axes if a not in keep])

    def sum_out(self, t: _Operand, axes, op=_SUM) -> _Operand:
        """``t`` without ``axes``: summed out, or with ``op`` ``_SAME``
        dropped after checking that ``t`` is constant over them."""
        drop = frozenset(axes) & frozenset(t.axes)
        if not drop:
            return t
        keep = [a for a in t.axes if a not in drop]
        gone = [a for a in t.axes if a in drop]
        checked = sorted(drop) if op is _SAME else ()
        return self.step(op, [t], keep, t.domains, t.given - drop, checked, gone)

    def margin(self, law: "_Law", axes: frozenset, selector: Optional[tuple] = None) -> _Operand:
        """The margin of ``law`` over ``axes``, eliminated from its CPTs
        (``_compile_law``) once per ``(law, axes, selector)``: over the
        selector values ``selector`` lists alone, or over all when it is
        None."""
        key = (law, axes, selector)
        m = self.margins.get(key)
        if m is None:
            m = self.margins[key] = _compile_law(law, axes, self, selector)
        return m

    def divide(self, num: _Operand, den: _Operand, given) -> _Operand:
        if not set(den.axes) <= set(num.axes):
            raise OracleError("ratio denominator misses axes of the numerator")
        try:
            return self.step(_DIV, [num, den], num.axes, num.domains, given)
        except KeyError:
            raise OracleError("ratio denominator misses rows of the numerator")

    def conditional(self, t, outcome: frozenset, context: frozenset, selector: Optional[tuple] = None) -> _Operand:
        """p(outcome | context) of ``t``, a ``_Law`` (over the selector
        values ``selector`` lists alone, when given: ``_narrowed``) or an
        operand."""
        missing = t.given - context
        keep = _kernel_keep(t, outcome, context)
        num = self.margin(t, keep, selector) if isinstance(t, _Law) else self.sum_out(t, frozenset(t.axes) - keep)
        # the rest is summed from the kernel's own keep, over the same
        # denominator, which the divide cancels
        den = self.sum_out(num, outcome)
        return self.sum_out(self.divide(num, den, context | missing), missing, _SAME)

    def restrict(self, t: _Operand, var: str, val) -> _Operand:
        """``t`` read at the value ``val`` of ``var``, a view of its rows
        (``_Operand.at``): a selector value through ``_selector_parts``, a
        ``Sym`` or ``Var`` on the diagonal with the axis it names, or as a
        rename when ``t`` has no such axis."""
        if var not in t.axes:
            return t
        if isinstance(val, SelectorValue):
            base, adds = _selector_parts(t, var, val)
            return t.at(var, list(zip(adds, (tok for _, tok in val.values))), base)
        if not isinstance(val, (Sym, Var)):
            raise OracleError(f"unknown restriction value {val!r}")
        name = val.name if isinstance(val, Sym) else val.vertex
        if name == var:
            return t
        if name not in t.axes:
            return t.renamed(var, name)
        return t.at(var, [(t.place[var], val)])

    def finish(self, *outs: _Operand) -> "_Plan":
        """Record ``outs`` as the results, each one that is a view copied
        out by a step of its own, and release every other slot after the
        last step that reads it."""
        self.outs = tuple(t if t.whole else self.step(_SUM, [t], t.axes, t.domains, t.given) for t in outs)
        kept = {out.slot for out in self.outs}
        last = {s: step for step in self.steps for s, _ in step.inputs}
        for s, step in last.items():
            if s not in kept:
                step.release.append(s)
        return self

    def run(self, tables) -> Table:
        """The one result on ``tables``, one per input, shaped as at compile
        time."""
        (rows,) = self.run_rows(list(map(_rows, tables)), 1)
        return _table(self.outs[0], _trials(rows, 1)[0])

    def run_rows(self, inputs: list, trials: int) -> list:
        """``(values, denominators)`` of each result on a batch of
        ``trials`` models, in one pass, without building a ``Table``:
        ``inputs`` holds one slot per input table (``_rows``,
        ``_ModelLayout.fill``), and ``_trials`` splits a result by model.

        A slot holds the models' rows back to back: integer numerators, or
        ``UNDEF``, over one common denominator per model (a tuple) or, from
        a divide onward, over one denominator per row (a list).  Each input
        is read by its step's reader in one call, and the products are
        taken cell by cell by ``map`` over ``operator.mul``; no Python code
        runs per cell unless a slot holds ``UNDEF``.  A group a
        step reduces never spans two models, so a batch of one model is a
        run on that model alone."""
        slots, denoms = map(list, zip(*inputs)) if inputs else ([], [])
        undef = set()  # the slots that hold UNDEF
        if _has_undef(itertools.chain.from_iterable(slots)):
            undef = {s for s, vec in enumerate(slots) if _has_undef(vec)}
        for step in self.steps:
            inputs = [
                (s, _batch_reader(step.readers, (k, trials), idx, len(slots[s]) // trials, trials))
                for k, (s, idx) in enumerate(step.inputs)
            ]
            flagged = bool(undef) and any(s in undef for s, _ in inputs)
            if step.op is _DIV:
                acc, den = _divide(slots, denoms, inputs, flagged, step.cells)
                flagged = True
            elif inputs:
                (s, read), *rest = inputs
                acc = read(slots[s])
                for s, read in rest:
                    acc = map(operator.mul, acc, read(slots[s]))
                den = _product_denoms(denoms, inputs, step.cells)
            else:
                acc, den = [1] * (step.cells * trials), (1,) * trials
            if type(den) is tuple:
                vec = _reduce(step, acc, flagged)
            else:
                vec, den = _reduce_rows(step, acc, den, flagged)
            if flagged and _has_undef(vec):
                undef.add(len(slots))
            slots.append(vec)
            denoms.append(den)
            for s in step.release:
                slots[s] = denoms[s] = None
        return [(slots[out.slot], denoms[out.slot]) for out in self.outs]


def _batch_reader(cache: dict, key, idx, size: int, trials: int):
    """One C-level call (``_reader``) that reads the positions ``idx`` of
    each of ``trials`` models laid out back to back, ``size`` cells each:
    made on first use and kept in ``cache`` under ``key``, which names
    ``idx`` and ``trials``."""
    read = cache.get(key)
    if read is None:
        read = cache[key] = _reader(_repeated(idx, size, trials))
    return read


def _repeated(idx, size: int, trials: int) -> list:
    """The positions ``idx`` in each of ``trials`` consecutive blocks of
    ``size``."""
    out = list(idx)
    for at in range(size, size * trials, size):
        out += [i + at for i in idx]
    return out


def _trials(rows: tuple, trials: int) -> list:
    """Each model's rows ``(values, denominators)`` of a batch's rows: its
    values over one integer, or over a list of per-row denominators."""
    vec, den = rows
    n = len(vec) // trials
    cut = [slice(t * n, (t + 1) * n) for t in range(trials)]
    if type(den) is tuple:
        return [(vec[c], d) for c, d in zip(cut, den)]
    return [(vec[c], den[c]) for c in cut]


def _per_row(den: tuple, cells: int):
    """One denominator per model, repeated for each of its ``cells``
    rows."""
    return itertools.chain.from_iterable(map(itertools.repeat, den, itertools.repeat(cells)))


def _table(out: _Operand, rows: tuple) -> Table:
    """The table ``out`` of one model's rows ``(values, denominators)``
    (``_trials``); rows over per-row denominators become one ``Fraction``
    per row, over 1."""
    vec, den = rows
    if type(den) is not int:
        vec, den = [n if n is UNDEF else Fraction(n, d) for n, d in zip(vec, den)], 1
    return Table(out.axes, dict(out.domains), vec, out.given, den)


def _rows(t: Table) -> tuple:
    """``(values, denominators)`` of ``t`` as a run slot of one model: its
    own over its denominator, or for a table of rationals over 1 their
    numerators over per-row denominators."""
    values = t.values
    if t.denom != 1 or all(type(v) is int or v is UNDEF for v in values):
        return values, (t.denom,)
    nums = [v if v is UNDEF else v.numerator for v in values]
    return nums, [1 if v is UNDEF else v.denominator for v in values]


def _scaled(vec: list, den, read, cells: int) -> list:
    """``vec`` times ``den``: one integer per model, or per-row
    denominators read by ``read``."""
    if type(den) is not tuple:
        return list(map(operator.mul, vec, read(den)))
    return vec if den.count(1) == len(den) else list(map(operator.mul, vec, _per_row(den, cells)))


def _divide(slots: list, denoms: list, inputs, flagged: bool, cells: int) -> tuple:
    """Numerators and per-row denominators of a ``_DIV`` step's ``cells``
    per model, each row in lowest terms: (a / da) / (b / db) = (a * db) /
    (b * da), so the denominator two margins of one table share cancels.
    An ``UNDEF`` dividend or divisor, or a zero divisor, gives ``UNDEF``.
    Lowest terms keep the integers that later products and sums carry
    small: without them nested ratios multiply their size at every level,
    and even one divide of two margins of one law carries the law's
    factors into every row."""
    (n, read_n), (d, read_d) = inputs
    num = list(read_n(slots[n]))
    den = list(read_d(slots[d]))
    if flagged or 0 in den:
        for i, (a, b) in enumerate(zip(num, den)):
            if a is UNDEF or b is UNDEF or not b:
                num[i], den[i] = UNDEF, 1
    da, db = denoms[n], denoms[d]
    if type(da) is not tuple or da != db:
        num, den = _scaled(num, db, read_d, cells), _scaled(den, da, read_n, cells)
    return _lowest(num, den)


def _lowest(num: list, den: list) -> tuple:
    """Each row of ``num`` over ``den`` in lowest terms."""
    if not _has_undef(num):
        gs = list(map(math.gcd, num, den))
        return list(map(operator.floordiv, num, gs)), list(map(operator.floordiv, den, gs))
    for i, (a, b) in enumerate(zip(num, den)):
        if a is not UNDEF:
            g = math.gcd(a, b)
            num[i], den[i] = a // g, b // g
    return num, den


def _product_denoms(denoms: list, inputs, cells: int):
    """The denominators of a product of ``inputs`` over ``cells`` per model:
    one integer per model when every input has one, else per-row
    denominators."""
    common, rows = None, None
    for s, read in inputs:
        den = denoms[s]
        if type(den) is tuple:
            common = den if common is None else tuple(map(operator.mul, common, den))
        else:
            row = read(den)
            rows = row if rows is None else map(operator.mul, rows, row)
    if rows is None:
        return common
    if common is not None and common.count(1) != len(common):
        rows = map(operator.mul, rows, _per_row(common, cells))
    return list(rows)  # never a tuple, which would read as one per model


def _not_constant(step: _Step):
    return OracleError(f"kernel is not constant over context axes {step.drop}")


def _strided(vec: list, width: int) -> bool:
    """Whether a sum reads ``vec`` as ``width`` strided slices, slice k
    holding cell k of every group, rather than group by group: for groups
    of at most 4 cells, at least 8 groups per cell of a group.  Timed on
    64-bit numerators (CHANGES.md), the slices win there (2.7x for 576
    groups of 2); with fewer groups, or groups of 8 cells or more, the
    per-group loop is as fast or faster (10x for one group of 1152)."""
    return width <= 4 and 8 * width * width <= len(vec)


def _added(parts: list) -> list:
    """The cell-by-cell sum of equally long ``parts``."""
    vec = parts[0]
    for part in parts[1:]:
        vec = list(map(operator.add, vec, part))
    return vec


def _reduce(step: _Step, acc, flagged: bool) -> list:
    """Reduce cells over one common denominator in groups of ``width``.
    Without ``UNDEF``, a sum of many narrow groups (``_strided``) adds the
    ``width`` strided slices."""
    if type(acc) is not list:
        acc = list(acc)
    width = step.width
    if width == 1:
        return acc
    if step.op is _SUM and _strided(acc, width) and not (flagged and _has_undef(acc)):
        return _added([acc[k::width] for k in range(width)])
    groups = zip(*[iter(acc)] * width)
    if step.op is _SAME:
        vec = []
        for group in groups:
            if group.count(group[0]) != width:
                raise _not_constant(step)
            vec.append(group[0])
        return vec
    if flagged:
        return [UNDEF if _has_undef(group) else sum(group) for group in groups]
    return list(map(sum, groups))


def _reduce_rows(step: _Step, acc, dens, flagged: bool) -> tuple:
    """Reduce cells over per-row denominators in groups of ``width``: a sum
    adds numerators over a shared denominator, else over the group's least
    common multiple; ``_SAME`` compares rows by cross-multiplication.

    Without ``UNDEF``, a sum of many narrow groups (``_strided``) reads
    ``width`` strided slices: ``lcm = map(math.lcm, *dens_k)``, and slice k's
    numerators, scaled by ``lcm // d_k``, are added.  That is the per-group
    rule, since lcm(d, ..., d) = d leaves a group over one denominator as
    it is."""
    acc, dens = list(acc), list(dens)
    width = step.width
    if width == 1:
        return acc, dens
    if step.op is _SUM and _strided(acc, width) and not (flagged and _has_undef(acc)):
        nums = [acc[k::width] for k in range(width)]
        ds = [dens[k::width] for k in range(width)]
        lcm = ds[0]
        if any(d != lcm for d in ds[1:]):
            lcm = list(map(math.lcm, *ds))
            nums = [list(map(operator.mul, n, map(operator.floordiv, lcm, d))) for n, d in zip(nums, ds)]
        return _added(nums), lcm
    vec, out = [], []
    groups = zip(zip(*[iter(acc)] * width), zip(*[iter(dens)] * width))
    if step.op is _SAME:
        for nums, ds in groups:
            n, d = nums[0], ds[0]
            if n is UNDEF:
                same = nums.count(UNDEF) == width
            else:
                same = not _has_undef(nums) and all(x * d == n * y for x, y in zip(nums, ds))
            if not same:
                raise _not_constant(step)
            vec.append(n)
            out.append(d)
        return vec, out
    for nums, ds in groups:
        if flagged and _has_undef(nums):
            vec.append(UNDEF)
            out.append(1)
            continue
        d = ds[0]
        if ds.count(d) != width:
            d = math.lcm(*ds)
            nums = map(operator.mul, nums, map(d.__floordiv__, ds))
        vec.append(sum(nums))
        out.append(d)
    return vec, out


def _once(tables: list, build) -> Table:
    """The table ``build(plan, *operands)`` plans on ``tables``, run once."""
    plan = _Plan(range(len(tables)), tables)
    return plan.finish(build(plan, *plan.operands)).run(tables)


def _kernel_keep(t, outcome: frozenset, context: frozenset) -> frozenset:
    """The axes of the margin ``keep`` of ``t`` that a kernel divides by its
    ``rest``, the same margin without ``outcome``."""
    missing = (outcome | context) - frozenset(t.axes)
    if missing:
        raise OracleError(f"kernel variables {sorted(missing)} are not axes of its table")
    return outcome | context | (t.given & frozenset(t.axes))


def _selector_parts(t: _Operand, var: str, val: SelectorValue) -> tuple:
    """``(base, adds)`` that read axis ``var`` of ``t``, the selector, at
    the pattern of ``val`` (``_Operand.at``): ``base`` is the position of
    the pattern's first value there, and ``adds`` maps each component, in
    sorted-pattern order, to the position each of its values adds.
    ``selector_domain`` lays out one pattern's values as a product over its
    components; a layout that is not raises ``OracleError``."""
    pattern = tuple(sorted(val.pattern))
    at = {vals: p for (kids, vals), p in t.place[var].items() if kids == pattern}
    if not at:
        raise OracleError("restriction misses rows of its result")
    (first, base), *_ = at.items()
    values = [sorted({r[i] for r in at}) for i in range(len(pattern))]
    if len(at) == math.prod(map(len, values)):  # every combination is there
        adds = [{x: at[first[:i] + (x,) + first[i + 1:]] - base for x in xs} for i, xs in enumerate(values)]
        if all(p == base + sum(map(operator.getitem, adds, r)) for r, p in at.items()):
            return base, adds
    raise OracleError(f"the selector values of pattern {pattern} are not laid out as a product")


@dataclass(frozen=True, eq=False)
class _Law:
    """A law of ``m`` as a kernel source: the observed vertices with the
    factors of ``fixed`` and ``free`` vertices dropped, ``fixed`` vertices
    held at their values and ``free`` ones kept as context axes.  A plan
    reads it margin by margin (``_compile_law``), never whole."""

    m: DiscreteCsScm
    fixed: Mapping
    free: frozenset = frozenset()

    @property
    def axes(self) -> frozenset:
        return self.m.observed() - frozenset(self.fixed)

    @property
    def given(self) -> frozenset:
        return self.free

    def table(self) -> Table:
        """The whole law, planned and run once."""
        plan = _Plan(self.m.cpts)
        return plan.finish(_compile_law(self, self.axes, plan)).run(self.m.cpts.values())

    def factors(self, selector: Optional[tuple] = None) -> dict:
        """Each vertex whose factor the law keeps -> its CPT as an operand of
        a plan whose inputs are the CPTs of ``m``, in their order, with the
        fixed values held and, when ``selector`` lists selector values, the
        selector's axis read at those alone."""
        cut = frozenset(self.fixed) | self.free
        out = {}
        for slot, (v, t) in enumerate(self.m.cpts.items()):
            if v not in cut:
                out[v] = _Operand(slot, t.axes, t.domains).fixed(self.fixed)
                if selector:
                    out[v] = out[v].narrowed(self.m.selector, selector)
        return out


def _dataset_law(m: DiscreteCsScm, z, s: Optional[SelectorValue]) -> _Law:
    """p(V - Z | do(Z)) for every value of Z at once: the factors of Z are
    dropped and its axes kept as context axes; the joint when Z is empty."""
    if not z:
        return _Law(m, {})
    return _Law(m, m._fixed_values({}, s), frozenset(z))


def _compile_law(law: _Law, out_axes: frozenset, plan: "_Plan", selector: Optional[tuple] = None) -> _Operand:
    """Append to ``plan`` the steps of the margin of ``law`` over
    ``out_axes``, which lists the law's free axes too, and return it.  The
    inputs of ``plan`` are the CPTs of ``law.m``, in their order.  Given
    ``selector``, a tuple of selector values, every factor reads the
    selector at those values alone (``_Law.factors``): the margin's rows at
    them, and no other rows.

    Only the factors of vertices that ``out_axes`` descend from along kept
    factors are read: any other factor is barren, and sums to its own
    denominator.  They are taken in the order of the model's CPTs, which is
    topological, and every vertex of theirs outside ``out_axes`` is
    eliminated (``_Plan.eliminate``); the free axes come last, sorted.

    The margin holds the product of the denominators of the CPTs it reads.
    A product over more than ``MAX_CELLS`` cells, or one that takes the
    plan past ``MAX_PLAN_CELLS``, raises ``CapError`` while the plan is
    made, before its rows are gathered (``_Plan.step``).  The law's state
    space is capped only where a step builds it.
    """
    m, free, factors = law.m, law.free, law.factors(selector)
    if m.selector in free:
        raise OracleError("intervene on the selector via its own slot")
    if selector and m.selector not in out_axes:
        raise OracleError("a margin over some selector values must keep the selector")
    kept, todo = set(), [v for v in out_axes if v in factors]
    while todo:
        v = todo.pop()
        if v not in kept:
            kept.add(v)
            todo.extend(p for p in m.cpts[v].axes[:-1] if p in factors)
    return plan.eliminate([op for v, op in factors.items() if v in kept], out_axes, {v: m.domain(v) for v in free})


def _query_law(m: DiscreteCsScm, query) -> _Law:
    """p(V | do(treatments)) for every treatment value at once, at the
    observational selector value when there is one; the treatment axes are
    context axes."""
    return _Law(m, m._fixed_values({}, OBSERVATIONAL if m.selector is not None else None), query.treated)


# --------------------------------------------------------------------------
# random model generation


# A 32-bit word's top byte b as a weight: its top 5 bits plus 1.  A byte of
# 128 or more, whose top 5 bits are 16 or more, gives none: ``_OVER_16``
# deletes it.
_TOP_BITS = bytes((b >> 3) + 1 if b < 128 else 0 for b in range(256))
_OVER_16 = bytes(range(128, 256))


def _weights(rng: _random.Random, n: int) -> list:
    """``n`` draws of ``rng.randint(1, 16)``.  That call is ``1 +
    rng._randbelow(16)``, which draws ``getrandbits(16 .bit_length())``, 5
    bits, until the value is below 16.  ``getrandbits(5)`` is the top 5
    bits of the generator's next 32-bit word, and ``getrandbits(32 * k)``
    holds its next k words, the first lowest.  Each round here draws as
    many words as weights are still wanted in one call and keeps the top
    bits of those below 16 (``_TOP_BITS``): the same stream, and the
    generator left in the same state, without a Python call per weight."""
    out = b""
    while len(out) < n:  # draws no more values than are still wanted
        k = n - len(out)
        words = rng.getrandbits(32 * k).to_bytes(4 * k, "little")
        out += words[3::4].translate(_TOP_BITS, _OVER_16)
    return list(out)


def _point(n: int, value) -> list:
    return [int(k == value) for k in range(n)]


class _CptLayout(NamedTuple):
    """Where the cells of the CPT of ``v`` come from, in the law-plan layout
    (``DiscreteCsScm``): ``n`` values of ``v`` per row, drawn once per entry
    of ``draws``, the parents' values without the selector's, in
    ``itertools.product`` order.  A selector child draws one row per value
    of its other parents, which every row the selector leaves natural
    reuses.  A model's fill is a 0, the denominator, and one group of ``n``
    weights per draw, in lowest terms (``_cpt``); ``index`` lists the
    positions of the cells there, a row the selector forces reading the 0
    and the denominator."""

    v: str
    axes: tuple
    domains: dict
    n: int
    draws: tuple
    index: list


class _ModelLayout:
    """The layout every model on one (DAG, support, domain size) shares,
    worked out once: each vertex's CPT axes and domains, the rows the
    selector forces and the draws (``_CptLayout``).  A CPT over more than
    ``MAX_CELLS`` cells raises ``CapError`` before its rows are listed.
    Every model, random or witness, is made there, one group of weights per
    draw, in batches (``fill``, ``draw``): a batch is one run slot per CPT,
    a plan's inputs as they are, and ``models`` splits it into models."""

    def __init__(self, dag: Graph, support, domain_size: int):
        sel = dag.selector
        self.dag, self.support = dag, support
        self.sizes = {v: domain_size for v in dag.vertices if v != sel}
        shape = DiscreteCsScm(dag, self.sizes, {}, support)
        row_domains = {v: shape.row_domain(v) for v in dag.vertices}
        self.cpts = []
        for v in dag.topological_order():
            parents = tuple(sorted(dag.parents(v)))
            domains = {p: row_domains[p] for p in parents}
            domains[v] = shape.domain(v)
            n = len(domains[v])
            if math.prod(map(len, domains.values())) > MAX_CELLS:  # n cells per row
                raise CapError(f"the CPT of {v} exceeds the enumeration cap")
            si = parents.index(sel) if sel in parents else None
            draws, cells = {}, []
            for pa_vals in itertools.product(*(domains[p] for p in parents)):
                if si is not None:
                    pattern, values = pa_vals[si]
                    if v in pattern:
                        cells += _point(n, values[pattern.index(v)])
                        continue
                    pa_vals = pa_vals[:si] + pa_vals[si + 1:]
                draw = draws.setdefault(pa_vals, len(draws))
                cells += range(2 + n * draw, 2 + n * draw + n)
            self.cpts.append(_CptLayout(v, parents + (v,), domains, n, tuple(draws), cells))
        self.weights = sum(len(c.draws) * c.n for c in self.cpts)  # per model
        self.cells = sum(len(c.index) for c in self.cpts)  # per model
        self.readers = {}  # (vertex, batch size) -> reader of its CPT's cells

    def model(self, cpts: dict) -> DiscreteCsScm:
        return DiscreteCsScm(self.dag, dict(self.sizes), cpts, self.support)

    def shape(self) -> DiscreteCsScm:
        """A model whose CPTs hold no values: plans compile on it."""
        return self.model({c.v: Table(c.axes, c.domains, ()) for c in self.cpts})

    def fill(self, weights: list) -> list:
        """The CPTs of a batch of models, one ``(cells, denominators)`` slot
        per CPT (``_cpt``): ``weights`` holds one list per model, its
        weights for every CPT's draws, CPT after CPT in topological order.
        Each CPT's cells are read out of its groups by one reader per
        batch size (``_batch_reader``)."""
        batch, at, trials = [], 0, len(weights)
        for c in self.cpts:
            end = at + len(c.draws) * c.n
            groups, denoms = _cpt(c, list(itertools.chain.from_iterable(w[at:end] for w in weights)))
            read = _batch_reader(self.readers, (c.v, trials), c.index, end - at + 2, trials)
            batch.append((list(read(groups)), denoms))
            at = end
        return batch

    def draw(self, seeds) -> list:
        """The batch (``fill``) of the random models seeded by ``seeds``: one
        ``_weights`` call per model covers every CPT, the same stream as a
        call per CPT, since ``_weights`` draws no value past those asked
        for."""
        return self.fill([_weights(_random.Random(seed), self.weights) for seed in seeds])

    def models(self, batch: list, trials: int) -> list:
        """The ``trials`` models of ``batch``."""
        cpts = [{} for _ in range(trials)]
        for c, rows in zip(self.cpts, batch):
            for model, (values, denom) in zip(cpts, _trials(rows, trials)):
                model[c.v] = Table(c.axes, c.domains, values, denom=denom)
        return list(map(self.model, cpts))


def _cpt(c: _CptLayout, weights: list) -> tuple:
    """The CPT of ``c.v`` in each model of a batch, from consecutive groups
    of ``c.n`` ``weights``, one per draw, model after model: each group in
    lowest terms, over the least common multiple of its model's group
    totals.  Returns the groups, each model's after a 0 and its
    denominator, and the denominators; ``c.index`` reads the cells there
    (``_ModelLayout.fill``)."""
    n, draws = c.n, len(c.draws)
    parts = [weights[k::n] for k in range(n)]
    gs = list(map(math.gcd, *parts))
    if 0 in gs:
        raise OracleError(f"a mechanism row of {c.v} has no mass")
    parts = [list(map(operator.floordiv, part, gs)) for part in parts]
    totals = _added(parts)
    denoms = tuple(itertools.starmap(math.lcm, zip(*[iter(totals)] * draws)))  # per model
    scales = list(map(operator.floordiv, _per_row(denoms, draws), totals))
    scaled = list(itertools.chain.from_iterable(zip(*(map(operator.mul, part, scales) for part in parts))))
    size, cells = draws * n, []
    for t, denom in enumerate(denoms):
        cells += (0, denom)
        cells += scaled[t * size:(t + 1) * size]
    return cells, denoms


def _random_layout(g: Graph, support: Optional[SelectorSupport], domain_size: int) -> _ModelLayout:
    """The layout of ``random_cs_scm``'s models on these arguments, after
    checking them."""
    if domain_size < 2:
        raise OracleError("domain size must be at least 2")
    if any(e.kind != "directed" for e in g.edges):
        raise OracleError("models are defined over DAGs; project or expand first")
    if g.selector is not None and support is None:
        support = g.support
    if g.selector is not None and support is None:
        raise OracleError("selector models need a support")
    return _ModelLayout(g, support, domain_size)


def _random_model(layout: _ModelLayout, seed: int) -> DiscreteCsScm:
    """The seeded random model on ``layout`` (``random_cs_scm``): a batch of
    one."""
    (m,) = layout.models(layout.draw([seed]), 1)
    return m


def random_cs_scm(
    g: Graph,
    support: Optional[SelectorSupport] = None,
    seed: int = 0,
    domain_size: int = 2,
) -> DiscreteCsScm:
    """Seeded random model on the full DAG ``g`` obeying the selector case
    split.  Every row the selector does not force is strictly positive: its
    weights are drawn from 1-16, so its denominator divides their sum.  A
    selector child draws its natural row once per value of its other
    parents, and every row with those values reuses it."""
    return _random_model(_random_layout(g, support, domain_size), seed)


def joint(m: DiscreteCsScm) -> Table:
    return m.joint()


def interventional(m: DiscreteCsScm, a: Mapping, s: Optional[SelectorValue] = None) -> Table:
    return m.interventional(a, s)


# --------------------------------------------------------------------------
# estimand evaluation


def eval_estimand(e: Estimand, tables: Mapping[str, Table]) -> Table:
    """Bottom-up exact evaluation; symbolic tokens become table axes and
    zero-mass contexts evaluate to an undefined marker that propagates.
    The estimand is compiled on the shapes of ``tables`` and run once."""
    plan = _compile_estimand(e, tables)
    return plan.run([tables[n] for n in plan.inputs])


def _compile_estimand(e: Estimand, tables: Mapping[str, Table]) -> _Plan:
    """The plan of ``e`` with each kernel name read from ``tables``, whose
    keys name the plan's inputs."""
    plan = _Plan(tables, tables.values())
    return plan.finish(_estimand_steps(e, dict(zip(plan.inputs, plan.operands)), plan))


def _estimand_steps(e: Estimand, inputs: Mapping, plan: _Plan) -> _Operand:
    """Append to ``plan`` the steps of ``e`` and return its result, each
    kernel name read from ``inputs``: an operand of ``plan``, or a ``_Law``
    whose model's CPTs are the plan's inputs, so that an estimand plan runs
    on the laws it makes and no joint table is built.  Each distinct node
    of ``e`` is planned once.

    A ``BaseKernel`` divides two margins of its source, ``keep`` by
    ``rest`` (``_Plan.conditional``): a law's ``keep`` is eliminated from
    the CPTs once per axis set (``_Plan.margin``), a table's is summed from
    the table, and each ``rest`` is summed from the kernel's own ``keep``.
    A kernel is planned as each parent reads it: under a ``Restrict`` that
    gives the selector a value, a law's kernel is eliminated over that
    value's pattern alone where no check covers fewer rows for it
    (``_narrowed``).  A ``Product`` plans no step: it is its factors,
    nested products flattened, which a ``SumOver`` sums down in one
    ``_Plan.eliminate`` and any other parent multiplies whole.  No node
    rewrites a step: a ``Restrict`` reads its child's rows in place
    (``_Plan.restrict``), and an equal step is planned once."""
    def kernel(k: BaseKernel, parent: Optional[Estimand]) -> _Operand:
        """``k`` as ``parent`` reads it; None reads it whole."""
        if k.name not in inputs:
            raise OracleError(f"no table for kernel {k.name!r}")
        source = inputs[k.name]
        return plan.conditional(source, k.outcome, k.context, _narrowed(source, k, parent))

    def summed(factors: list, over=frozenset()) -> _Operand:
        """The product of ``factors`` with ``over`` summed out."""
        return plan.eliminate(factors, frozenset().union(*(f.axes for f in factors)) - over)

    def node(x: Estimand, parts: list) -> list:  # x's factors
        if isinstance(x, BaseKernel):
            return x  # planned by each parent as it reads it (``kernel``)
        parts = [[kernel(p, x)] if isinstance(p, BaseKernel) else p for p in parts]
        if isinstance(x, SumOver):
            return [summed(parts[0], x.over)]
        if isinstance(x, Product):
            return [f for factors in parts for f in factors]
        if isinstance(x, Ratio):
            num, den = map(summed, parts)
            return [plan.divide(num, den, num.given | den.given)]
        if not isinstance(x, Restrict):
            raise OracleError(f"unknown estimand node {type(x).__name__}")
        t = summed(parts[0])
        for var, val in x.assignment:
            t = plan.restrict(t, var, val)
        return [t]

    out = fold(e, node)
    return summed([kernel(out, None)] if isinstance(out, BaseKernel) else out)


def _narrowed(source, k: BaseKernel, parent: Optional[Estimand]) -> Optional[tuple]:
    """The selector values the kernel ``k`` of ``source`` is eliminated
    over when ``parent`` reads it, or None for all of them.  A ``Restrict``
    that gives the selector a ``SelectorValue`` keeps the rows of that
    value's pattern alone, so ``k`` is eliminated over the pattern's values
    alone when no check covers fewer rows for it: ``source`` is a ``_Law``
    without free axes, so no constancy check (``_SAME``) drops any, and the
    selector is in ``k``'s context, so its ``rest`` never sums over it."""
    if not isinstance(parent, Restrict) or not isinstance(source, _Law) or source.free:
        return None
    sel = source.m.selector
    val = parent.asg.get(sel)
    if sel not in k.context or not isinstance(val, SelectorValue):
        return None
    pattern = tuple(sorted(val.pattern))
    return tuple(x for x in source.m.domain(sel) if x[0] == pattern) or None


# --------------------------------------------------------------------------
# agreement witnesses for non-identification verdicts


def _witness_models(g: Graph, rules, patterns=None) -> tuple:
    """The two models on the canonical hidden DAG of ``g``, binary vertices,
    ``g``'s support, one per dict of ``rules``.  A rule ``v: (inputs,
    flip)`` makes ``v`` the parity of its parents ``inputs``, XOR ``flip``;
    the selector's bit picks ``patterns[bit]`` instead, every value of that
    pattern equally likely.  A vertex without a rule is uniform.  A rule is
    read once per draw of the layout (``_CptLayout``), as ``_random_model``
    draws its weights, so a rule cannot read the selector and every row
    the selector leaves natural shares its draw.  The two models are filled
    as one batch."""
    layout = _ModelLayout(canonical_hidden_dag(g), g.support, 2)

    def weights(rule: dict, c: _CptLayout) -> list:
        if c.v not in rule:
            return [1] * (len(c.draws) * c.n)
        inputs, flip = rule[c.v]
        others = [p for p in c.axes[:-1] if p != g.selector]
        at = [others.index(p) for p in inputs]
        bits = [functools.reduce(operator.xor, (key[i] for i in at), flip) for key in c.draws]
        if c.v != g.selector:
            return [w for bit in bits for w in _point(2, bit)]
        return [int(sv[0] == patterns[bit]) for bit in bits for sv in c.domains[c.v]]

    filled = [[w for c in layout.cpts for w in weights(rule, c)] for rule in rules]
    return tuple(layout.models(layout.fill(filled), len(filled)))


def positivity_witness_pair(g: Graph, query, district) -> tuple:
    """Two models agreeing exactly on the supported observed law but
    disagreeing on the query: the natural mechanism of a never-laidback
    vertex is unobservable, and a copy path carries the difference to the
    outcome."""
    if g.selector is None or g.support is None:
        raise OracleError("positivity witnesses need a selector with support")
    candidates = [v for v in sorted(district) if not g.support.laidback_patterns({v})]
    if not candidates:
        raise OracleError(
            "no single never-laidback vertex; construction unsupported"
        )
    z = candidates[0]
    path = {v: ((pred,), 0) for v, pred in _carrier_path(g, query, z).items()}
    return _witness_models(g, [{**path, z: ((), zvalue)} for zvalue in (0, 1)])


def hedge_witness_pair(g: Graph, district, closure) -> tuple:
    """Bit-parity pair for a hedge: inside the closure every vertex is the
    parity of its incoming bits; the second model blinds the district to
    everything outside it.  Exactly agreeing observed laws, different query."""
    district = frozenset(district)
    closure = frozenset(closure)
    sel = g.selector
    us_of = {v: [] for v in g.vertices}
    inside = set()  # latents whose two children are both in the district
    for e, u in bidirected_latents(g).items():
        if e.endpoints() <= closure:
            us_of[e.tail].append(u)
            us_of[e.head].append(u)
            if e.endpoints() <= district:
                inside.add(u)

    patterns = None
    if sel is not None and g.support is None:
        raise OracleError("selector hedges need a support")
    if sel is not None and sel in closure:
        laid = g.support.laidback_patterns(district)
        if not laid:
            raise OracleError("no laidback pattern; use the positivity witness")
        laid_pattern = tuple(sorted(laid[0]))
        others = [p for p in g.support if tuple(sorted(p)) != laid_pattern]
        if not others:
            raise OracleError("selector hedge needs at least two support patterns")
        patterns = (laid_pattern, tuple(sorted(others[0])))

    def parity_inputs(v, blind: bool):
        scope = district if blind else closure
        ins = [p for p in g.parents(v) if p in scope and p != sel]
        ins += [u for u in us_of[v] if not blind or u in inside]
        return sorted(set(ins))

    def rules(blind_district: bool) -> dict:
        out = {v: (parity_inputs(v, blind_district and v in district), 0) for v in closure - {sel}}
        if patterns:
            out[sel] = (us_of[sel], 0)
        return out

    return _witness_models(g, (rules(False), rules(True)), patterns)


def _witness_separation(query, m1, m2) -> Fraction:
    """The largest total variation between the two models' query laws over
    all treatment values; 0 when their observed laws differ.  A pair is a
    valid witness exactly when this is positive.  One plan holds the
    observed joint and the query law's slice at each treatment binding,
    and runs once per model: the two share one layout."""
    plan = _Plan(m1.cpts)
    joint = _compile_law(_Law(m1, {}), m1.observed(), plan)
    truth = _compile_law(_query_law(m1, query), query.outcomes | query.treated, plan)
    plan.finish(joint, *(truth.fixed(vert_vals) for vert_vals, _ in _token_bindings(query, m1.sizes)))
    (j1, *q1), (j2, *q2) = (
        [_trials(rows, 1)[0] for rows in plan.run_rows([_rows(m.cpts[v]) for v in plan.inputs], 1)]
        for m in (m1, m2)
    )
    if not _equal_rows(j1, j2):
        return Fraction(0)
    return max(_table(s, a).total_variation(_table(s, b)) for s, a, b in zip(plan.outs[1:], q1, q2))


def _carrier_path(g: Graph, query, start: str) -> dict:
    """Copy-path predecessors from ``start`` to a query outcome, avoiding
    treatments and the selector; empty when start is itself an outcome."""
    treated = frozenset(v for v, _ in query.treatments)
    sub = g.induced_subgraph(g.random - treated - ({g.selector} - {start}))
    if start not in sub.vertices:
        raise OracleError("the witness vertex is a treatment; no carrier path starts there")
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
    laid = g.support.laidback_patterns(district)
    serious = [p for p in g.support if child in p]
    if not laid or not serious:
        raise OracleError("support cannot express the child's two regimes")
    patterns = (tuple(sorted(laid[0])), tuple(sorted(serious[0])))
    path = {v: ((pred,), 0) for v, pred in _carrier_path(g, query, child).items()}
    # the child reads the bit in the first model and is blind in the second
    rules = [{**path, sel: ((u_name,), 0), child: (inputs, 0)} for inputs in ((u_name,), ())]
    return _witness_models(g, rules, patterns)


def _certified_witness(g: Graph, query, failure) -> tuple:
    """``((m1, m2), separation)``: a witness pair for a non-identification
    verdict, validated exactly, with its ``_witness_separation``.  A pair
    whose models break the model rules (``DiscreteCsScm.validate``) counts
    as a construction that failed."""
    kind = getattr(failure, "kind", None)
    if kind == "positivity":
        builders = [lambda: positivity_witness_pair(g, query, failure.district)]
        failed = "positivity witness construction failed validation"
    elif kind == "hedge":
        builders = [
            lambda: hedge_witness_pair(g, failure.district, failure.closure),
            lambda: adjacent_child_witness_pair(g, query, failure.district, failure.closure),
        ]
        failed = "no known witness construction separates this hedge shape"
    else:
        raise OracleError(f"no witness construction for failure kind {kind!r}")
    for builder in builders:
        try:
            pair = builder()
            for m in pair:
                m.validate()
        except OracleError:
            if len(builders) == 1:  # a lone construction's reason is the answer
                raise
            continue
        tv = _witness_separation(query, *pair)
        if tv:
            return pair, tv
    raise OracleError(failed)


def parity_witness(g: Graph, query, failure) -> tuple:
    """Two models witnessing a non-identification verdict: exactly equal
    observed laws over the support, different query distributions.

    Every returned pair is validated exactly before being handed out: both
    models are checked against the model rules (normalized rows, the
    selector case split), then their observed laws must agree and their
    query laws differ.  Hedge shapes outside the known constructions raise
    the unsupported error instead of returning an uncertified pair.
    """
    return _certified_witness(g, query, failure)[0]


# --------------------------------------------------------------------------
# verification


def dataset_table(m: DiscreteCsScm, z: Iterable[str], s: Optional[SelectorValue] = None) -> Table:
    """The conditional table p(V - Z | do(Z)) stacked over all values of Z,
    with the Z axes last in sorted order."""
    return _dataset_law(m, z, s).table()


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

    An identified verdict is checked by one plan, compiled on the laws of
    the first trial's model: ``p`` is its observational law and each of
    ``datasets``, ``(name, intervened vertices)``, the law with those
    vertices' factors dropped.  The plan holds the estimand's steps
    (``_estimand_steps``), every sum of products in it eliminated from the
    CPTs (``_Plan.eliminate``), so no trial builds the observed joint; the
    ground truth's margin, read at the tokens; and the estimand without its
    other axes, checked to be constant over them.  It compiles on the shape
    of the one ``_ModelLayout`` every trial's model is drawn on, built once
    per call.  Trials run in batches, as many per batch as keep both a run
    and the batch's CPTs within ``BATCH_CELLS`` cells: each batch's models
    are drawn in one pass and the plan runs once on them
    (``_Plan.run_rows``), each trial over its own denominators, and each
    trial's two results are compared as rows.  A check of constancy that
    fails, in a kernel or in the comparison, fails its trial: a batch in
    which one fails runs again trial by trial, so the report names exactly
    the failing trials, as a run of each trial alone would.
    """
    if trials < 1:
        raise OracleError("at least one trial is required")
    kind = getattr(result, "kind", None)

    if kind == "identified":
        dag = dag or (g if not any(e.kind == "bidirected" for e in g.edges) else canonical_hidden_dag(g))
        absent = frozenset().union(*support.patterns) - dag.vertices if support else frozenset()
        if absent:
            raise GraphError(
                f"the selector support names {sorted(absent)}, which are not vertices of the "
                "model graph; verify the hidden-variable DAG the graph was projected from "
                "(for a fixture, its *_dag.lsg file)"
            )
        layout = _random_layout(dag, support, domain_size)
        m = layout.shape()  # every trial's model has its shape
        plan = _Plan(m.cpts)
        sources = {"p": _Law(m, {})}
        for name, z in datasets or ():
            sources[name] = _dataset_law(m, z, None)
        est = _estimand_steps(result.estimand, sources, plan)
        # the truth with each treatment's axis read at its token
        want = _compile_law(_query_law(m, query), query.outcomes | query.treated, plan)
        for v, tok in query.treatments:
            want = plan.restrict(want, v, tok)
        # the estimand without its other axes, checked to be constant over
        # them, and broadcast over tokens it does not depend on, never over
        # an outcome
        got = plan.sum_out(est, frozenset(est.axes) - frozenset(want.axes), _SAME)
        keep = [a for a in want.axes if a in got.axes or a not in query.outcomes]
        got = plan.step(_SUM, [got], keep, want.domains, got.given)
        plan.finish(want, got)
        # the two lay out the same rows unless the estimand lacks an outcome
        aligned = want.axes == got.axes

        def failed(batch: range) -> list:
            """The trials of ``batch`` that fail, run as one batch: a batch
            in which a constancy check fails runs again trial by trial."""
            inputs = layout.draw([seed + t for t in batch])
            try:  # every context axis dropped must be provably irrelevant
                truth, value = plan.run_rows(inputs, len(batch))
            except OracleError:
                if len(batch) == 1:
                    return list(batch)
                return [t for one in batch for t in failed(range(one, one + 1))]
            rows = zip(batch, _trials(truth, len(batch)), _trials(value, len(batch)))
            return [t for t, a, b in rows if _has_undef(b[0]) or not aligned or not _equal_rows(a, b)]

        per_trial = max(layout.cells, plan.cells)
        size = max(1, min(trials, BATCH_CELLS // per_trial))
        failures = [t for at in range(0, trials, size) for t in failed(range(at, min(at + size, trials)))]
        status = "verified" if not failures else "refuted"
        return VerifyReport(status, kind, trials, tuple(failures))

    if kind in ("hedge", "positivity"):
        try:
            _, tv = _certified_witness(g, query, result)
        except OracleError as exc:
            return VerifyReport("unverified", kind, 0, (), str(exc))
        return VerifyReport("verified", kind, 1, (), f"witness total variation {tv}")

    return VerifyReport("unverified", str(kind), 0, (), "no checkable certificate")

