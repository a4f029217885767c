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
  gathers its inputs by readers made on first use for a batch size
  (``_batch_reader``), one ``operator.itemgetter`` per input for at most
  8 models and one strided slice per position for more (a batch's CPTs
  need none: ``_cpt`` emits them in the plan's layout), multiplies or
  divides them cell by cell, and reduces groups of ``width`` cells as
  strided slices, or normalizes runs of ``width`` cells (``_normalized``).
  A step only multiplies, divides, normalizes or reduces: a restriction is
  a view, rows read in place by the one addressing rule of ``_Operand``,
  and ``finish`` copies out a result that is a view.  ``_Plan.eliminate``
  is the one variable-elimination routine, for every sum of products: a
  law's margin over the CPTs of its ancestral set (``_compile_law``),
  which are ``Table``s in the plan's layout from the moment they are
  drawn, an estimand's ``Product`` as each parent reads it, and
  ``Table.multiply``; a step of three or more factors first multiplies
  small ones together (``_Plan.absorbed``).  Plans share work through
  equal steps alone: a step equal to one already planned is found by its
  key and not planned again.  An estimand's steps (``_estimand_steps``) run on the laws it
  makes: each kernel's ``keep`` margin is eliminated from the CPTs, over
  one pattern's selector values alone when the kernel is read at a value
  of that pattern, and normalized in one step, context row by context
  row, with no ``rest`` margin; no joint table is built.  Given ``Table``s
  (``eval_estimand``), each ``keep`` is summed from its table and divided
  by its ``rest``.  A plan may keep several results, and each oracle call
  compiles one: ``verify`` one holding its estimand, ground truth and
  comparison, run once per batch of trials on models laid out once per
  call (``_ModelLayout``) and drawn a chunk of batches at a time, its two
  results compared in one pass per batch (``_mismatched``); a witness
  check one holding the observed joint and the query's slices, run once
  per model of the pair.  Each ``Table`` operation, and each of ``joint``,
  ``interventional`` and ``dataset_table``, is a plan run once.
* **Models** are filled one way: a ``_ModelLayout`` lists each CPT's
  draws, one per value of its parents other than the selector, and a
  model is one group of weights per draw.  A batch's CPTs are each
  normalized in vector operations over the batch, with no loop over
  models, and emitted column by column, every model's value at one
  column of the layout a cell (``_cpt``).  A random model draws its
  weights for every CPT from one over-drawn ``getrandbits`` call
  (``_weights``); a witness pair computes them from parity rules, data
  rather than code (``_witness_models``).
* **Arithmetic** is on integers alone: a run keeps numerators over one
  common denominator per model, or from a divide or a kernel's normalizing
  step onward over one denominator per row: each divide's rows in lowest
  terms, and each normalized run divided by its gcd, which puts a binary
  outcome's rows in lowest terms; sums and products run on
  ``operator.add`` and ``operator.mul``, which ``UNDEF`` answers itself
  (``Undefined``); a result over per-row denominators is divided once per
  row, into ``Fraction``s.
"""

from __future__ import annotations

import _random
import copy
import functools
import itertools
import math
import operator
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

# The cells of one CPT of a model: a larger one is refused before its rows
# are listed.
MAX_CELLS = 1 << 20
# The cells one plan's steps make for one model, summed over its steps: a
# plan that would make more is refused while it is made.  Of the identified
# benchmark sweep cases at 16-128 observed vertices, seeds 0-31, 128/11
# plans the most, 49 884 cells per model.
MAX_PLAN_CELLS = 1 << 20
# The cells one run of a plan may cover, over all the models of its batch,
# and the cells of the batch's CPTs: ``verify`` runs as many trials per
# batch as keep both within it.  Plans of a few dozen cells run dozens of
# trials per batch, where per-step Python overhead dominates;
# big-integer-bound plans run a few (selection_web: 3198 cells per trial,
# five), since wider batches of them were measured slower; a model whose
# CPTs alone exceed it runs one trial per batch.  Models are drawn in
# chunks of whole batches, as many models as keep a chunk's CPTs within
# it (selection_web: 35 models of 438 cells).
BATCH_CELLS = 1 << 14


class OracleError(ValueError):
    pass


class CapError(OracleError):
    """A CPT past ``MAX_CELLS`` cells, or a plan past ``MAX_PLAN_CELLS``
    cells per model, refused before it is built."""


class Undefined:
    """Marker for kernel values at zero-mass contexts, made where a divisor
    is 0 (``_divide``), that carries its own arithmetic: a sum that holds it
    is ``UNDEF``, and a product with it is 0 when the other factor is 0 and
    ``UNDEF`` otherwise, from either side.  So every sum and product runs on
    ``operator.add`` and ``operator.mul``, and rows compare by
    cross-multiplication, since ``UNDEF`` equals only itself and no
    denominator is 0.  An ``UNDEF`` row's denominator means nothing."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEF"

    def __add__(self, other):
        return self

    def __mul__(self, other):
        return 0 if other == 0 else self

    __radd__ = __add__
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


def _mismatched(a: tuple, b: tuple, trials: int) -> list:
    """The models, by position in the batch, whose rows differ between
    ``a`` and ``b``, the rows ``(values, denominators)`` of a batch of
    ``trials`` models, the same rows in the same order, each side over one
    denominator per model (a tuple) or one per row (a list).  The rows are
    compared in one pass over the batch, by cross-multiplication
    (``Undefined``); the rows that differ alone are mapped to their
    models."""
    (p, dp), (q, dq) = a, b
    cells = len(p) // trials
    if type(dp) is tuple and dp == dq:
        same = map(operator.eq, p, q)
    else:
        dp = _per_row(dp, cells) if type(dp) is tuple else dp
        dq = _per_row(dq, cells) if type(dq) is tuple else dq
        same = map(operator.eq, map(operator.mul, p, dq), map(operator.mul, q, dp))
    return sorted({i // cells for i in itertools.compress(itertools.count(), map(operator.not_, same))})


def _equal_rows(a: tuple, b: tuple) -> bool:
    """Whether one model's rows ``a`` and ``b``, ``(values,
    denominators)`` with each denominator one integer or one per row, are
    equal (``_mismatched`` on a batch of one)."""
    (p, dp), (q, dq) = a, b
    dp, dq = ((d,) if type(d) is int else d for d in (dp, dq))
    return not _mismatched((p, dp), (q, dq), 1)


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
    """Vertex domains of a model with ``graph`` and ``sizes``: the selector
    ranges over (sorted pattern, value tuple) pairs of the graph's
    support."""

    @property
    def selector(self):
        return self.graph.selector

    def domain(self, v) -> tuple:
        if v == self.selector:
            return selector_domain(self.graph.support, self.sizes)
        return tuple(range(self.sizes[v]))

    def response_support(self) -> SelectorSupport:
        """Patterns the mechanisms must respond to: the declared support plus
        the observational value (always a legal intervention)."""
        return SelectorSupport(self.graph.support.patterns | {frozenset()})

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
        of several values adds, axes the factor lacks broadcast; two views
        are equal exactly when they gather equal positions, each a sum of
        one term per axis (``_gather``)."""
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
        table over ``axes`` (``_gather``)."""
        return _gather(self.view(axes, domains))


def _gather(view: tuple) -> list:
    """The positions a factor's ``view`` reads, one for every row of the
    table it was taken over.  Every plan step gathers its inputs here, from
    the views its key holds, after ``_Plan.step`` has charged the step
    against ``MAX_PLAN_CELLS``."""
    _, base, diffs = view
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


_SUM, _DIV, _SAME, _NORM = "sum", "divide", "same", "normalize"


@dataclass(eq=False, slots=True)
class _Step:
    """Gather each input ``(slot, idx)``, the positions ``idx`` of that
    slot's rows, multiply the inputs cell by cell (``_SUM``, ``_SAME``; all
    ones without inputs) or divide the first by the second (``_DIV``),
    then reduce consecutive groups of ``width`` cells: by
    summing, or for ``_SAME`` by checking that they are equal and keeping
    one.  A ``_NORM`` step reduces nothing: it reads one law margin and
    normalizes each run of ``width`` consecutive cells, a context row's
    outcome cells, by one gcd (``_normalized``).  ``cells`` counts one
    model's.  Numerators and denominators are multiplied apart; a divide
    or a normalizing step gives one denominator per row, and products and
    sums of such rows keep one (``_Plan.run_rows``).  ``release`` lists
    the slots no later step reads.  ``readers`` holds the inputs' readers
    by input and batch size, each kept from its first use
    (``_batch_reader``)."""

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
    ``_Operand``s; every sum of products is eliminated (``eliminate``),
    and a step equal to one already planned is not planned again
    (``step``), so a margin of a ``_Law`` planned again adds no step.  A
    restriction (``restrict``) is a view, never a step, and ``finish``
    copies out a result that is a view.
    """

    def __init__(self, inputs, tables=()):
        self.inputs = list(inputs)
        self.operands = [_Operand(i, t.axes, t.domains, given=t.given) for i, t in enumerate(tables)]
        self.steps = []
        self.made: dict = {}  # step key -> its slot
        self.cells = 0  # the cells of one model's run, over every step
        self.outs = ()

    def step(self, op, operands, axes, domains, given=frozenset(), drop=(), summed=()) -> _Operand:
        """The table over ``axes`` a step makes from ``operands``, each read
        over ``axes`` then ``summed`` and reduced over ``summed`` (a ``_NORM``
        step reduces nothing: its table is over ``axes`` then ``summed``,
        each run over ``summed`` normalized); or the
        slot of an equal step already planned, one with the same op, width
        and input views (``_Operand.view``), which makes the same rows (two
        margins eliminated from one law share products); an equal step is
        found before any input is gathered.  A new step gathers each input
        from its view in the key (``_gather``).  A step that would take the
        plan past ``MAX_PLAN_CELLS`` cells raises ``CapError`` before its
        inputs are gathered."""
        layout = list(axes) + list(summed)
        width = math.prod(len(domains[a]) for a in summed)
        views = tuple(t.view(layout, domains) for t in operands)
        key = (op, width, tuple(drop), views)
        slot = self.made.get(key)
        if slot is None:
            cells = width * math.prod(len(domains[a]) for a in axes)
            if self.cells + cells > MAX_PLAN_CELLS:
                raise CapError(f"a plan of at least {self.cells + cells} cells per model exceeds the enumeration cap")
            inputs = [(view[0], _gather(view)) for view in views]
            self.cells += cells
            self.steps.append(_Step(op, inputs, width, cells, drop))
            slot = self.made[key] = len(self.inputs) + len(self.steps) - 1
        return _Operand(slot, layout if op is _NORM else axes, domains, given=given)

    def eliminate(self, factors: list, out_axes, free: Mapping = {}) -> _Operand:
        """The product of ``factors`` summed down to ``out_axes``: the one
        variable-elimination routine.  Axes are summed out smallest product
        first, ties to the first name, each from the factors that hold it,
        multiplied smallest first; at the first axis every factor left
        holds, one last step multiplies them and sums the rest.  A step of
        three or more factors first multiplies small ones together
        (``absorbed``).  It keeps the kept axes in product order, then the
        ``free`` axes sorted, each over its domain there, broadcast where no
        factor has it.  A lone factor with nothing to sum is returned as it
        is."""
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
            inputs = self.absorbed(touching, domains)
            live.append(self.step(_SUM, inputs, [a for a in axes if a != h], domains, summed=[h]))
        live.sort(key=lambda f: f.cells)
        axes, domains = _joined(live) if live else ([], {})
        keep = [a for a in axes if a in out_axes and a not in free] + sorted(free)
        if len(live) == 1 and tuple(keep) == live[0].axes:
            return live[0]
        given = frozenset().union(*(f.given for f in factors), free) & frozenset(keep)
        summed = [a for a in axes if a not in keep]
        return self.step(_SUM, self.absorbed(live, domains), keep, {**free, **domains}, given, summed=summed)

    def absorbed(self, factors: list, domains: Mapping) -> list:
        """``factors``, sorted smallest first, of a step over ``domains``:
        while there are three or more, a factor whose axes a factor smaller
        than the step holds is first multiplied into the smallest such
        factor, a step of that factor's size, so that the step multiplies
        one vector fewer per cell."""
        step = math.prod(map(len, domains.values()))
        while len(factors) > 2:
            pair = next(
                (
                    (f, h) for f in factors for h in factors
                    if h is not f and h.cells < step and f.domains.keys() <= h.domains.keys()
                ),
                None,
            )
            if pair is None:
                break
            axes, joined = _joined(pair[::-1])
            product = self.step(_SUM, pair[::-1], axes, joined)
            factors = sorted([x for x in factors if x not in pair] + [product], key=lambda x: x.cells)
        return factors

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
        operand.

        A law's ``keep`` margin (``_compile_law``) is normalized in one
        ``_NORM`` step, read with its context axes first and its outcome
        axes last, so that each context row's cells are one run: no
        ``rest`` margin is planned (``_normalized``).  An operand, whose
        rows may hold per-row denominators or ``UNDEF``, divides its
        ``keep`` by the ``rest`` summed from it."""
        missing = t.given - context
        keep = _kernel_keep(t, outcome, context)
        if isinstance(t, _Law):
            num = _compile_law(t, keep, self, selector)
            rows = [a for a in num.axes if a not in outcome]
            run = [a for a in num.axes if a in outcome]
            out = self.step(_NORM, [num], rows, num.domains, context | missing, summed=run)
        else:
            num = self.sum_out(t, frozenset(t.axes) - keep)
            # the rest is summed from the kernel's own keep, over the same
            # denominator, which the divide cancels
            out = self.divide(num, self.sum_out(num, outcome), context | missing)
        return self.sum_out(out, missing, _SAME)

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
        a divide or a normalizing step onward, over one denominator per row
        (a list).  Each input is read by its step's reader in one call, and
        the products are taken cell by cell by ``map`` over
        ``operator.mul``, the sums by ``operator.add`` or ``sum``.
        ``UNDEF`` answers both itself (``Undefined``), so no step tracks
        which rows hold it, and no Python code runs per cell but its own and
        the pass of the step that makes it.  A group a step reduces or a run
        it normalizes never spans two models, so a batch of one model is a
        run on that model alone."""
        slots, denoms = map(list, zip(*inputs)) if inputs else ([], [])
        for step in self.steps:
            inputs = [
                (s, _batch_reader(step.readers, (k, trials), idx, len(slots[s]) // trials, trials))
                for k, (s, idx) in enumerate(step.inputs)
            ]
            if step.op is _DIV:
                vec, den = _divide(slots, denoms, inputs, step.cells)
            elif step.op is _NORM:
                ((s, read),) = inputs
                vec, den = _normalized(read(slots[s]), step.width)
            else:
                if inputs:
                    (s, read), *rest = inputs
                    acc = read(slots[s])
                    for s, read in rest:
                        acc = map(operator.mul, acc, read(slots[s]))
                    den = _product_denoms(denoms, inputs, step.cells)
                else:
                    acc, den = [1] * (step.cells * trials), (1,) * trials
                if type(den) is tuple:
                    vec = _reduce(step, acc)
                else:
                    vec, den = _reduce_rows(step, acc, den)
            slots.append(vec)
            denoms.append(den)
            for s in step.release:
                slots[s] = denoms[s] = None
        return [(slots[out.slot], denoms[out.slot]) for out in self.outs]


def _batch_reader(cache: dict, key, idx, size: int, trials: int):
    """A reader of the positions ``idx`` of each of ``trials`` models laid
    out back to back, ``size`` cells each: made on first use and kept in
    ``cache`` under ``key``, which names ``idx`` and ``trials``.  Plan
    steps read their inputs through it; a batch's CPTs are emitted in the
    plan's layout (``_cpt``), and read by none.

    The batch size alone picks it.  A batch of one model reads through
    ``_reader(idx)``, and a batch of 2 to 8 through one ``_reader`` of the
    positions in every model (``_repeated``).  A batch of more than 8 takes
    one strided slice per position instead, regrouped by model
    (``_by_position``): n slices rather than T x n index integers, which a
    batch size read once in a call, as ``verify --trials 100`` on a small
    graph reads each, never reuses.  Timed on 64-bit values (CHANGES.md),
    for 4 to 80 positions of 8 to 512 a strided read costs 1.0-1.8x a first
    expanded one (index built, then read) in 4 or 5 models, 0.74-0.94x in 8
    or 9, and 0.25-0.33x in 100: 30 us against 98 us for 20 positions of
    40.  A built expanded reader reads those in 24 us, so it would repay
    its index only after about 13 reads of one batch size."""
    read = cache.get(key)
    if read is None:
        if trials > 8:
            read = _by_position(idx, size)
        else:
            read = _reader(_repeated(idx, size, trials) if trials > 1 else idx)
        cache[key] = read
    return read


def _by_position(idx, size: int):
    """The rows at positions ``idx`` of each model of a batch laid out back
    to back, ``size`` cells each, read as one strided slice per position
    (every model's cell there) and regrouped model by model."""
    if len(idx) == 1:
        return operator.itemgetter(slice(idx[0], None, size))
    read = operator.itemgetter(*(slice(i, None, size) for i in idx))
    return lambda vec: itertools.chain.from_iterable(zip(*read(vec)))


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


def _divide(slots: list, denoms: list, inputs, cells: int) -> tuple:
    """Numerators and per-row denominators of a ``_DIV`` step's ``cells``
    per model, each row in lowest terms: (a / da) / (b / db) = (a * db) /
    (b * da), so the denominator two margins of one table share cancels.
    Lowest terms keep the integers that later products and sums carry
    small: without them nested ratios multiply their size at every level,
    and even one divide of two margins of one law carries the law's
    factors into every row.  A divide serves ``Ratio`` nodes and operand
    sources (``_Plan.conditional``); a law's kernel is ``_normalized``.
    ``UNDEF`` is made here too: a row whose divisor is 0 is ``UNDEF``, as is
    one that reads ``UNDEF``, each over 1, in one pass row by row taken
    only when such a row is there: a 0 divisor is found by ``in``, and a
    row that reads ``UNDEF`` by the ``TypeError`` its gcd raises."""
    (n, read_n), (d, read_d) = inputs
    num, den = list(read_n(slots[n])), list(read_d(slots[d]))
    da, db = denoms[n], denoms[d]
    if type(da) is not tuple or da != db:
        num, den = _scaled(num, db, read_d, cells), _scaled(den, da, read_n, cells)
    if 0 not in den:
        try:
            gs = list(map(math.gcd, num, den))
        except TypeError:  # a row reads UNDEF
            pass
        else:
            return list(map(operator.floordiv, num, gs)), list(map(operator.floordiv, den, gs))
    for i, (a, b) in enumerate(zip(num, den)):
        if a is UNDEF or b is UNDEF or not b:
            num[i], den[i] = UNDEF, 1
        else:
            g = math.gcd(a, b)
            num[i], den[i] = a // g, b // g
    return num, den


def _normalized(acc, width: int) -> tuple:
    """Numerators and per-row denominators of a ``_NORM`` step: ``acc``
    holds a law's margin over one common denominator per model, context
    row by context row, each row's ``width`` outcome cells one run.  Each
    run is divided by its gcd, one gcd per run, and each of its cells is
    over the run's sum after that division; the common denominator
    cancels.  A run of zeros, a zero-mass context, is ``UNDEF`` over 1, as
    ``_divide`` makes it.  For ``width`` 2 the rows are in lowest terms:
    gcd(a / g, (a + b) / g) = gcd(a / g, b / g) = 1.  A wider run's rows
    are exact, but not always in lowest terms.  Many narrow runs
    (``_strided``) are read as ``width`` strided slices, cell k of every
    run in slice k."""
    acc = list(acc)
    strided = _strided(acc, width)
    if strided:
        parts = [acc[k::width] for k in range(width)]
        gs = list(map(math.gcd, *parts))
    else:
        gs = list(itertools.starmap(math.gcd, zip(*[iter(acc)] * width)))
    zeros = [i for i, g in enumerate(gs) if not g] if 0 in gs else ()
    for i in zeros:
        gs[i] = 1
    if strided:
        parts = [list(map(operator.floordiv, part, gs)) for part in parts]
        totals = _added(parts)
        nums = list(itertools.chain.from_iterable(zip(*parts)))
    else:
        nums = list(map(operator.floordiv, acc, _per_row(gs, width)))
        totals = list(map(sum, zip(*[iter(nums)] * width)))
    for i in zeros:
        nums[i * width:(i + 1) * width] = [UNDEF] * width
        totals[i] = 1
    return nums, list(itertools.chain.from_iterable(zip(*[totals] * width)))


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


def _reduce(step: _Step, acc) -> list:
    """Reduce cells over one common denominator in groups of ``width``.  A
    sum of many narrow groups (``_strided``) adds the ``width`` strided
    slices."""
    if type(acc) is not list:
        acc = list(acc)
    width = step.width
    if width == 1:
        return acc
    if step.op is _SUM and _strided(acc, width):
        return _added([acc[k::width] for k in range(width)])
    groups = zip(*[iter(acc)] * width)
    if step.op is _SAME:
        vec = []
        for group in groups:
            if group.count(group[0]) != width:
                raise _not_constant(step)
            vec.append(group[0])
        return vec
    return list(map(sum, groups))


def _reduce_rows(step: _Step, acc, dens) -> tuple:
    """Reduce cells over per-row denominators in groups of ``width``: a sum
    adds numerators over a shared denominator, else over the group's least
    common multiple; ``_SAME`` compares rows by cross-multiplication.

    A sum of many narrow groups (``_strided``) reads ``width`` strided
    slices: ``lcm = map(math.lcm, *dens_k)``, and slice k's numerators,
    scaled by ``lcm // d_k``, are added.  That is the per-group rule, since
    lcm(d, ..., d) = d leaves a group over one denominator as it is."""
    acc, dens = list(acc), list(dens)
    width = step.width
    if width == 1:
        return acc, dens
    if step.op is _SUM and _strided(acc, width):
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
            if not all(x * d == n * y for x, y in zip(nums, ds)):
                raise _not_constant(step)
            vec.append(n)
            out.append(d)
        return vec, out
    for nums, ds in groups:
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
    """The axes of the margin ``keep`` of ``t`` that a kernel normalizes
    over ``outcome``, context row by context row."""
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
    A product that takes the plan past ``MAX_PLAN_CELLS`` raises
    ``CapError`` while the plan is made, before its rows are gathered
    (``_Plan.step``).  The law's state space is capped only where a step
    builds it.
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


def _weights(seed: int, n: int) -> list:
    """The first ``n`` draws of ``randint(1, 16)`` on a fresh generator
    seeded by ``seed``, as ``random.Random(seed)`` draws them.  That call is
    ``1 + _randbelow(16)``, which draws ``getrandbits(16 .bit_length())``,
    5 bits, until the value is below 16.  ``getrandbits(5)`` is the top 5
    bits of the generator's next 32-bit word, and ``getrandbits(32 * k)``
    holds its next k words, the first lowest; the top bits of those below
    16 are kept (``_TOP_BITS``).  Half of all words are kept, so one call
    of 2n + 4 isqrt(n) + 8 words keeps n but for fewer than 1 call in 400;
    a round that falls short is followed by one for the rest.  The words
    past the n-th kept one are drawn and dropped: the generator serves this
    call alone.  It is ``_random.Random``, the C base class of
    ``random.Random``, with the same ``seed`` and ``getrandbits``."""
    rng, out = _random.Random(seed), b""
    while len(out) < n:
        want = n - len(out)
        k = 2 * want + 4 * math.isqrt(want) + 8
        out += rng.getrandbits(32 * k).to_bytes(4 * k, "little")[3::4].translate(_TOP_BITS, _OVER_16)
    return list(out[:n])


def _point(n: int, value) -> list:
    return [int(k == value) for k in range(n)]


class _CptLayout(NamedTuple):
    """Where the cells of the CPT of ``v`` come from, in the law-plan layout
    (``DiscreteCsScm``): ``n`` values of ``v`` per row, drawn once per entry
    of ``draws``, the parents' values without the selector's, in
    ``itertools.product`` order.  A selector child draws one row per value
    of its other parents, which every row the selector leaves natural
    reuses.  ``index`` lists, cell by cell, the column of a batch's fill
    each cell is read from (``_cpt``): column 0 holds 0 and column 1 the
    denominator, which a row the selector forces reads, and column
    ``2 + n * draw + k`` value k of that draw's group of weights, in lowest
    terms, every model's in each column."""

    v: str
    axes: tuple
    domains: dict
    n: int
    draws: tuple
    index: list


class _ModelLayout:
    """The layout every model on one (DAG, domain size) shares,
    worked out once: each vertex's CPT axes and domains, the rows the
    selector forces and the draws (``_CptLayout``).  A CPT over more than
    ``MAX_CELLS`` cells raises ``CapError`` before its rows are listed.
    Every model, random or witness, is made there, one group of weights per
    draw, in batches (``fill``, ``draw``): a batch is one run slot per CPT,
    a plan's inputs as they are, and ``models`` splits it into models.  A
    fill keeps nothing between batches."""

    def __init__(self, dag: Graph, domain_size: int):
        sel = dag.selector
        self.dag = dag
        self.sizes = {v: domain_size for v in dag.vertices if v != sel}
        shape = DiscreteCsScm(dag, self.sizes, {})
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

    def model(self, cpts: dict) -> DiscreteCsScm:
        return DiscreteCsScm(self.dag, dict(self.sizes), cpts)

    def shape(self) -> DiscreteCsScm:
        """A model whose CPTs hold no values: plans compile on it."""
        return self.model({c.v: Table(c.axes, c.domains, ()) for c in self.cpts})

    def fill(self, weights: list) -> list:
        """The CPTs of a batch of models, one ``(cells, denominators)`` slot
        per CPT (``_cpt``): ``weights`` holds one list per model, its
        weights for every CPT's draws, CPT after CPT in topological order."""
        batch, at = [], 0
        for c in self.cpts:
            end = at + len(c.draws) * c.n
            cut = itertools.repeat(slice(at, end))
            batch.append(_cpt(c, list(itertools.chain.from_iterable(map(operator.getitem, weights, cut)))))
            at = end
        return batch

    def draw(self, seeds) -> list:
        """The batch (``fill``) of the random models seeded by ``seeds``: one
        ``_weights`` call per model covers every CPT, as ``random_cs_scm``
        draws them."""
        return self.fill([_weights(seed, self.weights) for seed in seeds])

    def part(self, batch: list, start: int, stop: int) -> list:
        """Models ``start`` to ``stop`` of ``batch``, as a batch of their
        own: the whole batch as it is."""
        if start == 0 and stop == len(batch[0][1]):
            return batch
        cells = [len(c.index) for c in self.cpts]
        return [(vec[start * n:stop * n], den[start:stop]) for n, (vec, den) in zip(cells, batch)]

    def models(self, batch: list, trials: int) -> list:
        """The ``trials`` models of ``batch``."""
        cpts = [{} for _ in range(trials)]
        for c, rows in zip(self.cpts, batch):
            for model, (values, denom) in zip(cpts, _trials(rows, trials)):
                model[c.v] = Table(c.axes, c.domains, values, denom=denom)
        return list(map(self.model, cpts))


def _cpt(c: _CptLayout, weights: list) -> tuple:
    """The CPT of ``c.v`` in each model of a batch, as a run slot ``(cells,
    denominators)``, from consecutive groups of ``c.n`` ``weights``, one per
    draw, model after model: each group in lowest terms, over the least
    common multiple of its model's group totals, which is the one total
    of a CPT of one draw.  Each step is one vector operation over the
    batch: value k of every group is one strided slice, and the gcds,
    totals, per-model lcms and scales are taken across them.  The cells
    are emitted column by column: ``c.index`` names each cell's column
    (``_CptLayout``), every model's value there, and the columns are
    regrouped by model; for one model a column is its one value."""
    n, draws = c.n, len(c.draws)
    parts = [weights[k::n] for k in range(n)]  # by model, then draw
    gs = list(map(math.gcd, *parts))
    if 0 in gs:
        raise OracleError(f"a mechanism row of {c.v} has no mass")
    parts = [list(map(operator.floordiv, part, gs)) for part in parts]
    totals = _added(parts)
    if draws == 1:
        denoms = tuple(totals)
    else:
        denoms = tuple(itertools.starmap(math.lcm, zip(*[iter(totals)] * draws)))  # per model
        scales = list(map(operator.floordiv, _per_row(denoms, draws), totals))
        parts = [list(map(operator.mul, part, scales)) for part in parts]
    if len(denoms) == 1:
        columns = [0, *denoms, *itertools.chain.from_iterable(zip(*parts))]
        return list(map(columns.__getitem__, c.index)), denoms
    columns = [[0] * len(denoms), denoms, *(part[d::draws] for d in range(draws) for part in parts)]
    return list(itertools.chain.from_iterable(zip(*map(columns.__getitem__, c.index)))), denoms


def _random_layout(g: Graph, domain_size: int) -> _ModelLayout:
    """The layout of ``random_cs_scm``'s models on these arguments, after
    checking them."""
    if domain_size < 2:
        raise OracleError("domain size must be at least 2")
    if any(e.kind != "directed" for e in g.edges):
        raise OracleError("models are defined over DAGs; project or expand first")
    return _ModelLayout(g, domain_size)


def _random_model(layout: _ModelLayout, seed: int) -> DiscreteCsScm:
    """The seeded random model on ``layout`` (``random_cs_scm``): a batch of
    one."""
    (m,) = layout.models(layout.draw([seed]), 1)
    return m


def _check_seed(seed: int):
    """Refuse a negative seed: ``random.Random`` seeds with its absolute
    value, so seed -s would draw seed s's model."""
    if seed < 0:
        raise OracleError(f"seeds are non-negative, got {seed}")


def random_cs_scm(g: Graph, seed: int = 0, domain_size: int = 2) -> DiscreteCsScm:
    """Seeded random model on the full DAG ``g`` obeying the selector case
    split over ``g.support``.  Every row the selector does not force is
    strictly positive: its weights are drawn from 1-16, so its denominator
    divides their sum.  A selector child draws its natural row once per
    value of its other parents, and every row with those values reuses it.
    ``seed`` is non-negative."""
    _check_seed(seed)
    return _random_model(_random_layout(g, domain_size), seed)


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

    A ``BaseKernel`` normalizes the margin ``keep`` of its source over its
    outcome (``_Plan.conditional``): a law's ``keep`` is eliminated from
    the CPTs (``_compile_law``) and normalized in one step, and a table's
    is summed from the table and divided by the ``rest`` summed from it; a
    ``keep`` that another kernel already planned is found step by step
    (``_Plan.step``).
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
    selector is in ``k``'s context, so no run it normalizes spans it."""
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
    layout = _ModelLayout(canonical_hidden_dag(g), 2)

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
    if g.selector is None:
        raise OracleError("positivity witnesses need a selector")
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
    if sel is None or sel not in closure:
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
        failed = "the positivity witness pair does not separate the query"
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

    Models are laid out on the support of ``g``, which ``dag``, when given,
    must share.  ``support`` is kept for positional callers: it must be
    ``None`` or ``g.support``, and any other value, like a ``dag`` with
    another support, raises ``GraphError``.

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
    and the batch's CPTs within ``BATCH_CELLS`` cells.  Models are drawn
    a chunk at a time, a whole number of batches whose CPTs stay within
    ``BATCH_CELLS`` (``_ModelLayout.draw``), and each batch reads its
    slice of its chunk (``_ModelLayout.part``).  The plan runs once on each
    batch's models (``_Plan.run_rows``), each trial over its own
    denominators, and the
    batch's two results are compared row by row in one pass
    (``_mismatched``), which names the trials that differ.  A check of
    constancy that fails, in a kernel or in the comparison, fails its
    trial: a batch in which one fails runs again trial by trial, so the
    report names exactly the failing trials, as a run of each trial alone
    would.  Trial t draws the model of ``random_cs_scm`` at ``seed + t``,
    so ``seed`` is non-negative.
    """
    if trials < 1:
        raise OracleError("at least one trial is required")
    _check_seed(seed)
    if support not in (None, g.support) or (dag is not None and dag.support != g.support):
        raise GraphError("verify reads the support from the graph: pass None or g.support, and a dag with it")
    kind = getattr(result, "kind", None)

    if kind == "identified":
        dag = dag or (g if not any(e.kind == "bidirected" for e in g.edges) else canonical_hidden_dag(g))
        absent = frozenset().union(*g.support.patterns) - dag.vertices if g.support else frozenset()
        if absent:
            raise GraphError(
                f"the selector support names {sorted(absent)}, which are not vertices of the "
                "model graph; verify the hidden-variable DAG the graph was projected from "
                "(for a fixture, its *_dag.lsg file)"
            )
        layout = _random_layout(dag, domain_size)
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

        def failed(batch: range, inputs: list) -> list:
            """The trials of ``batch``, whose models ``inputs`` holds, that
            fail, run as one batch: a batch in which a constancy check fails
            runs again trial by trial."""
            try:  # every context axis dropped must be provably irrelevant
                truth, value = plan.run_rows(inputs, len(batch))
            except OracleError:
                if len(batch) == 1:
                    return list(batch)
                alone = (failed(range(one, one + 1), layout.part(inputs, i, i + 1)) for i, one in enumerate(batch))
                return [t for ts in alone for t in ts]
            if not aligned:
                return list(batch)
            # the truth, a law's margin, holds no UNDEF, which equals only
            # itself: a trial whose estimand is UNDEF anywhere differs there
            return [batch[i] for i in _mismatched(truth, value, len(batch))]

        size = max(1, min(trials, BATCH_CELLS // max(layout.cells, plan.cells)))
        # models are drawn a chunk of whole batches at a time, as many as
        # keep a chunk's CPTs within BATCH_CELLS
        chunk = size * max(1, BATCH_CELLS // layout.cells // size)
        failures = []
        for first in range(0, trials, chunk):
            drawn = layout.draw(range(seed + first, seed + min(first + chunk, trials)))
            for at in range(first, min(first + chunk, trials), size):
                batch = range(at, min(at + size, trials))
                failures += failed(batch, layout.part(drawn, at - first, batch.stop - first))
        status = "verified" if not failures else "refuted"
        return VerifyReport(status, kind, trials, tuple(failures))

    if kind in ("hedge", "positivity"):
        try:
            _, tv = _certified_witness(g, query, result)
        except OracleError as exc:
            return VerifyReport("unverified", kind, 0, (), str(exc))
        return VerifyReport("verified", kind, 1, (), f"witness total variation {tv}")

    return VerifyReport("unverified", str(kind), 0, (), "no checkable certificate")

