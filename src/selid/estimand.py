"""Symbolic Markov-kernel algebra: expression trees, fixing, normal form, rendering.

Estimands are immutable trees over named base kernels.  A base kernel
``p(O | C)`` denotes a conditional of a named distribution; derived kernels
are built with sums (``SumOver``, which marginalization builds too), ratios,
products and value restrictions.  Identification algorithms fix a
``ChainKernel``: a map from each random vertex to its factor, a
single-vertex conditional or one block for its whole district.  A fixing
step drops the vertex's factor or rewrites its district's block, and no
other factor.  Evaluation lives in the oracle module.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .graph import FixState, Graph, SelectorValue


class EstimandError(ValueError):
    pass


# --------------------------------------------------------------------------
# value tokens


@dataclass(frozen=True, order=True)
class Sym:
    """A free symbolic constant, e.g. the queried treatment value ``a1``."""

    name: str


@dataclass(frozen=True, order=True)
class Var:
    """A reference to another variable's own value (diagonal restriction)."""

    vertex: str


@dataclass(frozen=True, order=True)
class Lo:
    """The lowest domain value: an arbitrary-but-fixed choice for selector
    components whose value provably does not matter (mechanism invariance)."""


# The symbolic selector value of a restriction is the graph's own type; the
# name SelectorAssign stays bound to it.
SelectorAssign = SelectorValue

Value = object  # Sym | Var | Lo | SelectorValue


# --------------------------------------------------------------------------
# expression nodes


def _cached(fn):
    """Keep ``fn(node)`` in the node's own ``__dict__``.

    Nodes are immutable, so the answer never goes stale, and a subtree that
    several parents share is walked once however often it is reached.
    """
    key = "_" + fn.__name__

    @functools.wraps(fn)
    def cached(node):
        try:
            return node.__dict__[key]
        except KeyError:
            value = node.__dict__[key] = fn(node)
            return value

    return cached


class Estimand:
    """Base class; all nodes are frozen dataclasses, compared structurally.

    Scope sets and sort keys are cached per node (see ``_cached``), and so
    is the hash; ``==`` compares each pair of nodes once.  Every other walk
    is a ``fold``.
    """

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return _equal(self, other, set())

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((type(self), self._own(), tuple(map(hash, self.parts()))))
        return h

    def _own(self) -> tuple:
        """The node's fields other than the nodes it is built from."""
        return ()

    @_cached
    def free_vars(self) -> frozenset:
        """All unbound variable names (outcome and context alike)."""
        return self.outcomes() | self.contexts()

    def outcomes(self) -> frozenset:
        raise NotImplementedError

    def contexts(self) -> frozenset:
        raise NotImplementedError

    def parts(self) -> tuple:
        """The nodes this one is built from, in field order: its ``child``
        unless the class says otherwise."""
        return (self.child,)


def _equal(a: Estimand, b: Estimand, same: set) -> bool:
    """Structural equality of ``a`` and ``b``; ``same`` holds the ``id``
    pairs already found equal, so a subtree shared in both is compared once
    however often it is reached."""
    if a is b or (id(a), id(b)) in same:
        return True
    if type(a) is not type(b) or hash(a) != hash(b) or a._own() != b._own():
        return False
    pa, pb = a.parts(), b.parts()
    if len(pa) != len(pb):
        return False
    for x, y in zip(pa, pb):
        if not _equal(x, y, same):
            return False
    if pa:  # a leaf is compared in one step: no need to remember it
        same.add((id(a), id(b)))
    return True


@dataclass(frozen=True, eq=False)
class BaseKernel(Estimand):
    name: str
    outcome: frozenset
    context: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "outcome", frozenset(self.outcome))
        object.__setattr__(self, "context", frozenset(self.context))
        if self.outcome & self.context:
            raise EstimandError("kernel outcome and context overlap")
        if not self.outcome:
            raise EstimandError("kernel with empty outcome")

    def outcomes(self):
        return self.outcome

    def contexts(self):
        return self.context

    def parts(self):
        return ()

    def _own(self):
        return (self.name, self.outcome, self.context)


@dataclass(frozen=True, eq=False)
class SumOver(Estimand):
    child: Estimand
    over: frozenset

    def __post_init__(self):
        object.__setattr__(self, "over", frozenset(self.over))

    def _own(self):
        return (self.over,)

    @_cached
    def outcomes(self):
        return self.child.outcomes() - self.over

    @_cached
    def contexts(self):
        return self.child.contexts() - self.over


@dataclass(frozen=True, eq=False)
class Ratio(Estimand):
    num: Estimand
    den: Estimand

    @_cached
    def outcomes(self):
        return self.num.outcomes() - self.den.outcomes()

    @_cached
    def contexts(self):
        return (
            self.num.contexts() | self.den.contexts() | self.den.outcomes()
        ) - self.outcomes()

    def parts(self):
        return (self.num, self.den)


@dataclass(frozen=True, eq=False)
class Product(Estimand):
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    @_cached
    def outcomes(self):
        out = frozenset()
        for c in self.children:
            out |= c.outcomes()
        return out

    @_cached
    def contexts(self):
        ctx = frozenset()
        for c in self.children:
            ctx |= c.contexts()
        return ctx - self.outcomes()

    def parts(self):
        return self.children


@dataclass(frozen=True, eq=False)
class Restrict(Estimand):
    child: Estimand
    assignment: tuple  # sorted tuple of (variable, Value) pairs

    def __post_init__(self):
        asg = dict(self.assignment)
        object.__setattr__(
            self, "assignment", tuple(sorted(asg.items(), key=lambda kv: kv[0]))
        )

    def _own(self):
        return (self.assignment,)

    @property
    def asg(self) -> dict:
        return dict(self.assignment)

    @_cached
    def outcomes(self):
        return self.child.outcomes() - frozenset(self.asg)

    @_cached
    def contexts(self):
        return self.child.contexts() - frozenset(self.asg)


_UNSEEN = object()


def fold(e: Estimand, visit):
    """``visit(node, results)`` once per distinct node of ``e``, parts first,
    where ``results`` lists what ``visit`` gave for the node's ``parts()``;
    returns what it gave for ``e``.  Nodes are told apart by ``id`` (all
    stay alive, as ``e`` holds them), so a subtree that several parents
    share is visited once however often it is reached."""
    done = {}

    def go(x):
        out = done.get(id(x), _UNSEEN)
        if out is _UNSEEN:
            out = done[id(x)] = visit(x, [go(p) for p in x.parts()])
        return out

    try:
        return go(e)
    finally:
        del go  # ``go`` holds itself through its closure: free ``done`` now


# --------------------------------------------------------------------------
# constructors / operators


def marginalize(e: Estimand, b: Iterable[str]) -> Estimand:
    """Sum the outcome variables ``b`` out of ``e``."""
    b = frozenset(b)
    if not b:
        return e
    extra = b - e.outcomes()
    if extra:
        raise EstimandError(f"cannot marginalize non-outcome variables {sorted(extra)}")
    return SumOver(e, b)


def restrict(e: Estimand, asg: Mapping[str, Value]) -> Estimand:
    """Evaluate ``e`` at the given symbolic assignment."""
    asg = {k: v for k, v in asg.items() if k in e.free_vars()}
    if not asg:
        return e
    if isinstance(e, Restrict):
        merged = e.asg
        for k, v in asg.items():
            if k in merged and merged[k] != v:
                raise EstimandError(f"conflicting restriction on {k}")
            merged[k] = v
        return Restrict(e.child, tuple(merged.items()))
    return Restrict(e, tuple(asg.items()))


# --------------------------------------------------------------------------
# kernels under fixing (structured fixing for the identification algorithms)


def trim_conditioning(g: Graph, v: str, cond: Iterable[str], keep: Iterable[str] = ()) -> frozenset:
    """The Markov pillow of ``v`` within ``cond``, plus the members of ``keep``
    in ``cond``.

    The pillow is D and its parents, less ``v``, where D is the district of
    ``v`` in ``g`` restricted to ``cond | {v}``.  Precondition: ``cond`` lies
    inside a topological prefix of ``v`` in ``g`` and contains ``v``'s pillow
    over that prefix.  Then, by the ordered local Markov property of ADMGs,
    ``v`` is m-separated from the rest of ``cond`` given the pillow, and no
    pillow member can be dropped: the result is the set that removing
    m-separated variables one at a time, to a fixpoint, ends at.
    ``ChainKernel.from_joint`` passes the prefix itself; re-trimming such a
    pillow in a graph with only some of ``g``'s edges meets it too.
    """
    cond = frozenset(cond)
    inside = cond | {v}
    district = {v}
    stack = [v]
    while stack:
        for w in g.siblings(stack.pop()):
            if w in inside and w not in district:
                district.add(w)
                stack.append(w)
    pillow = (frozenset(district) | g.parents(district)) & cond
    return (pillow - {v}) | (frozenset(keep) & cond)


class ChainKernel:
    """A kernel under fixing: a map from each random vertex to its factor.

    The kernel is the product of its distinct factors, and the factors of a
    district's members multiply to that district's kernel q_D (the
    c-component factorization of Tian & Pearl, AAAI 2002, which every
    kernel reached by fixing has: Richardson, Evans, Robins & Shpitser,
    Ann. Statist. 2023).  A factor is its vertex's chain conditional
    ``p(v | pillow)``, a ``BaseKernel``, restricted once a value is pinned
    in it; or its district's *block*, one estimand that every member of the
    district maps to.  ``from_joint`` factorizes the base law of ``graph``
    into chain conditionals along the deterministic topological order,
    each conditioned on its Markov pillow.

    Fixing ``v`` rewrites only the factors of its district D
    (``_Walk.step``).  A *clean* step, or one with D = {v}, drops ``v``'s
    factor; the selection procedures fix the selector only once its
    district is {S}, so it is never summed out, which would assume
    positivity its support structurally violates.  Any other step sums
    ``v`` out of the product of D's factors, which is q_D / q_D(v | mb(v))
    as ``v`` has no other descendant in D, and splits the sum into the
    districts of D - {v} (``_split``).  ``fix_to`` stops at the reachable
    closure of its target, so one kernel built by ``from_joint`` serves
    every district of a query.  A kernel is never changed: ``fix`` and
    ``fix_to`` step in a working state (``_Walk``) and build one new kernel.
    """

    def __init__(self, graph: Graph, factors: dict):
        self.graph = graph
        self.factors = factors  # random vertex -> its chain conditional or its district's block
        # vertex -> whether fixing it first is clean; filled by the walks
        # that start here, before their first step
        self._clean = {}

    @classmethod
    def from_joint(cls, graph: Graph, base: str = "p") -> "ChainKernel":
        factors = {}
        pre: list = []
        for v in graph.topological_order():
            if v in graph.random:
                factors[v] = BaseKernel(base, frozenset((v,)), trim_conditioning(graph, v, pre))
            pre.append(v)
        return cls(graph, factors)

    # -- views ---------------------------------------------------------------

    @property
    def randoms(self) -> frozenset:
        return self.graph.random

    def expr(self) -> Estimand:
        return _product(self.factors, self.graph.topological_order())

    def with_graph(self, g: Graph) -> "ChainKernel":
        """Reinterpret the same kernel over ``g``, a graph with some of its
        edges (e.g. a context graph); a block whose district falls apart in
        ``g`` is split into ``g``'s districts."""
        factors = dict(self.factors)
        for b in {id(f): f for f in factors.values() if len(f.outcomes()) > 1}.values():
            factors.update(_split(b, g, g.topological_order()))
        return ChainKernel(g, factors)

    @functools.cached_property
    def _readers(self) -> dict:
        """Variable -> the vertices whose factor conditions on it."""
        out = {}
        for w, f in self.factors.items():
            for x in f.contexts():
                out.setdefault(x, set()).add(w)
        return out

    # -- fixing ----------------------------------------------------------------

    def fix(self, v: str) -> "ChainKernel":
        """The kernel with ``v`` fixed, over ``graph.fix(v)``: one step of
        the walk ``fix_to`` takes.  Raises ``NotFixableError`` when ``v`` is
        not fixable."""
        walk = _Walk(self)
        walk.step(v)
        return walk.kernel()

    def fix_to(self, target: Iterable[str], fixable=Graph.is_fixable) -> "ChainKernel":
        """Fix every vertex outside ``target`` that ``fixable(graph, v)``
        admits, clean steps first, then the smallest name, until none is
        left: ``FixState.fix_to``, the one fixing walk, run on the walk's
        ``FixState``, which answers as the graph of the kernel so far would;
        the rule must meet that walk's contract.  The result's ``randoms``
        are the reachable closure of ``target`` under the rule, and it is
        this kernel when there is nothing to fix.
        """
        walk = _Walk(self)
        walk.state.fix_to(target, fixable, walk.pick, walk.step)
        return walk.kernel()


def _product(factors: dict, order) -> Estimand:
    """The product of the distinct factors of the vertices in ``order``."""
    parts = tuple({id(f): f for f in map(factors.get, order) if f is not None}.values())
    return parts[0] if len(parts) == 1 else Product(parts)


def _split(b: Estimand, g: Graph | FixState, order) -> dict:
    """Tian's formula: ``b``, the kernel of a union of districts of ``g``,
    as one block per district, mapped from each of its members.

    A district's block is the product of its members' conditionals given
    their predecessors along ``order``, a topological order of ``g``, in
    the margin of ``b`` over the members' and the selector's ancestors (an
    ancestral set).  The selector is moved up to just after its own
    ancestors, so it is summed out of no other block.  A run of one
    district's members telescopes into one ratio of two margins.
    """
    members, districts, rest = b.outcomes(), [], set(b.outcomes())
    while rest:
        districts.append(g.district_of(min(rest)))
        rest -= districts[-1]
    if len(districts) == 1:
        return dict.fromkeys(members, b)
    sel = {g.selector} & members
    first = g.ancestors(sel) & members
    order = [v for v in order if v in first] + [v for v in order if v in members - first]
    out = {}
    for d in districts:
        an = g.ancestors(d | sel) & members
        margin, seq, runs = marginalize(b, members - an), [v for v in order if v in an], []
        for i, v in enumerate(seq):
            if v in d and (i == 0 or seq[i - 1] not in d):
                j = next((j for j in range(i, len(seq)) if seq[j] not in d), len(seq))
                run = marginalize(margin, seq[j:])
                runs.append(Ratio(run, marginalize(margin, seq[i:])) if i else run)
        out.update(dict.fromkeys(d, runs[0] if len(runs) == 1 else Product(tuple(runs))))
    return out


class _Walk:
    """The working state of one fixing walk from a ``ChainKernel``.

    It holds a ``FixState`` of the kernel's graph and copies of its factors
    and of the readers of each variable, and changes them in place at every
    ``step``; ``kernel`` builds the kernel the walk ends at.  The clean
    verdicts are the starting kernel's own until the first step, which
    keeps those it leaves valid in a dict of the walk's own.  ``de`` holds,
    for each verdict the walk has made or filtered, the random vertices it
    was made on.
    """

    __slots__ = ("start", "state", "factors", "readers", "clean", "de")

    def __init__(self, k: ChainKernel):
        self.start = k
        self.state = FixState(k.graph)
        self.factors = dict(k.factors)
        self.readers = dict(k._readers)  # each entry is replaced, never changed
        self.clean = k._clean
        self.de = {}

    def is_clean(self, v: str) -> bool:
        """Whether fixing ``v`` now is clean, remembered."""
        c = self.clean.get(v)
        if c is None:
            c = self.clean[v] = self._fix_is_clean(v)
        return c

    def pick(self, ready) -> str:
        """The next vertex to fix: the smallest clean one, else the smallest."""
        cands = sorted(ready)
        return next((w for w in cands if self.is_clean(w)), cands[0])

    def _fix_is_clean(self, v: str) -> bool:
        """Whether fixing ``v`` may drop its factor and keep every other one."""
        if len(self.factors[v].outcomes()) > 1:
            # v shares a block, which only a step that touches v rewrites
            self.de[v] = frozenset((v,))
            return False
        g = self.state
        de = self.de[v] = g.descendants(v) & g.random
        if de == {v}:
            if v == g.selector:
                # the selector stays a conditioning variable: marginalizing
                # it would silently assume positivity, which its support
                # structurally violates; the calling algorithm restricts the
                # remaining factors to one of its values
                return True
            # childless: marginalization, clean unless another factor
            # conditions on v
            return not (self.readers.get(v, set()) - {v})
        # drop rule: legal when no factor outside de(v) touches de(v); v's own
        # factor never conditions on de(v), as every conditioning set lies in
        # a topological prefix and fixing only removes edges
        return all(self.readers.get(x, set()) <= de for x in de)

    def step(self, v: str) -> None:
        """Fix ``v``: drop its factor if the step is clean or its district
        is {v}, else replace the factors of its district D by the sum over
        ``v`` of their product, split into the districts of D - {v}.

        A clean verdict for ``w`` reads ``de(w)``, the readers of its
        members and whether ``w`` shares a block.  The step rewrites the
        factors of ``touched`` ({v} or D), so it changes the readers of
        their contexts alone, and it removes only edges into ``v``.  So a
        verdict goes stale only if its ``de(w)`` meets ``touched`` or those
        contexts; for any other ``w``, ``v`` is outside ``de(w)``, so no
        path from ``w`` uses an edge into ``v`` and the set kept with the
        verdict stays valid.  One inherited from the starting kernel gets
        its set the first time a step filters it.
        """
        state, factors, readers = self.state, self.factors, self.readers
        state.check_fixable(v)
        if self.is_clean(v) or not state.siblings(v):
            touched, ctx = {v}, factors[v].contexts()
        else:
            touched = state.district_of(v)
            ctx = frozenset().union(*(factors[w].contexts() for w in touched))
        hit, de = ctx | touched, self.de
        if self.clean is self.start._clean:
            for w in self.clean.keys() - de.keys():
                de[w] = state.descendants(w) & state.random
        self.clean = {w: c for w, c in self.clean.items() if de[w].isdisjoint(hit)}
        for x in ctx:
            rest = readers[x] - touched
            if rest:
                readers[x] = rest
            else:
                del readers[x]
        state.fix(v)
        if len(touched) > 1:
            order = state.topological_order()
            blocks = _split(SumOver(_product({w: factors[w] for w in touched}, order), frozenset((v,))), state, order)
            factors.update(blocks)
            for b in {id(b): b for b in blocks.values()}.values():
                for x in b.contexts():
                    readers[x] = readers.get(x, set()) | b.outcomes()
        del factors[v]

    def kernel(self) -> ChainKernel:
        """The kernel the walk has reached: the starting one if no step."""
        if not self.state.done:
            return self.start
        return ChainKernel(self.state.graph(), self.factors)


# --------------------------------------------------------------------------
# normal form


def normal_form(e: Estimand) -> Estimand:
    """Normal form: margins folded into kernels, ratios cancelled, chain
    factors merged, unit sums dropped from products, restrictions pushed to
    the smallest scope, children sorted.  Identical normal forms imply equal
    estimands, but not conversely: ``Σ_{V0,V1} p(V0) p(V1) p(V4|V0,V1)``
    and ``Σ_{V1} p(V1) Σ_{V0} p(V0) p(V4|V0,V1)`` are equal by
    distributivity, yet each is its own normal form.

    Each round rewrites every distinct node once (a ``fold``), and a node no
    rule changes comes back as the same object, so the fixpoint is reached
    when a round returns its input.
    """
    for _ in range(50):
        e2 = fold(e, _rewrite_node)
        if e2 is e:
            return e
        e = e2
    return e


def _rewrite_node(e: Estimand, parts: list) -> Estimand:
    """One rewriting step of ``e`` whose parts have been rewritten to
    ``parts``; ``e`` itself when no rule fires and no part changed."""
    if isinstance(e, BaseKernel):
        return e
    if isinstance(e, SumOver):
        (child,) = parts
        over = e.over
        if not over:
            return child
        if isinstance(child, BaseKernel) and over < child.outcome:
            return BaseKernel(child.name, child.outcome - over, child.context)
        if isinstance(child, SumOver):
            return SumOver(child.child, child.over | over)
        if isinstance(child, Product):
            factors = list(child.children)
            # telescope: an unreferenced conditional sums out to one
            changed = True
            while changed:
                changed = False
                for i, c in enumerate(factors):
                    outs = _summable_outcomes(c)
                    if outs is None or not outs or not outs <= over:
                        continue
                    rest_free = frozenset()
                    for j, other in enumerate(factors):
                        if j != i:
                            rest_free |= other.free_vars()
                    if outs & rest_free:
                        continue
                    over = over - outs
                    del factors[i]
                    changed = True
                    break
            if not factors:
                over = e.over  # a bare unit; keep as written
            else:
                inside, outside = [], []
                for c in factors:
                    if c.free_vars() & over:
                        inside.append(c)
                    else:
                        outside.append(c)
                if not over:
                    return _mk_product(factors)
                if outside and inside:
                    return _mk_product(outside + [SumOver(_mk_product(inside), over)])
                if outside and not inside:
                    return _mk_product(outside)
                child = _mk_product(factors, child)
        if child is e.child and over == e.over:
            return e
        return SumOver(child, over)
    if isinstance(e, Ratio):
        num, den = parts
        if (
            isinstance(num, BaseKernel)
            and isinstance(den, BaseKernel)
            and num.name == den.name
            and den.outcome < num.outcome
            and den.context == num.context
        ):
            return BaseKernel(num.name, num.outcome - den.outcome, num.context | den.outcome)
        if isinstance(num, Product) and den in num.children:
            kept = list(num.children)
            kept.remove(den)
            return _mk_product(kept)
        if num == den:
            raise EstimandError("degenerate ratio e/e")
        if num is e.num and den is e.den:
            return e
        return Ratio(num, den)
    if isinstance(e, Product):
        flat = []
        for c in parts:
            if isinstance(c, Product):
                flat.extend(c.children)
            else:
                flat.append(c)
        # a conditional summed over all of its outcomes is one wherever it
        # is defined: Σ_O p(O | C) = 1
        kept = [c for c in flat if not (isinstance(c, SumOver) and _summable_outcomes(c.child) == c.over)]
        return _mk_product(_merge_chain_factors(kept or flat[:1]), e)
    if isinstance(e, Restrict):
        (child,) = parts
        free = child.free_vars()
        asg = {k: v for k, v in e.assignment if k in free}
        if not asg:
            return child
        if isinstance(child, Restrict):
            merged = child.asg
            merged.update(asg)
            return Restrict(child.child, tuple(merged.items()))
        if isinstance(child, Product):
            return _mk_product(
                [restrict(c, {k: v for k, v in asg.items() if k in c.free_vars()}) for c in child.children]
            )
        if isinstance(child, SumOver):
            if not (frozenset(asg) & child.over):
                return SumOver(restrict(child.child, asg), child.over)
        if child is e.child and len(asg) == len(e.assignment):
            return e
        return Restrict(child, tuple(asg.items()))
    raise EstimandError(f"unknown node {type(e).__name__}")


def _summable_outcomes(e: Estimand):
    """Outcome set of a conditional that sums to one over it, else None."""
    if isinstance(e, BaseKernel):
        return e.outcome
    if isinstance(e, Restrict) and isinstance(e.child, BaseKernel):
        if frozenset(dict(e.assignment)) & e.child.outcome:
            return None
        return e.child.outcome
    return None


def _mk_product(parts: list, like: Optional[Product] = None) -> Estimand:
    """The sorted product of ``parts``; ``like`` itself when it already is
    that product, child for child."""
    if not parts:
        raise EstimandError("empty product")
    if len(parts) == 1:
        return parts[0]
    parts = sorted(parts, key=sort_key)
    if (
        like is not None
        and len(parts) == len(like.children)
        and all(a is b for a, b in zip(parts, like.children))
    ):
        return like
    return Product(tuple(parts))


def _split_restricted(c: Estimand):
    if isinstance(c, Restrict) and isinstance(c.child, BaseKernel):
        return c.child, dict(c.assignment)
    if isinstance(c, BaseKernel):
        return c, {}
    return None, None


def _merge_chain_factors(parts: list) -> list:
    """p(X | C) * p(Y | C + X) -> p(X + Y | C) for unrestricted factors.

    Deliberately limited to unrestricted factors: merging restricted ones
    would collapse the factored g-formula displays the algorithms are meant
    to produce.
    """
    parts = list(parts)
    changed = True
    while changed:
        changed = False
        for i in range(len(parts)):
            for j in range(len(parts)):
                if i == j:
                    continue
                a, ra = _split_restricted(parts[i])
                b, rb = _split_restricted(parts[j])
                if a is None or b is None or a.name != b.name:
                    continue
                if ra or rb:
                    continue
                if b.context == a.context | a.outcome:
                    merged = BaseKernel(a.name, a.outcome | b.outcome, a.context)
                    lo, hi = sorted((i, j))
                    parts[lo] = merged
                    del parts[hi]
                    changed = True
                    break
            if changed:
                break
    return parts


@_cached
def sort_key(e: Estimand):
    if isinstance(e, BaseKernel):
        return ("base", e.name, sorted(e.outcome), sorted(e.context))
    if isinstance(e, SumOver):
        return ("sum", sorted(e.over), sort_key(e.child))
    if isinstance(e, Ratio):
        return ("ratio", sort_key(e.num), sort_key(e.den))
    if isinstance(e, Product):
        return ("product", [sort_key(c) for c in e.children])
    if isinstance(e, Restrict):
        return (
            "restrict",
            [(k, _value_key(v)) for k, v in e.assignment],
            sort_key(e.child),
        )
    raise EstimandError(f"unknown node {type(e).__name__}")


def _value_key(v):
    if isinstance(v, Sym):
        return ("sym", v.name)
    if isinstance(v, Var):
        return ("var", v.vertex)
    if isinstance(v, Lo):
        return ("lo",)
    if isinstance(v, SelectorValue):
        return ("sel", v.sort_key())
    return ("lit", repr(v))


def substitute_base(e: Estimand, name: str, replacement: Estimand) -> Estimand:
    """Replace every kernel of ``name`` by the matching derived form of
    ``replacement`` (a joint over at least the kernel's variables).  Each
    distinct node is substituted once, so shared subtrees stay shared."""
    full = replacement.outcomes()

    def visit(x: Estimand, parts: list) -> Estimand:
        if isinstance(x, BaseKernel):
            if x.name != name:
                return x
            missing = (x.outcome | x.context) - full
            if missing:
                raise EstimandError(f"replacement lacks variables {sorted(missing)}")
            num = marginalize(replacement, full - x.outcome - x.context)
            if not x.context:
                return num
            return Ratio(num, marginalize(replacement, full - x.context))
        if isinstance(x, Ratio):
            return Ratio(*parts)
        if isinstance(x, Product):
            return Product(tuple(parts))
        if isinstance(x, Restrict):
            return Restrict(parts[0], x.assignment)
        return SumOver(parts[0], x.over)

    return fold(e, visit)


# --------------------------------------------------------------------------
# rendering and JSON serialization


def render(e: Estimand, fmt: str = "text") -> str:
    if fmt in ("text", "latex"):
        return _render(e, fmt == "latex")
    if fmt == "json":
        return json.dumps(to_jsonable(e), sort_keys=True, separators=(",", ":"))
    raise EstimandError(f"unknown format {fmt!r}")


def _vname(v: str, latex: bool) -> str:
    if latex and len(v) > 1 and v[-1].isdigit():
        head = v.rstrip("0123456789")
        return f"{head}_{{{v[len(head):]}}}"
    return v


def _render_value(v, latex: bool) -> str:
    if isinstance(v, Sym):
        return _vname(v.name, latex)
    if isinstance(v, Var):
        return _vname(v.vertex.lower(), latex)
    if isinstance(v, Lo):
        return "*"
    if isinstance(v, SelectorValue):
        if not v.pattern:
            return "()"
        bits = []
        for child, tok in v.values:
            c = _vname(child, latex)
            if latex:
                bits.append(f"s^e_{{{c}}}{{=}}1, s^v_{{{c}}}{{=}}{_render_value(tok, latex)}")
            else:
                bits.append(f"e_{child}=1, v_{child}={_render_value(tok, False)}")
        return "(" + ", ".join(bits) + ")"
    return str(v)


def _render_kernel(e: BaseKernel, restr: dict, latex: bool) -> str:
    outs = ", ".join(_vname(v, latex) for v in sorted(e.outcome))
    ctx_parts = []
    for v in sorted(e.context):
        if v in restr:
            ctx_parts.append(f"{_vname(v, latex)}={_render_value(restr[v], latex)}")
        else:
            ctx_parts.append(_vname(v, latex))
    name = e.name
    bar = r" \mid " if latex else " | "
    if ctx_parts:
        return f"{name}({outs}{bar}{', '.join(ctx_parts)})"
    return f"{name}({outs})"


# A rendered node is (text, level): a parent that places it at precedence
# ``prec`` wraps it in parentheses when ``prec >= level``.  Sums are wrapped
# inside products, sums, ratios and restrictions; products inside ratios and
# restrictions; kernels, restrictions and ratios never.
_SUM_LEVEL, _PRODUCT_LEVEL, _ATOM = 1, 2, 3


def _render(e: Estimand, latex: bool) -> str:
    def at(part: tuple, prec: int) -> str:
        text, level = part
        if prec < level:
            return text
        return rf"\left({text}\right)" if latex else f"({text})"

    def visit(x: Estimand, parts: list) -> tuple:
        if isinstance(x, BaseKernel):
            return _render_kernel(x, {}, latex), _ATOM
        if isinstance(x, Restrict):
            if isinstance(x.child, BaseKernel):
                return _render_kernel(x.child, x.asg, latex), _ATOM
            inner = at(parts[0], 2)
            asg = ", ".join(f"{_vname(k, latex)}={_render_value(v, latex)}" for k, v in x.assignment)
            if latex:
                return rf"\left[{inner}\right]_{{{asg}}}", _ATOM
            return f"[{inner}]@{{{asg}}}", _ATOM
        if isinstance(x, SumOver):
            over = ", ".join(_vname(v, latex) for v in sorted(x.over))
            sigma = r"\sum" if latex else "Σ"
            return f"{sigma}_{{{over}}} {at(parts[0], 1)}", _SUM_LEVEL
        if isinstance(x, Product):
            return " ".join(at(p, 1) for p in parts), _PRODUCT_LEVEL
        if isinstance(x, Ratio):
            num, den = parts
            if latex:
                return rf"\frac{{{num[0]}}}{{{den[0]}}}", _ATOM
            return f"{at(num, 2)} / {at(den, 2)}", _ATOM
        raise EstimandError(f"unknown node {type(x).__name__}")

    return fold(e, visit)[0]


def _value_to_jsonable(v):
    if isinstance(v, Sym):
        return {"sym": v.name}
    if isinstance(v, Var):
        return {"var": v.vertex}
    if isinstance(v, Lo):
        return {"lo": True}
    if isinstance(v, SelectorValue):
        return {
            "selector": {
                "pattern": sorted(v.pattern),
                "values": {c: _value_to_jsonable(t) for c, t in v.values},
            }
        }
    raise EstimandError(f"unserializable value {v!r}")


def _value_from_jsonable(d):
    if "sym" in d:
        return Sym(d["sym"])
    if "var" in d:
        return Var(d["var"])
    if "lo" in d:
        return Lo()
    if "selector" in d:
        sel = d["selector"]
        return SelectorValue(
            frozenset(sel["pattern"]),
            tuple((c, _value_from_jsonable(t)) for c, t in sel["values"].items()),
        )
    raise EstimandError(f"bad value payload {d!r}")


def to_jsonable(e: Estimand):
    """The JSON form of ``e``; a subtree that several parents share becomes
    one object that each of them holds."""

    def visit(x: Estimand, parts: list) -> dict:
        if isinstance(x, BaseKernel):
            return {
                "kind": "base",
                "name": x.name,
                "outcome": sorted(x.outcome),
                "context": sorted(x.context),
            }
        if isinstance(x, SumOver):
            return {"kind": "sum", "over": sorted(x.over), "child": parts[0]}
        if isinstance(x, Ratio):
            return {"kind": "ratio", "num": parts[0], "den": parts[1]}
        if isinstance(x, Product):
            return {"kind": "product", "children": parts}
        if isinstance(x, Restrict):
            return {
                "kind": "restrict",
                "assignment": {k: _value_to_jsonable(v) for k, v in x.assignment},
                "child": parts[0],
            }
        raise EstimandError(f"unknown node {type(x).__name__}")

    return fold(e, visit)


def from_jsonable(d) -> Estimand:
    kind = d["kind"]
    if kind == "base":
        return BaseKernel(d["name"], frozenset(d["outcome"]), frozenset(d["context"]))
    if kind in ("sum", "marginal"):  # "marginal": written by earlier versions
        return SumOver(from_jsonable(d["child"]), frozenset(d["over"]))
    if kind == "ratio":
        return Ratio(from_jsonable(d["num"]), from_jsonable(d["den"]))
    if kind == "product":
        return Product(tuple(from_jsonable(c) for c in d["children"]))
    if kind == "restrict":
        return Restrict(
            from_jsonable(d["child"]),
            tuple((k, _value_from_jsonable(v)) for k, v in d["assignment"].items()),
        )
    raise EstimandError(f"unknown node kind {kind!r}")


def parse(text: str) -> Estimand:
    """Parse the JSON rendering back into an expression tree."""
    return from_jsonable(json.loads(text))

