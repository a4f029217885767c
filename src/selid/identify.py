"""Identification procedures for interventional queries, with and without a
systematic-selection variable.

Three entry points factorize the query over the districts of its ancestral
set and solve each district in turn (``_factorize``):

* ``identify``            single observational law, hidden-variable ADMG
* ``identify_fused``      several interventional datasets over one model
* ``identify_selected``   hidden-variable selection model (labelled multigraph);
  on a fully observed one every district is a single vertex, and this is
  the selected g-formula

A fourth does not call that backbone itself:

* ``sequential_baseline`` de-select first, then identify (strictly weaker):
  stage 1 fixes every district of the non-selector vertices, and stage 2
  reaches the backbone through ``identify``

Results are either an ``Identified`` estimand or a structured failure naming
the obstructing district.  Failure verdicts that carry a non-identification
guarantee can be certified by the oracle's witness generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .estimand import (
    BaseKernel,
    ChainKernel,
    Estimand,
    Lo,
    Product,
    SumOver,
    Var,
    normal_form,
    restrict,
    substitute_base,
    trim_conditioning,
)
from .graph import OBSERVATIONAL, Graph, GraphError, SelectorSupport, SelectorValue
from .projection import context_graph, fixed_name, swig


class QueryError(GraphError):
    pass


@dataclass(frozen=True)
class Query:
    """p(outcomes(treatments, selector=observational)); values are symbolic."""

    outcomes: frozenset
    treatments: tuple  # sorted ((vertex, Sym), ...)

    def __post_init__(self):
        object.__setattr__(self, "outcomes", frozenset(self.outcomes))
        treatments = tuple(sorted(self.treatments, key=lambda t: t[0]))
        treated = [v for v, _ in treatments]
        twice = sorted({v for v in treated if treated.count(v) > 1})
        if twice:
            raise QueryError(f"intervened on more than once: {', '.join(twice)}")
        object.__setattr__(self, "treatments", treatments)
        if self.outcomes & self.treated:
            raise QueryError("outcomes and treatments overlap")
        if not self.outcomes:
            raise QueryError("empty outcome set")

    @property
    def treated(self) -> frozenset:
        return frozenset(v for v, _ in self.treatments)

    @property
    def tokens(self) -> dict:
        return dict(self.treatments)


@dataclass(frozen=True)
class Identified:
    estimand: Estimand
    kind: str = "identified"


@dataclass(frozen=True)
class FailPositivity:
    district: frozenset
    kind: str = "positivity"


@dataclass(frozen=True)
class FailThicket:
    district: frozenset
    tried: tuple = ()
    kind: str = "thicket"


@dataclass(frozen=True)
class FailHedge:
    district: frozenset
    closure: frozenset
    kind: str = "hedge"


@dataclass(frozen=True)
class FailUnknown:
    district: frozenset
    tried: tuple = ()
    kind: str = "unknown"


@dataclass(frozen=True)
class DatasetSpec:
    """An available law p_name(V - intervened | do(intervened)) and its CADMG."""

    name: str
    intervened: frozenset
    graph: Graph

    def __post_init__(self):
        object.__setattr__(self, "intervened", frozenset(self.intervened))
        if self.intervened != self.graph.fixed:
            raise QueryError("dataset graph must fix exactly the intervened set")


def _validate_query(g: Graph, query: Query):
    if g.latent:
        raise QueryError(
            f"the graph has latent vertices {sorted(g.latent)}; latent-project it first"
        )
    missing = (query.outcomes | query.treated) - g.random
    if missing:
        raise QueryError(f"query references non-random vertices {sorted(missing)}")
    if g.selector is not None and g.selector in (query.outcomes | query.treated):
        raise QueryError("the selector is addressed only through its own slot")


def _ancestral_set(g: Graph, query: Query) -> frozenset:
    """Ancestors of the outcomes among random vertices of the context SWIG
    for the intervention (treatments, selector observational)."""
    targets: dict = dict(query.tokens)
    s = OBSERVATIONAL if g.selector is not None else None
    sw = swig(g, targets, s)
    return sw.ancestors(query.outcomes) & sw.random


def _restrict_treatments(e: Estimand, query: Query, allowed: frozenset) -> Estimand:
    asg = {
        v: tok
        for v, tok in query.treatments
        if v in allowed and v in e.free_vars()
    }
    return restrict(e, asg) if asg else e


def _assemble(kernels: list, ystar: frozenset, query: Query) -> Estimand:
    e: Estimand = kernels[0] if len(kernels) == 1 else Product(tuple(kernels))
    bound = ystar - query.outcomes
    if bound:
        e = SumOver(e, bound)
    return normal_form(e)


def _factorize(g: Graph, query: Query, ystar: frozenset, solve):
    """District factorization over the ancestral outcome set ``ystar``:
    ``solve(d)`` gives the kernel of district ``d`` as an estimand, or the
    failure that is the answer.  Each kernel is restricted to the treatments
    among its parents, and the kernels are assembled into the query's
    estimand."""
    kernels = []
    for dstar in g.induced_subgraph(ystar).districts():
        e = solve(dstar)
        if not isinstance(e, Estimand):
            return e
        kernels.append(_restrict_treatments(e, query, g.parents(dstar) - dstar))
    return Identified(_assemble(kernels, ystar, query))


# --------------------------------------------------------------------------
# plain interventional identification (single law, no selector semantics)


def identify(g: Graph, query: Query):
    """District factorization over the ancestral outcome set; every district
    must be reachable in the full graph, else the hedge is returned.  A
    graph with a selector raises ``QueryError``: ``identify_selected``."""
    _validate_query(g, query)
    if g.selector is not None:
        raise QueryError("the graph has a selector; use identify_selected")
    joint = ChainKernel.from_joint(g)

    def solve(dstar):
        kernel = joint.fix_to(dstar)
        if kernel.randoms != dstar:
            return FailHedge(dstar, kernel.randoms)
        return kernel.expr()

    return _factorize(g, query, _ancestral_set(g, query), solve)


# --------------------------------------------------------------------------
# fusion of several interventional datasets


def identify_fused(g: Graph, datasets: Iterable[DatasetSpec], query: Query):
    """Per district, the first dataset in which it is reachable supplies the
    kernel; with a single observational dataset this reduces to ``identify``,
    and it takes selector-free graphs as ``identify`` does."""
    _validate_query(g, query)
    if g.selector is not None:
        raise QueryError("the graph has a selector; use identify_selected")
    datasets = list(datasets)
    joints = {}  # dataset index -> its chain kernel, built on first use

    def solve(dstar):
        tried = []
        for i, ds in enumerate(datasets):
            tried.append(ds.name)
            if not dstar <= ds.graph.random:
                continue
            if i not in joints:
                joints[i] = ChainKernel.from_joint(ds.graph, ds.name)
            kernel = joints[i].fix_to(dstar)
            if kernel.randoms == dstar:
                return kernel.expr()
        return FailThicket(dstar, tuple(tried))

    return _factorize(g, query, _ancestral_set(g, query), solve)


# --------------------------------------------------------------------------
# selector machinery


def _selector_children(g: Graph) -> frozenset:
    """Children of the selector as named anywhere in the model: current graph
    children plus label references (children projected out or fixed away)."""
    if g.selector is None:
        return frozenset()
    out = set(g.children(g.selector))
    for e in g.edges:
        out |= e.label
    return frozenset(out)


def _candidate_patterns(
    support: SelectorSupport,
    laidback_for: frozenset,
    required: frozenset,
) -> list:
    """Support patterns laidback for the district, those covering the
    query-consistent required children first, then fewest interventions."""
    cands = support.laidback_patterns(laidback_for)
    return sorted(
        cands, key=lambda p: (not (required <= p), len(p), tuple(sorted(p)))
    )


def _selector_assign(
    pattern: frozenset, query: Query, scope: frozenset
) -> SelectorValue:
    """Concrete symbolic value for a pattern: query tokens where applicable,
    the child's own observed value when it is in scope (the data's diagonal),
    and an arbitrary fixed value otherwise (mechanism invariance)."""
    tokens = query.tokens
    vals = []
    for c in sorted(pattern):
        if c in tokens:
            vals.append((c, tokens[c]))
        elif c in scope:
            vals.append((c, Var(c)))
        else:
            vals.append((c, Lo()))
    return SelectorValue(pattern, tuple(vals))


def _pattern_value(pattern: frozenset) -> SelectorValue:
    return SelectorValue(pattern, tuple((c, "*") for c in sorted(pattern)))


def _kernel_scope(factors: dict) -> frozenset:
    """The free variables of the product of ``factors``, a kernel's factor
    map or part of one: the vertices and the contexts of their factors."""
    return frozenset(factors).union(*(f.contexts() for f in factors.values()))


def _selection_fixable(g: Graph, v: str) -> bool:
    """Fixability for the selection procedures.

    The selector's own factor can only be divided out where its law is
    positive; a remaining bidirected neighbour makes the restricted slices
    load-bearing, so the selector stays random until its district is {S},
    that is until it has no sibling, as no bidirected edge meets a fixed
    vertex.
    Other vertices use the ordinary criterion.  The answer depends only on
    the vertex's district and descendants, and a fixable vertex stays
    fixable, so the rule meets the contract of ``FixState.fix_to``, the
    walk ``ChainKernel.fix_to`` runs.
    """
    if not g.is_fixable(v):
        return False
    if v == g.selector:
        return not g.siblings(v)
    return True


def _contexts(g: Graph):
    """``pattern -> the context graph of g at that pattern``, each built on
    first use and kept for the caller's query."""
    built = {}

    def at(pattern: frozenset) -> Graph:
        ctx = built.get(pattern)
        if ctx is None:
            ctx = built[pattern] = context_graph(g, _pattern_value(pattern))
        return ctx

    return at


def _polish_kernel(kernel: ChainKernel, sel: str, sval: SelectorValue, contexts) -> Estimand:
    """``kernel.expr()`` with the factors that read the selector ``sel``
    pinned at ``sval`` in ``contexts(sval.pattern)``, the margin's context
    graph at that value (``_pin_selector``).

    The margin G[A] serves as well as G for any A that holds every factor's
    vertex and conditioning set: ``trim_conditioning`` reads only siblings
    within those sets and their parents, and G[A] has G's edges among A.
    """
    pinned = {}  # id of each distinct factor -> it as polished
    for f in {id(f): f for f in kernel.factors.values()}.values():
        pinned[id(f)] = _pin_selector(contexts(sval.pattern), f, sval) if sel in f.contexts() else f
    return ChainKernel(kernel.graph, {v: pinned[id(f)] for v, f in kernel.factors.items()}).expr()


def _pin_selector(ctx: Graph, f: Estimand, sval: SelectorValue) -> Estimand:
    """``f``, an unrestricted chain conditional or a block, restricted to
    the selector value ``sval``.  A chain conditional's conditioning set is
    re-trimmed first in ``ctx``, the context graph of that value (the
    conditional independencies that hold given the chosen value), keeping
    the selector."""
    if isinstance(f, BaseKernel):
        (v,) = f.outcome
        f = BaseKernel(f.name, f.outcome, trim_conditioning(ctx, v, f.context, keep={ctx.selector}))
    return restrict(f, {ctx.selector: sval})


# --------------------------------------------------------------------------
# hidden-variable selection models


def identify_selected(g: Graph, query: Query):
    """General identification under systematic selection and confounding,
    over the patterns of ``g.support``.

    Per district of the ancestral set: a selector value leaving the district
    natural must exist (else the positivity failure); districts equal to
    their reachable closure fix directly; a selector-free closure is searched
    across contexts like a dataset-fusion problem (else the thicket failure);
    a closure containing the selector goes to the confounded-selector
    routine.

    Every district is fixed from one chain-form joint over the ancestral
    margin A = An(Y* ∪ {S}) rather than over the whole graph, which is
    sound because A is ancestral and holds the selector:

    * the law of A factorizes by G[A];
    * in G every vertex outside A can be fixed first, sinks first, since
      its random descendants all lie outside A; that leaves G[A] with
      isolated fixed vertices, so under both fixing rules every district
      of Y* reaches the same closure in G and in G[A];
    * Kahn's lexicographic order of G[A] is G's order restricted to A, so
      each chain factor over A conditions on its vertex's Markov pillow
      among the earlier vertices of A, a subset of what it conditions on
      in G.

    ``identify``, ``identify_fused`` and ``sequential_baseline`` keep the
    whole joint (the baseline's first stage needs the law of every vertex
    but the selector).
    """
    if g.selector is None:
        return identify(g, query)
    support = g.support
    _validate_query(g, query)
    sel = g.selector
    children = _selector_children(g)
    ystar = _ancestral_set(g, query)
    margin = g.induced_subgraph(g.ancestors(ystar | {sel}))
    joint = ChainKernel.from_joint(margin)
    contexts = _contexts(margin)

    def solve(dstar):
        if not support.laidback_patterns(dstar):
            return FailPositivity(dstar)
        required = children & query.treated & g.ancestors(dstar)
        qtil = joint.fix_to(dstar, _selection_fixable)
        closure = qtil.randoms
        if sel in closure:
            return _confounded_selector(query, qtil, dstar, required, contexts)
        # a district that is its own closure takes the first candidate as it
        # is; otherwise the first context in which the district is reachable
        tried = []
        for pattern in _candidate_patterns(support, dstar, required):
            tried.append(tuple(sorted(pattern)))
            kernel = qtil
            if closure != dstar:
                ctx = context_graph(qtil.graph, _pattern_value(pattern))
                kernel = qtil.with_graph(ctx).fix_to(dstar)
                if kernel.randoms != dstar:
                    continue
            sval = _selector_assign(pattern, query, _kernel_scope(kernel.factors))
            return _polish_kernel(kernel, sel, sval, contexts)
        return FailThicket(dstar, tuple(tried))

    return _factorize(g, query, ystar, solve)


def _confounded_selector(query: Query, qtil: ChainKernel, dstar: frozenset, required: frozenset, contexts):
    """The kernel of ``dstar`` when its closure ``qtil`` holds the selector,
    from the first candidate pattern whose context SWIG cuts the district
    off the selector, or the failure.  Factors that read the selector are
    re-trimmed in ``contexts(pattern)``, the context graph at that pattern
    of a margin holding ``qtil``'s factors (see ``_polish_kernel``)."""
    gtil, closure = qtil.graph, qtil.randoms
    sel = gtil.selector
    ch_star = gtil.children(sel) & (closure - dstar)
    if not ch_star:
        return FailHedge(dstar, closure)
    de_s = gtil.descendants(sel)
    tried = []
    for pattern in _candidate_patterns(gtil.support, dstar, required):
        tried.append(tuple(sorted(pattern)))
        pv = _pattern_value(pattern)
        sw = swig(gtil, {sel: pv}, pv)
        dprime = sw.district_of(min(dstar))
        if not dstar <= dprime or sel in dprime:
            continue
        if any(len(qtil.factors[v].outcomes()) > 1 for v in dprime):
            continue  # dprime meets a block: no single-vertex factors to order
        left = dprime & de_s
        cond = (dprime - left) | (gtil.parents(dprime) - dprime)
        cond = (cond & sw.vertices) - {sel}
        if left and not sw.m_separated(left, {sel}, cond):
            continue

        sval = _selector_assign(pattern, query, _kernel_scope({v: qtil.factors[v] for v in dprime}))
        factors = {}
        for v in sorted(dprime):
            f = qtil.factors[v]
            if sel in f.contexts():
                f = _pin_selector(contexts(pattern), f, sval)
            factors[v] = restrict(f, {w: tok for w, tok in query.treatments if w in pattern and w != v})
        sub = sw.induced_subgraph(dprime | sw.fixed)
        kernel = ChainKernel(sub, factors).fix_to(dstar)
        if kernel.randoms != dstar:
            continue
        return kernel.expr()
    return FailUnknown(dstar, tuple(tried))


# --------------------------------------------------------------------------
# the two-stage baseline


def sequential_baseline(g: Graph, query: Query):
    """First identify the law of the observational context, then run plain
    identification on it.  Sound but strictly weaker than the one-shot
    procedure: failures here do not imply non-identification."""
    if g.selector is None:
        return identify(g, query)
    _validate_query(g, query)
    sel = g.selector
    if frozenset() not in g.support:
        return FailPositivity(frozenset({sel}))

    # stage 1: the observational-context law of everything but the selector
    rest = g.random - {sel}
    joint = ChainKernel.from_joint(g)
    contexts = _contexts(g)
    stage1 = []
    for dstar in g.induced_subgraph(rest).districts():
        kernel = joint.fix_to(dstar, _selection_fixable)
        if kernel.randoms != dstar:
            return FailHedge(dstar, kernel.randoms)
        e = _polish_kernel(kernel, sel, OBSERVATIONAL, contexts)
        stage1.append(e)
    law = normal_form(
        stage1[0] if len(stage1) == 1 else Product(tuple(stage1))
    )

    # stage 2: plain identification over the observational-context graph;
    # the fixed half of the selector is a constant and carries no information
    sw = swig(contexts(frozenset()), {sel: OBSERVATIONAL}, OBSERVATIONAL)
    g2 = sw.induced_subgraph(sw.vertices - {sel, fixed_name(sel)})
    result = identify(g2, query)
    if not isinstance(result, Identified):
        return result
    # the law's own kernels are named p too, but substitute_base never
    # walks into a replacement
    return Identified(normal_form(substitute_base(result.estimand, "p", law)))
