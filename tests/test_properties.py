"""Randomized and exhaustive property suites for the graph and kernel laws."""

import functools
import gc
import itertools
import random
import sys
import types
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

import selid.estimand as estimand_module
from selid.estimand import (
    BaseKernel,
    ChainKernel,
    Product,
    Ratio,
    Restrict,
    SumOver,
    Sym,
    Var,
    _Walk,
    _split,
    fold,
    normal_form,
    trim_conditioning,
)
from selid.graph import (
    OBSERVATIONAL,
    Edge,
    FixState,
    Graph,
    GraphError,
    NotFixableError,
    SelectorSupport,
    SelectorValue,
    bidirected,
    directed,
)
from selid.identify import (
    DatasetSpec,
    Query,
    _selection_fixable,
    identify,
    identify_fused,
    identify_selected,
    sequential_baseline,
)
from selid.lsg import parse_query
from selid.oracle import (
    eval_estimand,
    joint,
    random_cs_scm,
)
from selid.projection import canonical_hidden_dag, context_graph, derive_labels, latent_project, swig

from fixture_graphs import all_fixtures
from functional_models import random_functional_cs_scm
from reference import condition, defined_everywhere, equals, exact_ci, fix_kernel, project_constant
from test_bench_contract import MODULES, _load, _module
from test_random_models import random_selection_model

FX = all_fixtures()


# the support of a selector that these tests never read at a serious value
OBSERVATIONAL_SUPPORT = SelectorSupport(frozenset({frozenset()}))


def random_admg(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    names = [f"V{i}" for i in range(n)]
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        r = rng.random()
        if r < 0.30:
            edges.append(directed(names[i], names[j]))
        elif r < 0.45:
            edges.append(bidirected(names[i], names[j]))
        elif r < 0.50:
            edges.append(directed(names[i], names[j]))
            edges.append(bidirected(names[i], names[j]))
    return Graph(random=frozenset(names), edges=frozenset(edges))


class TestRandomizedGraphInvariants:
    def test_district_partition_and_closure_idempotence(self):
        for seed in range(500):
            g = random_admg(seed)
            seen = set()
            for d in g.districts():
                assert not (seen & d)
                seen |= d
            assert seen == set(g.random)
            rng = random.Random(seed * 31 + 1)
            members = sorted(g.random)
            r = frozenset(rng.sample(members, rng.randint(1, len(members))))
            cl = g.reachable_closure(r)
            assert r <= cl
            assert g.reachable_closure(cl) == cl
            assert g.reachable(cl) is not None

    def test_genealogy_duality_random_graphs(self):
        for seed in range(60):
            g = random_admg(seed)
            for v in sorted(g.random):
                for w in sorted(g.random):
                    assert (v in g.ancestors(w)) == (w in g.descendants(v))


def _greedy_fixing(g: Graph, r) -> tuple:
    """The reference for ``Graph.reachable`` and ``reachable_closure``: fix
    the smallest fixable vertex outside ``r``, testing every vertex again
    and building a new graph at each step, until none is left.  Returns the
    sequence and the random set it ends at."""
    r = frozenset(r)
    unknown = r - g.random
    if unknown:
        raise GraphError(f"not random vertices: {sorted(unknown)}")
    seq = []
    while True:
        v = next((v for v in sorted(g.random - r) if g.is_fixable(v)), None)
        if v is None:
            return tuple(seq), g.random
        g = g.fix(v)
        seq.append(v)


class TestReachabilityReference:
    def test_reachable_and_closure_match_the_greedy_reference(self):
        unreachable = fixed_some = 0
        for seed in range(300):
            g = random_admg(seed)
            rng = random.Random(seed * 13 + 2)
            members = sorted(g.random)
            for _ in range(4):
                r = frozenset(rng.sample(members, rng.randint(0, len(members))))
                seq, closure = _greedy_fixing(g, r)
                assert g.reachable_closure(r) == closure, (seed, sorted(r))
                assert g.reachable(r) == (seq if closure == r else None), (seed, sorted(r))
                unreachable += closure != r
                fixed_some += bool(seq) and closure == r
        # both outcomes, and sequences to order, are exercised
        assert unreachable > 100 and fixed_some > 100

    def test_unknown_target_raises_the_reference_error(self):
        g = FX["frontdoor"].graph
        fixed = g.fix("Y")
        for graph, r in ((g, {"Q"}), (g, {"M", "Q", "P"}), (fixed, {"Y"})):
            with pytest.raises(GraphError) as want:
                _greedy_fixing(graph, r)
            for method in (graph.reachable, graph.reachable_closure):
                with pytest.raises(GraphError) as got:
                    method(r)
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)


class TestChainKernelClosure:
    def test_fix_to_stops_at_reachable_closure(self):
        for seed in range(300):
            g = random_admg(seed)
            rng = random.Random(seed * 31 + 1)
            members = sorted(g.random)
            r = frozenset(rng.sample(members, rng.randint(1, len(members))))
            kernel = ChainKernel.from_joint(g).fix_to(r)
            assert kernel.randoms == g.reachable_closure(r), seed

    def test_selection_closure_contains_ordinary_closure(self):
        # the selection rule only withholds fixes of the selector
        for seed in range(300):
            rng = random.Random(seed * 17 + 5)
            g = random_admg(seed)
            members = sorted(g.random)
            g = replace(g, selector=rng.choice(members), support=OBSERVATIONAL_SUPPORT)
            r = frozenset(rng.sample(members, rng.randint(1, len(members))))
            joint = ChainKernel.from_joint(g)
            ordinary = joint.fix_to(r).randoms
            assert ordinary <= joint.fix_to(r, _selection_fixable).randoms, seed

    def test_kernel_scope_is_the_free_variables_of_the_expression(self, monkeypatch):
        # identify_selected reads a kernel's scope, or that of some of its
        # factors, off the factors without building the product; checked on
        # identify_sweep and on the 200-seed sweep, where a block is among
        # the factors at times
        S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
        workloads = _load("workloads")
        real = S.identify._kernel_scope
        blocks = []  # one entry per call: whether a block is among the factors

        def checked(factors):
            out = real(factors)
            parts = {id(f): f for f in factors.values()}.values()
            assert out == Product(tuple(parts)).free_vars(), sorted(out)
            blocks.append(not all(map(_is_conditional, parts)))
            return out

        monkeypatch.setattr(S.identify, "_kernel_scope", checked)
        for n in workloads.SWEEP_SIZES:
            for seed in range(workloads.SWEEP_SEEDS_PER_SIZE):
                dag, obs, query = workloads.sweep_case(S, n, seed)
                identify_selected(latent_project(derive_labels(dag), obs), query)
        for case in filter(None, map(random_selection_model, range(200))):
            _, proj, query = case
            identify_selected(proj, query)
        assert len(blocks) > 250 and any(blocks)


def _reference_graph_fix(g: Graph, v: str) -> Graph:
    """``g.fix(v)`` as a validated construction from the edges that keep no
    arrowhead at ``v``; its adjacency tables are built from those edges."""
    if v not in g.random:
        raise GraphError(f"{v!r} is not a random vertex")
    witness = g.district_of(v) & g.descendants(v)
    if witness != {v}:
        raise NotFixableError(v, witness)
    kept = frozenset(
        e for e in g.edges if not (e.head == v or (e.kind == "bidirected" and e.tail == v))
    )
    return replace(g, random=g.random - {v}, fixed=g.fixed | {v}, edges=kept, latent=g.latent - {v})


def _is_conditional(f) -> bool:
    """Whether the factor ``f`` is a chain conditional, restricted or not,
    rather than a block."""
    return isinstance(f.child if isinstance(f, Restrict) else f, BaseKernel)


class _StepKernel(ChainKernel):
    """The reference for ``ChainKernel.fix_to``: fixing one kernel at a time.

    Every step builds a new graph (``_reference_graph_fix``) and a new
    kernel, whose readers are computed afresh; the clean rule reads them
    where the walk scans the factors.  A clean step, or one whose
    district is {v}, drops v's factor; any other step sums v out of the
    product of its district's factors and splits the sum with ``_split``
    (checked on its own by ``TestBlocks``).  ``fix`` keeps each kernel it
    returns, keyed by the vertex, and hands its result the clean verdicts
    that the step leaves valid: those of the vertices that are not
    ancestors of a rewritten factor's vertices or contexts.  ``fix_to``
    takes its steps through that memo, re-testing only the old district
    and the ancestors of each fixed vertex.
    """

    def __init__(self, graph, factors):
        super().__init__(graph, factors)
        self._fixed = {}  # vertex -> the kernel fix(vertex) returned

    def with_graph(self, g: Graph) -> "_StepKernel":
        return _StepKernel(g, ChainKernel.with_graph(self, g).factors)

    def fix(self, v: str) -> "_StepKernel":
        k = self._fixed.get(v)
        if k is None:
            k = self._fixed[v] = self._fix(v)
        return k

    def _fix(self, v: str) -> "_StepKernel":
        g = self.graph
        g2 = _reference_graph_fix(g, v)
        factors = dict(self.factors)
        if self._is_clean(v) or g.district_of(v) == {v}:
            touched = {v}
        else:
            touched = g.district_of(v)
        old = {id(factors[w]): factors[w] for w in touched}.values()
        hit = set(touched).union(*(f.contexts() for f in old))
        if touched == {v}:
            del factors[v]
        else:
            order = [w for w in g2.topological_order() if w in touched]
            parts = list({id(factors[w]): factors[w] for w in order}.values())
            block = SumOver(parts[0] if len(parts) == 1 else Product(tuple(parts)), frozenset({v}))
            del factors[v]
            factors.update(_split(block, g2, order))
        k = _StepKernel(g2, factors)
        stale = g.ancestors(hit)
        k._clean = {w: c for w, c in self._clean.items() if w not in stale}
        return k

    @functools.cached_property
    def _readers(self) -> dict:
        """Variable -> the vertices whose factor conditions on it."""
        out = {}
        for w, f in self.factors.items():
            for x in f.contexts():
                out.setdefault(x, set()).add(w)
        return out

    def _is_clean(self, v: str) -> bool:
        c = self._clean.get(v)
        if c is None:
            c = self._clean[v] = self._fix_is_clean(v)
        return c

    def _fix_is_clean(self, v: str) -> bool:
        if len(self.factors[v].outcomes()) > 1:
            return False
        g = self.graph
        de = g.descendants(v) & self.randoms
        if de == {v}:
            if v == g.selector:
                return True
            return not (self._readers.get(v, set()) - {v})
        return all(self._readers.get(x, set()) <= de for x in de)

    def fix_to(self, target, fixable=Graph.is_fixable) -> "_StepKernel":
        target = frozenset(target)
        k = self
        ready = {v for v in k.randoms - target if fixable(k.graph, v)}
        while ready:
            cands = sorted(ready)
            v = next((w for w in cands if k._is_clean(w)), cands[0])
            g = k.graph
            touched = (g.district_of(v) | g.ancestors(v)) & g.random
            k = k.fix(v)
            ready.discard(v)
            ready |= {w for w in touched - target - ready - {v} if fixable(k.graph, w)}
        return k


def _fresh(g: Graph, factors) -> _StepKernel:
    """A reference kernel over ``g``, with no memo."""
    return _StepKernel(g, dict(factors))


def _reference_fix_to(g: Graph, target: frozenset, fixable) -> _StepKernel:
    """``ChainKernel.fix_to`` from ``g``'s joint without its incremental
    re-test or any memo: every vertex outside ``target`` is tested again at
    every step, each time on a fresh reference kernel."""
    k = _StepKernel.from_joint(g)
    while True:
        cands = [v for v in sorted(k.randoms - target) if fixable(k.graph, v)]
        if not cands:
            return k
        k = _fresh(k.graph, k.factors)
        k = k.fix(next((v for v in cands if k._fix_is_clean(v)), cands[0]))


class TestBlocks:
    def test_each_district_has_chain_conditionals_or_one_block(self, monkeypatch):
        # after every step of every walk, and in every kernel with_graph
        # makes: a factor's outcomes are the vertices that map to it, a
        # block's outcomes are one district, and a district's members all
        # have chain conditionals or all share one block
        counts = {"block": 0, "split in a step": 0, "split by with_graph": 0}
        real_step, real_split = _Walk.step, estimand_module._split

        def check(factors, g):
            for v, f in factors.items():
                members = {w for w, h in factors.items() if h is f}
                assert f.outcomes() == members, v
                if _is_conditional(f):
                    assert all(map(_is_conditional, (factors[w] for w in g.district_of(v)))), v
                else:
                    assert members == g.district_of(v), v
                    counts["block"] += 1

        def checked_step(walk, v):
            real_step(walk, v)
            check(walk.factors, walk.state)

        def counted_split(b, g, order):
            out = real_split(b, g, order)
            if len({id(f) for f in out.values()}) > 1:
                counts["split in a step" if isinstance(g, FixState) else "split by with_graph"] += 1
            return out

        monkeypatch.setattr(_Walk, "step", checked_step)
        monkeypatch.setattr(estimand_module, "_split", counted_split)
        for seed in range(300):
            g = _labelled_admg(seed)
            rng = random.Random(seed * 41 + 3)
            members = sorted(g.random)
            labels = sorted({c for e in g.edges for c in e.label})
            joint = ChainKernel.from_joint(g)
            for _ in range(3):
                r = frozenset(rng.sample(members, rng.randint(1, len(members))))
                for rule in (Graph.is_fixable, _selection_fixable):
                    qtil = joint.fix_to(r, rule)
                    pattern = frozenset(rng.sample(labels, rng.randint(0, len(labels))))
                    ctx = context_graph(qtil.graph, SelectorValue(pattern, tuple((c, 1) for c in sorted(pattern))))
                    kc = qtil.with_graph(ctx)
                    check(kc.factors, kc.graph)
                    kc.fix_to(r)
        for case in filter(None, map(random_selection_model, range(200))):
            _, proj, query = case
            identify_selected(proj, query)
            sequential_baseline(proj, query)
        assert counts["block"] > 2000 and counts["split in a step"] > 100 and counts["split by with_graph"] > 40

    def test_district_factors_equal_the_generic_reference(self, monkeypatch):
        # a drawn model's kernel of each district D of a walk's result,
        # computed two ways: the product of D's factors, and fix_kernel on
        # the whole joint along a fixing sequence that reaches D.  They
        # agree as functions: a context axis that one carries and the other
        # does not must be provably constant.  Each result is checked again
        # through with_graph, over the graph without some of its bidirected
        # edges, on a model drawn from that sparser graph: there a block
        # can fall apart, and with_graph splits it
        compared, splits = {"block": 0, "factor": 0}, []
        real_split = estimand_module._split

        def counted_split(b, g, order):
            out = real_split(b, g, order)
            splits.append(isinstance(g, FixState) if len({id(f) for f in out.values()}) > 1 else None)
            return out

        def check(k, g, tables, where):
            for d in k.graph.districts():
                parts = list({id(k.factors[v]): k.factors[v] for v in sorted(d)}.values())
                got = eval_estimand(parts[0] if len(parts) == 1 else Product(tuple(parts)), tables)
                e, h = BaseKernel("p", g.random), g
                for v in g.reachable(d):
                    e, h = fix_kernel(e, h, v), h.fix(v)
                want = eval_estimand(normal_form(e), tables)
                core = frozenset(got.axes) & frozenset(want.axes)
                got = project_constant(got, frozenset(got.axes) - core)
                want = project_constant(want, frozenset(want.axes) - core)
                assert equals(got, want), (where, sorted(d))
                compared["factor" if _is_conditional(parts[0]) else "block"] += 1

        monkeypatch.setattr(estimand_module, "_split", counted_split)
        for seed in range(400):
            g = random_admg(seed)
            if len(g.random) > 6:
                continue
            rng = random.Random(seed * 31 + 1)
            members = sorted(g.random)
            r = frozenset(rng.sample(members, rng.randint(1, len(members))))
            k = ChainKernel.from_joint(g).fix_to(r)
            check(k, g, {"p": joint(random_cs_scm(canonical_hidden_dag(g), seed=seed))}, (seed, sorted(r)))
            cut = {e for e in g.edges if e.kind == "bidirected" and rng.random() < 0.5}
            sparse = replace(g, edges=g.edges - cut)
            kc = k.with_graph(replace(k.graph, edges=k.graph.edges - cut))
            tables = {"p": joint(random_cs_scm(canonical_hidden_dag(sparse), seed=seed))}
            check(kc, sparse, tables, (seed, sorted(r), "sparse"))
        assert compared["factor"] > 1000 and compared["block"] > 100
        assert splits.count(True) > 10 and splits.count(False) > 5  # in a step, by with_graph


def _walk_graph(walk: _Walk) -> Graph:
    """The graph a walk has reached, fixed step by step by the reference."""
    g = walk.start.graph
    for v in walk.state.done:
        g = _reference_graph_fix(g, v)
    return g


def _assert_same_kernel(got: ChainKernel, want: ChainKernel, where) -> None:
    """Equal ``randoms``, factors and expression, and equal graphs: fields,
    adjacency tables and topological order."""
    assert got.randoms == want.randoms, where
    assert got.factors == want.factors, where
    assert got.expr() == want.expr(), where
    g, h = got.graph, want.graph
    for f in fields(Graph):
        assert getattr(g, f.name) == getattr(h, f.name), (where, f.name)
    assert g.vertices == h.vertices, where
    for w in sorted(h.vertices):
        assert g.parents(w) == h.parents(w), (where, w)
        assert g.children(w) == h.children(w), (where, w)
        assert g.siblings(w) == h.siblings(w), (where, w)
    assert g.topological_order() == h.topological_order(), where


def _validated(g: Graph) -> Graph:
    """The same graph built afresh through ``Graph.__post_init__``."""
    return Graph(
        random=g.random,
        fixed=g.fixed,
        edges=g.edges,
        latent=g.latent,
        selector=g.selector,
        support=g.support,
    )


def _assert_validated(g: Graph, where) -> None:
    """``g`` equals ``_validated(g)`` in its fields, adjacency and order."""
    fresh = _validated(g)
    assert g == fresh, where
    assert g.vertices == fresh.vertices, where
    for w in sorted(fresh.vertices):
        assert g.parents(w) == fresh.parents(w), (where, w)
        assert g.children(w) == fresh.children(w), (where, w)
        assert g.siblings(w) == fresh.siblings(w), (where, w)
    assert g.topological_order() == fresh.topological_order(), where


def _derivations(g: Graph, rng: random.Random) -> list:
    """(name, graph) for each derivation of ``g`` but label derivation and
    latent projection: subgraphs with and without the selector, the context
    graph at every support pattern, SWIGs without a selector value and at
    every pattern, the canonical hidden DAG, and fixes two deep."""
    members = sorted(g.random)
    keep = frozenset(rng.sample(members, rng.randint(1, len(members))))
    out = [("induced_subgraph", g.induced_subgraph(keep | g.fixed))]
    sel = g.selector
    if sel is not None:
        out += [
            ("induced_subgraph, selector kept", g.induced_subgraph(keep | {sel})),
            ("induced_subgraph, selector dropped", g.induced_subgraph(g.vertices - {sel})),
        ]
    others = [v for v in members if v != sel]
    a = {v: v.lower() for v in rng.sample(others, min(2, len(others)))}
    out.append(("swig", swig(g, a)))
    patterns = list(g.support) if g.support is not None else [frozenset()]
    for p in patterns:
        sval = SelectorValue(p, tuple((c, "*") for c in sorted(p)))
        if sel is None:
            out.append(("context_graph", context_graph(g, OBSERVATIONAL)))
            continue
        out.append((f"context_graph {sorted(p)}", context_graph(g, sval)))
        out.append((f"swig {sorted(p)}", swig(g, {**a, sel: sval}, sval)))
    out.append(("canonical_hidden_dag", canonical_hidden_dag(g)))
    for v in members:
        if g.is_fixable(v):
            h = g.fix(v)
            out.append((f"fix {v}", h))
            out += [(f"fix {v} {w}", h.fix(w)) for w in sorted(h.random) if h.is_fixable(w)]
    return out


def _reference_topological_order(g: Graph) -> tuple:
    """Lexicographic Kahn that re-sorts its ready list whenever it grows."""
    pending = {v: len(g.parents(v)) for v in g.vertices}
    ready = sorted((v for v, n in pending.items() if n == 0), reverse=True)
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        changed = False
        for w in g.children(v):
            pending[w] -= 1
            if pending[w] == 0:
                ready.append(w)
                changed = True
        if changed:
            ready.sort(reverse=True)
    return tuple(order)


def _shuffled_dag(seed: int) -> Graph:
    """A random ADMG over 2-10 shuffled names, with some sources fixed."""
    rng = random.Random(seed)
    names = rng.sample([f"{c}{i}" for c in "ABCDE" for i in range(3)], rng.randint(2, 10))
    directed_edges, bidirected_pairs = [], []
    for i, j in itertools.combinations(range(len(names)), 2):
        r = rng.random()
        if r < 0.35:
            directed_edges.append(directed(names[i], names[j]))
        elif r < 0.45:
            bidirected_pairs.append((names[i], names[j]))
    heads = {e.head for e in directed_edges}
    fixed = {v for v in names if v not in heads and rng.random() < 0.4}
    edges = directed_edges + [
        bidirected(a, b) for a, b in bidirected_pairs if a not in fixed and b not in fixed
    ]
    return Graph(
        random=frozenset(names) - fixed, fixed=frozenset(fixed), edges=frozenset(edges)
    )


class TestGraphLayerShortcuts:
    def test_incremental_fix_to_matches_full_retest(self):
        for seed in range(300):
            rng = random.Random(seed * 17 + 5)
            g = random_admg(seed)
            members = sorted(g.random)
            g = replace(g, selector=rng.choice(members), support=OBSERVATIONAL_SUPPORT)
            r = frozenset(rng.sample(members, rng.randint(1, len(members))))
            joint = ChainKernel.from_joint(g)
            for rule in (Graph.is_fixable, _selection_fixable):
                got = joint.fix_to(r, rule)
                want = _reference_fix_to(g, r, rule)
                assert got.randoms == want.randoms, seed
                assert got.expr() == want.expr(), seed
                assert got.graph == want.graph, seed

    def test_fix_equals_validated_construction(self):
        # two fixes deep, so the adjacency tables a fix hands on are checked
        for seed in range(300):
            g = random_admg(seed)
            for v in sorted(g.random):
                if not g.is_fixable(v):
                    continue
                h = g.fix(v)
                for fixed in [h] + [h.fix(w) for w in sorted(h.random) if h.is_fixable(w)]:
                    _assert_validated(fixed, (seed, v))

    def test_derivations_equal_validated_construction(self):
        # every derivation builds without Graph._validate; on random ADMGs,
        # with a selector and a support drawn over its children, and with
        # latent marks
        for seed in range(300):
            rng = random.Random(seed * 13 + 7)
            g = random_admg(seed)
            members = sorted(g.random)
            sel = rng.choice(members)
            children = sorted(g.children(sel))
            patterns = {frozenset()} | {
                frozenset(rng.sample(children, rng.randint(0, len(children)))) for _ in range(2)
            }
            selected = replace(g, selector=sel, support=SelectorSupport(frozenset(patterns)))
            latent = frozenset(rng.sample(members, rng.randint(0, len(members))))
            for h in (g, selected, replace(selected, latent=latent)):
                for name, d in _derivations(h, rng):
                    _assert_validated(d, (seed, name))

    def test_derivations_equal_validated_construction_on_selection_models(self):
        # the 200-seed sweep: label derivation and latent projection of each
        # hidden-variable DAG, then every derivation of both results
        for seed in range(200):
            case = random_selection_model(seed)
            if case is None:
                continue
            dag, proj, _ = case
            rng = random.Random(seed)
            labelled = derive_labels(dag)
            projected = latent_project(labelled, dag.random - dag.latent)
            assert projected == proj
            for name, d in [("derive_labels", labelled), ("latent_project", projected)]:
                _assert_validated(d, (seed, name))
            for h in (labelled, projected):
                for name, d in _derivations(h, rng):
                    _assert_validated(d, (seed, name))

    def test_topological_order_is_sorted_kahn(self):
        # ties and fixed sources, on names whose sort order is not the order
        # the edges were drawn in
        for seed in range(300):
            g = _shuffled_dag(seed)
            assert g.topological_order() == _reference_topological_order(g), seed
            for v in sorted(g.random):
                if g.is_fixable(v):
                    h = g.fix(v)
                    assert h.topological_order() == _reference_topological_order(h), (seed, v)

    def test_cycle_still_rejected(self):
        for edges in (
            {directed("A", "B"), directed("B", "A")},
            {directed("A", "B"), directed("B", "C"), directed("C", "A"), directed("D", "A")},
            {directed("A", "B"), directed("C", "D"), directed("D", "E"), directed("E", "C")},
        ):
            names = frozenset(n for e in edges for n in (e.tail, e.head))
            with pytest.raises(GraphError, match="directed cycle"):
                Graph(random=names, edges=frozenset(edges))

    def test_no_factor_conditions_on_its_descendants(self, monkeypatch):
        # the drop rule of _Walk._fix_is_clean relies on this for chain
        # conditionals: every conditioning set lies in a topological prefix,
        # and fixes, context graphs and SWIG subgraphs only remove edges;
        # checked after every step of every walk.  A block is dropped only
        # with its district {v}, whatever it reads
        seen = []  # one entry per factor checked
        real_step = _Walk.step

        def checked(walk, v):
            real_step(walk, v)
            state = walk.state
            for w, f in walk.factors.items():
                if _is_conditional(f):
                    assert not f.contexts() & (state.descendants(w) - {w}), (v, w)
                    seen.append(w)

        monkeypatch.setattr(_Walk, "step", checked)
        for seed in range(300):
            rng = random.Random(seed * 17 + 5)
            g = random_admg(seed)
            members = sorted(g.random)
            g = replace(g, selector=rng.choice(members), support=OBSERVATIONAL_SUPPORT)
            r = frozenset(rng.sample(members, rng.randint(1, len(members))))
            joint = ChainKernel.from_joint(g)
            for rule in (Graph.is_fixable, _selection_fixable):
                joint.fix_to(r, rule)
        for case in filter(None, map(random_selection_model, range(200))):
            _, proj, query = case
            identify_selected(proj, query)
            sequential_baseline(proj, query)
        assert len(seen) > 1000

    def test_fix_to_matches_the_step_by_step_reference(self):
        # the fixing walk against the reference that builds a graph and a
        # kernel at every step: on labelled ADMGs, three targets each, under
        # both rules, and each result reinterpreted over a context graph and
        # fixed again
        compared = blocks = 0
        for seed in range(300):
            g = _labelled_admg(seed)
            rng = random.Random(seed * 41 + 3)
            members = sorted(g.random)
            labels = sorted({c for e in g.edges for c in e.label})
            joint, reference = ChainKernel.from_joint(g), _StepKernel.from_joint(g)
            for _ in range(3):
                r = frozenset(rng.sample(members, rng.randint(1, len(members))))
                for rule in (Graph.is_fixable, _selection_fixable):
                    got, want = joint.fix_to(r, rule), reference.fix_to(r, rule)
                    _assert_same_kernel(got, want, (seed, sorted(r)))
                    pattern = frozenset(rng.sample(labels, rng.randint(0, len(labels))))
                    sval = SelectorValue(pattern, tuple((c, 1) for c in sorted(pattern)))
                    ctx = context_graph(got.graph, sval)
                    _assert_same_kernel(
                        got.with_graph(ctx).fix_to(r),
                        want.with_graph(ctx).fix_to(r),
                        (seed, sorted(r), sorted(pattern)),
                    )
                    compared += 2
                    blocks += not all(map(_is_conditional, got.factors.values()))
        assert compared == 3600 and blocks > 300

    def test_a_blocked_vertex_is_freed_by_a_later_fix(self):
        # X sees Z as both a child and a sibling, so it is blocked until Z
        # is fixed; the walk re-tests only blocked vertices, so this is the
        # path that admits a vertex after the first scan
        g = Graph(
            random=frozenset("XYZ"),
            edges=frozenset([directed("X", "Z"), bidirected("X", "Z")]),
        )
        for rule in (Graph.is_fixable, _selection_fixable):
            assert not rule(g, "X") and rule(g, "Z")
            state = FixState(g)
            state.fix_to({"Y"}, rule)
            assert state.done == ["Z", "X"] and state.random == {"Y"}
            assert ChainKernel.from_joint(g).fix_to({"Y"}, rule).randoms == {"Y"}

    def test_freed_vertices_match_the_full_retest(self):
        # the walk re-tests only the blocked vertices of each step's old
        # district and ancestors; the reference re-tests every vertex there.
        # Many walks admit a vertex that the first scan found blocked
        freeing_walks = freed = 0
        for seed in range(300):
            g = _labelled_admg(seed)
            rng = random.Random(seed * 41 + 3)
            members = sorted(g.random)
            joint, reference = ChainKernel.from_joint(g), _StepKernel.from_joint(g)
            for _ in range(3):
                r = frozenset(rng.sample(members, rng.randint(1, len(members))))
                for rule in (Graph.is_fixable, _selection_fixable):
                    walk = _Walk(joint)
                    walk.state.fix_to(r, rule, walk.pick, walk.step)
                    _assert_same_kernel(walk.kernel(), reference.fix_to(r, rule), (seed, sorted(r)))
                    first = {v for v in g.random - r if rule(g, v)}
                    late = set(walk.state.done) - first
                    freeing_walks += bool(late)
                    freed += len(late)
        assert (freeing_walks, freed) == (333, 554)

    def test_fix_still_checks_its_vertex(self):
        # for the graph and for one step of the chain kernel's walk; the
        # fixability test skips its closures when v has no sibling or no
        # child, and answers as the definition dis(v) & de(v) == {v}
        for seed in range(300):
            g = random_admg(seed)
            k = ChainKernel.from_joint(g)
            for v in sorted(g.random):
                assert g.is_fixable(v) == (g.district_of(v) & g.descendants(v) == {v}), (seed, v)
                if g.is_fixable(v):
                    h = g.fix(v)
                    with pytest.raises(GraphError):
                        h.fix(v)  # fixed, no longer random
                    with pytest.raises(GraphError):
                        k.fix(v).fix(v)
                else:
                    with pytest.raises(NotFixableError):
                        g.fix(v)
                    with pytest.raises(NotFixableError):
                        k.fix(v)
            with pytest.raises(GraphError):
                g.fix("nowhere")
            with pytest.raises(GraphError):
                k.fix("nowhere")


class TestFixMemo:
    def test_carried_verdicts_and_readers_equal_fresh_ones(self, monkeypatch):
        # after every step of every walk the fix_to calls of a query take,
        # under both rules and in context kernels made by with_graph, the
        # working state answers as the graph fixed step by step, and it
        # carries no clean verdict into the next step
        steps = block_steps = 0
        real_step = _Walk.step

        def checked(walk, v):
            nonlocal steps, block_steps
            before = dict(walk.factors)
            real_step(walk, v)
            g = _walk_graph(walk)
            state = walk.state
            assert state.random == g.random, v
            for w in sorted(g.vertices):
                assert state.parents(w) == g.parents(w), (v, w)
                assert state.children(w) == g.children(w), (v, w)
                assert state.siblings(w) == g.siblings(w), (v, w)
            assert walk.clean == {}, v
            steps += 1
            block_steps += any(f is not before[w] for w, f in walk.factors.items())

        monkeypatch.setattr(_Walk, "step", checked)
        for seed in range(300):
            g = _labelled_admg(seed)
            rng = random.Random(seed * 41 + 3)
            members = sorted(g.random)
            labels = sorted({c for e in g.edges for c in e.label})
            joint = ChainKernel.from_joint(g)
            for _ in range(3):
                r = frozenset(rng.sample(members, rng.randint(1, len(members))))
                for rule in (Graph.is_fixable, _selection_fixable):
                    qtil = joint.fix_to(r, rule)
                    pattern = frozenset(rng.sample(labels, rng.randint(0, len(labels))))
                    ctx = context_graph(qtil.graph, SelectorValue(pattern, tuple((c, 1) for c in sorted(pattern))))
                    kc = qtil.with_graph(ctx)
                    assert not kc._clean, seed
                    kc.fix_to(r)
        # restricted factors: the selection procedures pin values in them
        for case in filter(None, map(random_selection_model, range(200))):
            _, proj, query = case
            identify_selected(proj, query)
            sequential_baseline(proj, query)
        assert steps > 3000 and block_steps > 500

    def test_ancestors_of_the_fixed_vertex_go_stale(self):
        # V's factor reads nothing, as its parent P is restricted, so only
        # V itself puts W among the stale verdicts.  The fix cuts R out of
        # de(W) while R still reads X in de(W): W is clean before, not after
        g = Graph(
            random=frozenset("WPVXR"),
            edges=frozenset([
                directed("W", "P"), directed("P", "V"), directed("V", "R"),
                directed("W", "X"), bidirected("X", "R"),
            ]),
        )
        factors = {
            "W": BaseKernel("p", "W"),
            "P": BaseKernel("p", "P", "W"),
            "V": Restrict(BaseKernel("p", "V", "P"), (("P", Sym("p")),)),
            "X": BaseKernel("p", "X", "W"),
            "R": BaseKernel("p", "R", "XVW"),
        }
        walk = _Walk(ChainKernel(g, factors))
        assert walk.is_clean("W") and walk.is_clean("V")
        walk.step("V")
        assert walk.factors == {w: f for w, f in factors.items() if w != "V"}
        assert not walk.is_clean("W")
        assert not _Walk(walk.kernel()).is_clean("W")

    def test_an_inherited_verdict_goes_stale(self):
        # the kernel of test_ancestors_of_the_fixed_vertex_go_stale, with
        # W's verdict made by an earlier walk and shared through the
        # kernel: the walk that fixes V never computed de(W) itself
        g = Graph(
            random=frozenset("WPVXR"),
            edges=frozenset([
                directed("W", "P"), directed("P", "V"), directed("V", "R"),
                directed("W", "X"), bidirected("X", "R"),
            ]),
        )
        factors = {
            "W": BaseKernel("p", "W"),
            "P": BaseKernel("p", "P", "W"),
            "V": Restrict(BaseKernel("p", "V", "P"), (("P", Sym("p")),)),
            "X": BaseKernel("p", "X", "W"),
            "R": BaseKernel("p", "R", "XVW"),
        }
        k = ChainKernel(g, factors)
        assert _Walk(k).is_clean("W") and k._clean == {"W": True}
        walk = _Walk(k)
        walk.step("V")
        assert walk.factors == {w: f for w, f in factors.items() if w != "V"}
        assert not walk.is_clean("W")

    def test_kernels_of_a_fix_to_die_with_the_joint(self, monkeypatch):
        # a walk builds no kernel but its result, and nothing it builds
        # outlives the joint and the result: without the cycle collector,
        # dropping both frees every kernel and the result's graph
        made = []
        real_init = ChainKernel.__init__

        def recorded(k, *args):
            real_init(k, *args)
            made.append(weakref.ref(k))

        monkeypatch.setattr(ChainKernel, "__init__", recorded)
        gc.disable()
        try:
            stepped = 0
            for seed in range(50):
                g = random_admg(seed)
                joint = ChainKernel.from_joint(g)
                made.clear()
                result = joint.fix_to(frozenset([min(g.random)]))
                live = [k for k in (ref() for ref in made) if k is not None]
                assert live == ([] if result is joint else [result]), seed
                stepped += result is not joint
                refs = [weakref.ref(joint), weakref.ref(result.graph)] + made
                del joint, result, live
                assert all(ref() is None for ref in refs), seed
            assert stepped > 25
        finally:
            gc.enable()


class TestFusedReducesToPlain:
    def test_single_observational_dataset_equals_identify(self):
        # with one observational dataset, identify_fused is identify, up to
        # the name of the failure
        identified = failed = 0
        for seed in range(300):
            g = random_admg(seed)
            rng = random.Random(seed * 23 + 9)
            members = sorted(g.random)
            y = rng.choice(members)
            treated = rng.sample([v for v in members if v != y], rng.randint(0, min(2, len(members) - 1)))
            query = Query(frozenset({y}), tuple((v, Sym(v.lower())) for v in treated))
            plain = identify(g, query)
            fused = identify_fused(g, [DatasetSpec("p", frozenset(), g)], query)
            if plain.kind == "identified":
                assert fused.kind == "identified" and fused.estimand == plain.estimand, seed
                identified += 1
            else:
                assert (plain.kind, fused.kind) == ("hedge", "thicket"), seed
                assert fused.district == plain.district, seed
                failed += 1
        assert identified > 200 and failed > 10


def _greedy_trim(g: Graph, v: str, cond, keep=()) -> frozenset:
    """The reference trim: drop the variables of ``cond`` m-separated from
    ``v`` given the rest, one at a time in sorted order, to a fixpoint;
    ``keep`` members are never dropped."""
    cond = set(cond)
    keep = frozenset(keep)
    changed = True
    while changed:
        changed = False
        for w in sorted(cond - keep):
            if w not in g.vertices or g.m_separated({v}, {w}, (cond - {w}) & g.vertices):
                cond.discard(w)
                changed = True
    return frozenset(cond)


def _labelled_admg(seed: int) -> Graph:
    """``random_admg`` with a selector and some edges labelled by a vertex
    name, so that context graphs drop edges; a label drawn as the selector
    is dropped, and the support holds every set of label names."""
    g = random_admg(seed)
    rng = random.Random(seed * 13 + 7)
    names = sorted(g.random)
    edges = [
        replace(e, label=frozenset({rng.choice(names)})) if rng.random() < 0.4 else e
        for e in sorted(g.edges, key=lambda e: e.sort_key())
    ]
    sel = rng.choice(names)
    edges = [replace(e, label=e.label - {sel}) for e in edges]
    labels = sorted({c for e in edges for c in e.label})
    patterns = {frozenset(p) for k in range(len(labels) + 1) for p in itertools.combinations(labels, k)}
    return replace(g, selector=sel, support=SelectorSupport(frozenset(patterns)), edges=frozenset(edges))


class TestMarkovPillowTrim:
    def test_from_joint_conditions_on_the_greedy_trim(self):
        # before fixes, after each single fix, and at a fixed reachable closure
        compared = 0
        for seed in range(300):
            g = random_admg(seed)
            rng = random.Random(seed * 31 + 1)
            r = frozenset(rng.sample(sorted(g.random), rng.randint(1, len(g.random))))
            graphs = [g, ChainKernel.from_joint(g).fix_to(r).graph]
            graphs += [g.fix(v) for v in sorted(g.random) if g.is_fixable(v)]
            for h in graphs:
                factors = ChainKernel.from_joint(h).factors
                pre = []
                for v in h.topological_order():
                    if v in h.random:
                        assert factors[v].context == _greedy_trim(h, v, pre), (seed, v)
                        compared += 1
                    pre.append(v)
        assert compared > 7000

    def test_context_retrim_keeping_the_selector(self):
        kept_outside_pillow = 0
        for seed in range(300):
            g = _labelled_admg(seed)
            sel = g.selector
            factors = ChainKernel.from_joint(g).factors
            names = sorted({c for e in g.edges for c in e.label})
            for k in range(len(names) + 1):
                for pattern in itertools.combinations(names, k):
                    ctx = context_graph(g, SelectorValue(frozenset(pattern), tuple((c, 1) for c in pattern)))
                    for v in sorted(factors):
                        cond = factors[v].context
                        if sel not in cond:
                            continue
                        got = trim_conditioning(ctx, v, cond, keep={sel})
                        assert got == _greedy_trim(ctx, v, cond, keep={sel}), (seed, pattern, v)
                        kept_outside_pillow += sel not in trim_conditioning(ctx, v, cond)
        assert kept_outside_pillow > 0

    def test_every_call_of_the_selection_procedures(self, monkeypatch):
        calls = []

        def checked(g, v, cond, keep=()):
            got = trim_conditioning(g, v, cond, keep)
            assert got == _greedy_trim(g, v, cond, keep), (v, sorted(cond), sorted(keep))
            calls.append(bool(keep))
            return got

        # the package exports a function named identify, so go by sys.modules
        monkeypatch.setattr(sys.modules["selid.identify"], "trim_conditioning", checked)
        cases = [random_selection_model(seed) for seed in range(200)]
        cases = [(proj, query) for _, proj, query in filter(None, cases)]
        for fx in FX.values():
            if fx.graph.selector is not None:
                cases.append((fx.graph, parse_query(fx.query, fx.graph.selector)[0]))
        for proj, query in cases:
            identify_selected(proj, query)
            sequential_baseline(proj, query)
        assert len(calls) > 200 and all(calls)


def _valid_sequences(g: Graph, target: frozenset, cap: int = 24):
    """All valid fixing sequences for everything outside target, capped."""
    out = []

    def grow(graph, remaining, prefix):
        if len(out) >= cap:
            return
        if not remaining:
            out.append(tuple(prefix))
            return
        for v in sorted(remaining):
            if graph.is_fixable(v):
                grow(graph.fix(v), remaining - {v}, prefix + [v])
                if len(out) >= cap:
                    return

    grow(g, g.random - target, [])
    return out


class TestFixingInvariance:
    @pytest.mark.parametrize("name", ["chain", "frontdoor", "backdoor", "compliance_pair"])
    def test_graph_and_kernel_order_invariance(self, name):
        g = FX[name].graph
        dag = FX[name].dag or canonical_hidden_dag(g)
        m = random_cs_scm(dag, seed=101)
        tables = {"p": joint(m)}
        for dstar in g.induced_subgraph(
            g.ancestors(frozenset({"Y"})) & g.random
        ).districts():
            seqs = _valid_sequences(g, dstar)
            if len(seqs) < 2:
                continue
            graphs = set()
            evaluated = []
            for seq in seqs:
                gg, e = g, BaseKernel("p", g.random)
                for v in seq:
                    e = fix_kernel(e, gg, v)
                    gg = gg.fix(v)
                graphs.add(gg)
                evaluated.append(eval_estimand(normal_form(e), tables))
            assert len(graphs) == 1
            # kernels agree as functions: context axes one order happens to
            # carry and another does not must be provably constant
            core = frozenset.intersection(*(frozenset(t.axes) for t in evaluated))
            projected = [
                project_constant(t, frozenset(t.axes) - core) for t in evaluated
            ]
            first = projected[0]
            for other in projected[1:]:
                assert equals(first, other)


class TestMSeparationSoundness:
    @pytest.mark.parametrize(
        "name", ["chain", "backdoor", "frontdoor", "double_bow"]
    )
    def test_msep_implies_exact_ci(self, name):
        fx = FX[name]
        g = fx.graph
        dag = fx.dag or canonical_hidden_dag(g)
        obs = sorted(g.random)
        statements = []
        for x, y in itertools.combinations(obs, 2):
            rest = [v for v in obs if v not in (x, y)]
            for r in range(len(rest) + 1):
                for z in itertools.combinations(rest, r):
                    if g.m_separated({x}, {y}, set(z)):
                        statements.append((x, y, frozenset(z)))
        trials = 100
        for t in range(trials):
            m = random_cs_scm(dag, seed=1000 + t)
            table = joint(m)
            for x, y, z in statements:
                assert exact_ci(table, {x}, {y}, z), (name, t, x, y, z)


class TestContextSwigIndependencies:
    @pytest.mark.parametrize(
        "name", ["double_bow", "split_thicket", "confounded_selector_hedge"]
    )
    def test_context_swig_dsep_implies_ci(self, name):
        fx = FX[name]
        g, dag = fx.graph, fx.dag
        sel = g.selector
        children = sorted(g.children(sel))
        treated = sorted(g.random & {"A", "A1"})
        for t in range(12):
            m = random_functional_cs_scm(dag, seed=500 + t)
            for pattern in sorted(g.support, key=lambda p: (len(p), sorted(p))):
                sval = SelectorValue(pattern, tuple((c, 1) for c in sorted(pattern)))
                a = {v: 1 for v in treated}
                sw = swig(g, {**a, sel: sval}, sval)
                law = m.counterfactual_law(a, sval)
                verts = sorted(sw.random)
                for x, y in itertools.combinations(verts, 2):
                    rest = [v for v in verts if v not in (x, y)]
                    for r in range(len(rest) + 1):
                        for z in itertools.combinations(rest, r):
                            if sw.m_separated({x}, {y}, set(z)):
                                assert exact_ci(law, {x}, {y}, frozenset(z)), (
                                    name,
                                    t,
                                    sorted(pattern),
                                    x,
                                    y,
                                    z,
                                )

    def test_functional_law_matches_truncated_factorization(self):
        fx = FX["double_bow"]
        for t in range(10):
            m = random_functional_cs_scm(fx.dag, seed=900 + t)
            law = m.counterfactual_law({"A": 1}, SelectorValue()).sum_out({"A", "S"})
            # independent truncated-factorization computation over the same model
            from fractions import Fraction

            cpts = {}
            for v in fx.dag.topological_order():
                parents = tuple(sorted(fx.dag.parents(v)))
                rows = {}
                for key, val in m.mech[v].items():
                    pa_vals, nz = key
                    rows.setdefault(pa_vals, {}).setdefault(val, 0)
                for (pa_vals, nz), val in m.mech[v].items():
                    weight = Fraction(m.noise[v][nz], sum(m.noise[v]))
                    rows[pa_vals][val] = rows[pa_vals].get(val, 0) + weight
                cpts[v] = (parents, rows)

            total = {0: Fraction(0), 1: Fraction(0)}
            import itertools as it

            doms = {v: m.domain(v) for v in fx.dag.vertices}
            doms["S"] = (((), ()),)
            doms["A"] = (1,)
            names = sorted(fx.dag.vertices)
            for vals in it.product(*(doms[v] for v in names)):
                asg = dict(zip(names, vals))
                p = Fraction(1)
                for v in names:
                    if v in ("A", "S"):
                        continue
                    parents, rows = cpts[v]
                    p *= rows[tuple(asg[x] for x in parents)].get(asg[v], Fraction(0))
                total[asg["Y"]] += p
            for y in (0, 1):
                assert law.value({"Y": y}) == total[y]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_closure_is_smallest_reachable_superset(seed):
    g = random_admg(seed)
    rng = random.Random(seed + 7)
    members = sorted(g.random)
    r = frozenset(rng.sample(members, rng.randint(1, len(members))))
    cl = g.reachable_closure(r)
    # reachable supersets of r must contain the closure
    others = sorted(g.random - r)
    for k in range(min(len(others), 3) + 1):
        for extra in itertools.combinations(others, k):
            cand = r | frozenset(extra)
            if g.reachable(cand) is not None and not cl <= cand:
                raise AssertionError((sorted(r), sorted(cand), sorted(cl)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reachable_iff_closure_fixed_point(seed):
    g = random_admg(seed)
    rng = random.Random(seed * 3 + 11)
    members = sorted(g.random)
    r = frozenset(rng.sample(members, rng.randint(1, len(members))))
    assert (g.reachable(r) is not None) == (g.reachable_closure(r) == r)


class TestRandomFixingCommutation:
    def test_fix_order_yields_identical_graphs(self):
        for seed in range(80):
            g = random_admg(seed * 7 + 3)
            rng = random.Random(seed)
            members = sorted(g.random)
            r = frozenset(rng.sample(members, rng.randint(1, len(members))))
            seqs = _valid_sequences(g, r, cap=6)
            if len(seqs) < 2:
                continue
            results = {functools.reduce(Graph.fix, seq, g) for seq in seqs}
            assert len(results) == 1


class TestLargerDomains:
    def test_identified_exactness_beyond_binary(self):
        from selid.estimand import Sym
        from selid.identify import Query, identify
        from selid.oracle import verify

        fx = all_fixtures()["frontdoor"]
        query = Query(frozenset({"Y"}), (("A", Sym("a")),))
        result = identify(fx.graph, query)
        rep = verify(fx.graph, query, None, result, trials=5, seed=1, domain_size=3)
        assert rep.passed


class TestNormalFormSemantics:
    def test_rewrites_preserve_evaluation(self):
        # random expression trees over the chain/backdoor joints: the normal
        # form must evaluate to exactly the same table (up to constant axes),
        # and both must render and come back from their JSON rendering
        from selid.estimand import (
            BaseKernel,
            Product,
            Restrict,
            SumOver,
            Sym,
            marginalize,
            normal_form,
            parse,
            render,
        )
        from selid.oracle import eval_estimand, joint, random_cs_scm

        fx = all_fixtures()["backdoor"]
        tables = {"p": joint(random_cs_scm(fx.graph, seed=321))}
        names = sorted(fx.graph.random)

        def random_expr(rng, depth=0):
            roll = rng.random()
            if roll < 0.35 or depth >= 3:
                outs = rng.sample(names, rng.randint(1, len(names)))
                rest = [v for v in names if v not in outs]
                ctx = rng.sample(rest, rng.randint(0, len(rest)))
                return BaseKernel("p", frozenset(outs), frozenset(ctx))
            if roll < 0.55:
                child = random_expr(rng, depth + 1)
                outs = sorted(child.outcomes())
                if not outs:
                    return child
                b = rng.sample(outs, rng.randint(1, len(outs)))
                if rng.random() < 0.5 and len(b) < len(outs):
                    return condition(child, b)
                return marginalize(child, b)
            if roll < 0.8:
                return Product(
                    tuple(random_expr(rng, depth + 1) for _ in range(2))
                )
            child = random_expr(rng, depth + 1)
            free = sorted(child.free_vars())
            if not free:
                return child
            v = rng.choice(free)
            return Restrict(child, ((v, Sym(v.lower())),))

        import random as _r

        for seed in range(60):
            rng = _r.Random(seed)
            e = random_expr(rng)
            n = normal_form(e)
            assert normal_form(n) is n, seed  # a fixpoint comes back as itself
            for x in (e, n):
                assert parse(render(x, "json")) == x, seed
                assert render(x) and render(x, "latex"), seed
            a = eval_estimand(e, tables)
            b = eval_estimand(n, tables)
            if not defined_everywhere(a) or not defined_everywhere(b):
                continue
            shared = frozenset(a.axes) & frozenset(b.axes)
            ap = project_constant(a, frozenset(a.axes) - shared)
            bp = project_constant(b, frozenset(b.axes) - shared)
            assert equals(ap, bp), seed

    def test_normal_form_idempotent(self):
        from selid.estimand import normal_form
        from selid.identify import Query, identify_selected
        from selid.estimand import Sym

        fx = all_fixtures()["selection_web"]
        q = Query(frozenset({"Y"}), (("A1", Sym("a1")), ("A2", Sym("a2"))))
        e = identify_selected(fx.graph, q).estimand
        assert normal_form(e) is e


# --------------------------------------------------------------------------
# vertex renaming: a prefix keeps the name order, so every deterministic
# choice the procedures make by name is made alike


def _renamed(v: str) -> str:
    return "R" + v


def _names(vs) -> frozenset:
    return frozenset(map(_renamed, vs))


def _rename_graph(g: Graph) -> Graph:
    support = None
    if g.support is not None:
        support = SelectorSupport(frozenset(map(_names, g.support.patterns)))
    return Graph(
        random=_names(g.random),
        fixed=_names(g.fixed),
        latent=_names(g.latent),
        edges=frozenset(Edge(e.kind, _renamed(e.tail), _renamed(e.head), _names(e.label)) for e in g.edges),
        selector=None if g.selector is None else _renamed(g.selector),
        support=support,
    )


def _rename_value(v):
    if isinstance(v, Var):
        return Var(_renamed(v.vertex))
    if isinstance(v, SelectorValue):
        return SelectorValue(_names(v.pattern), tuple((_renamed(c), _rename_value(t)) for c, t in v.values))
    return v  # Sym and Lo name no vertex


def _rename_estimand(e):
    def visit(x, parts):
        if isinstance(x, BaseKernel):
            return BaseKernel(x.name, _names(x.outcome), _names(x.context))
        if isinstance(x, SumOver):
            return SumOver(parts[0], _names(x.over))
        if isinstance(x, Ratio):
            return Ratio(*parts)
        if isinstance(x, Product):
            return Product(tuple(parts))
        assert isinstance(x, Restrict)
        return Restrict(parts[0], tuple((_renamed(k), _rename_value(v)) for k, v in x.assignment))

    return fold(e, visit)


def _rename_verdict(r):
    """``r`` with every vertex it names renamed: the estimand, or the
    failure's district, closure and tried patterns."""
    changes = {}
    for f in fields(r):
        x = getattr(r, f.name)
        if f.name == "estimand":
            changes[f.name] = _rename_estimand(x)
        elif f.name in ("district", "closure"):
            changes[f.name] = _names(x)
        elif f.name == "tried":  # sorted support patterns
            changes[f.name] = tuple(tuple(map(_renamed, p)) for p in x)
    return replace(r, **changes)


def _renaming_cases():
    """(hidden-variable DAG, observed vertices, query): the identify_sweep
    catalogue of the benchmark and the 200 small-model seeds."""
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    workloads = _load("workloads")
    for n in workloads.SWEEP_SIZES:
        for seed in range(workloads.SWEEP_SEEDS_PER_SIZE):
            yield workloads.sweep_case(S, n, seed)
    for case in filter(None, map(random_selection_model, range(200))):
        dag, proj, query = case
        yield dag, proj.vertices, query


def test_vertex_renaming_commutes_with_identification():
    cases = 0
    for dag, obs, query in _renaming_cases():
        proj = latent_project(derive_labels(dag), obs)
        renamed = latent_project(derive_labels(_rename_graph(dag)), _names(obs))
        assert renamed == _rename_graph(proj)
        rquery = Query(_names(query.outcomes), tuple((_renamed(v), tok) for v, tok in query.treatments))
        for procedure in (identify_selected, sequential_baseline):
            got, want = procedure(renamed, rquery), _rename_verdict(procedure(proj, query))
            why = (procedure.__name__, sorted(obs), query)
            assert got == want, why
        cases += 1
    assert cases == 32 + 200


# --------------------------------------------------------------------------
# unit sums: a conditional summed over all of its outcomes is one


def _unit_sums(e) -> int:
    """How many sums in ``e`` (counted per reference) sum a conditional,
    restricted or not, over all of its outcomes."""

    def visit(x, parts):
        unit = False
        if isinstance(x, SumOver):
            c = x.child.child if isinstance(x.child, Restrict) else x.child
            unit = isinstance(c, BaseKernel) and c.outcome == x.over == x.child.outcomes()
        return sum(parts) + unit

    return fold(e, visit)


def test_no_identified_estimand_holds_a_unit_sum():
    # identify_sweep n=32 seed 7 held two copies of Σ_{V7} p(V7)
    cases = [(fx.graph, parse_query(fx.query, fx.graph.selector)[0]) for fx in FX.values()]
    cases += [(latent_project(derive_labels(dag), obs), query) for dag, obs, query in _renaming_cases()]
    identified = 0
    for g, query in cases:
        for procedure in (identify_selected, sequential_baseline) if g.selector else (identify,):
            r = procedure(g, query)
            if r.kind == "identified":
                assert _unit_sums(r.estimand) == 0, (procedure.__name__, sorted(g.vertices), query)
                identified += 1
    assert identified > 150
    assert _unit_sums(SumOver(Restrict(BaseKernel("p", {"V"}, {"X"}), (("X", Sym("x")),)), {"V"})) == 1
