import itertools
import random
import types
from dataclasses import replace
from pathlib import Path

import pytest

from selid import projection
from selid.graph import (
    Graph,
    GraphError,
    SelectorSupport,
    SelectorValue,
    bidirected,
    directed,
)
from selid.lsg import parse_graph
from selid.projection import (
    ProjectionCapError,
    canonical_hidden_dag,
    context_graph,
    derive_labels,
    fixed_name,
    latent_project,
    swig,
)

from fixture_graphs import all_fixtures
from test_bench_contract import MODULES, _load, _module
from test_random_models import random_selection_model

FX = all_fixtures()
OBS = SelectorValue()


def edge_view(g):
    return sorted((e.kind, e.tail, e.head, tuple(sorted(e.label))) for e in g.edges)


class TestDeriveLabels:
    def test_double_bow_dag_labels(self):
        dag = derive_labels(FX["double_bow"].dag)
        labelled = {(e.tail, e.head): e.label for e in dag.edges if e.label}
        assert labelled == {("U1", "A"): {"A"}, ("U2", "A"): {"A"}}

    def test_no_selector_parentage_means_no_labels(self):
        bare = replace(
            FX["scar"].graph, edges=frozenset(directed(e.tail, e.head) for e in FX["scar"].graph.edges)
        )
        g = derive_labels(bare)
        labelled = {(e.tail, e.head): e.label for e in g.edges if e.label}
        # only edges into the selector child M gain labels, from non-selector tails
        assert labelled == {("A", "M"): {"M"}, ("U2", "M"): {"M"}}

    def test_rejects_bidirected(self):
        with pytest.raises(GraphError):
            derive_labels(FX["bow"].graph)


class TestLatentProject:
    def test_parallel_paths_multigraph(self):
        g = FX["parallel_paths"].graph
        ab = sorted(
            tuple(sorted(e.label))
            for e in g.edges
            if e.kind == "directed" and (e.tail, e.head) == ("A", "B")
        )
        assert ab == [("W1", "Z1"), ("W2", "Z2")]
        sb = [
            e
            for e in g.edges
            if e.kind == "directed" and (e.tail, e.head) == ("S", "B")
        ]
        assert len(sb) == 1 and not sb[0].label

    def test_double_bow_projection(self):
        g = FX["double_bow"].graph
        assert edge_view(g) == [
            ("bidirected", "A", "S", ("A",)),
            ("bidirected", "A", "Y", ("A",)),
            ("directed", "A", "Y", ()),
            ("directed", "S", "A", ()),
        ]

    def test_no_latents_identity(self):
        dag = FX["scar"].graph
        assert latent_project(dag, dag.vertices) == dag

    def test_parallel_labelled_edges_survive(self):
        g = FX["parallel_paths"].graph
        assert latent_project(g, g.vertices) == g

    def test_selector_cannot_be_hidden(self):
        with pytest.raises(GraphError):
            latent_project(derive_labels(FX["double_bow"].dag), {"A", "Y"})

    def test_soundness_msep_transfers(self):
        # separation in the projection implies separation among the visible
        # vertices of the generating DAG
        for name in ("double_bow", "split_thicket", "confounded_selector_hedge"):
            proj, dag = FX[name].graph, FX[name].dag
            vis = sorted(proj.random)
            for x, y in itertools.combinations(vis, 2):
                rest = [v for v in vis if v not in (x, y)]
                for r in range(len(rest) + 1):
                    for z in itertools.combinations(rest, r):
                        if proj.m_separated({x}, {y}, set(z)):
                            assert dag.m_separated({x}, {y}, set(z)), (name, x, y, z)

    def test_canonical_hidden_dag_round_trip(self):
        for name in ("bow", "frontdoor", "compliance_pair"):
            g = FX[name].graph
            dag = canonical_hidden_dag(g)
            back = latent_project(dag, g.vertices)
            assert back == g or edge_view(back) == edge_view(g)


class TestContextGraph:
    def test_observational_keeps_edges_strips_labels(self):
        g = FX["selection_web"].graph
        cg = context_graph(g, OBS)
        assert all(not e.label for e in cg.edges)
        # one merged edge per (kind, endpoint pair)
        pairs = {(e.kind, e.tail, e.head) for e in g.edges}
        assert {(e.kind, e.tail, e.head) for e in cg.edges} == pairs

    def test_parallel_paths_resolution(self):
        g = FX["parallel_paths"].graph
        s = SelectorValue(frozenset({"Z1"}), (("Z1", "z"),))
        cg = context_graph(g, s)
        ab = [e for e in cg.edges if (e.tail, e.head) == ("A", "B")]
        assert len(ab) == 1  # only the {Z2, W2}-labelled copy survives

    def test_double_bow_serious_for_treatment(self):
        g = FX["double_bow"].graph
        s = SelectorValue(frozenset({"A"}), (("A", "a"),))
        cg = context_graph(g, s)
        assert edge_view(cg) == [
            ("directed", "A", "Y", ()),
            ("directed", "S", "A", ()),
        ]

    def test_support_respected(self):
        g = FX["double_bow"].graph
        with pytest.raises(GraphError):
            context_graph(g, SelectorValue(frozenset({"Y"}), (("Y", "y"),)))


class TestSwig:
    def test_chain_standard_split(self):
        g = FX["chain"].graph
        sw = swig(g, {"M": "m"})
        assert fixed_name("M") in sw.fixed
        assert edge_view(sw) == [
            ("directed", "A", "M", ()),
            ("directed", fixed_name("M"), "Y", ()),
        ]

    def test_double_bow_context_swig(self):
        g = FX["double_bow"].graph
        s = SelectorValue(frozenset({"A"}), (("A", "a"),))
        sw = swig(g, {"S": s, "A": "a"}, s)
        # the random half of the serious, intervened treatment is deleted
        assert "A" not in sw.random
        assert fixed_name("A") in sw.fixed
        assert ("directed", fixed_name("A"), "Y", ()) in edge_view(sw)
        # outcome counterfactual is independent of the selector
        assert sw.m_separated({"Y"}, {"S"})

    def test_selection_web_district_in_context_swig(self):
        g = FX["selection_web"].graph
        s = SelectorValue(
            frozenset({"A1", "A2"}), (("A1", "a1"), ("A2", "a2"))
        )
        sw = swig(g, {"S": s}, s)
        assert sw.district_of("Y") == {"Y", "A3", "W2"}

    def test_selector_requires_value(self):
        g = FX["double_bow"].graph
        with pytest.raises(GraphError):
            swig(g, {"S": "s"})

    def test_labels_kept_without_selector_value(self):
        g = FX["selection_web"].graph
        sw = swig(g, {"A3": "a3"})
        assert any(e.label for e in sw.edges)

    @pytest.mark.parametrize("kind", ["random", "fixed"])
    def test_fixed_half_name_taken(self, kind):
        # A's fixed half would be named A__do, which the graph already has;
        # as a fixed vertex it would silently take A's outgoing edges
        names = {"random": {"A", "Y"}, "fixed": set()}
        names[kind].add(fixed_name("A"))
        g = Graph(
            random=frozenset(names["random"]),
            fixed=frozenset(names["fixed"]),
            edges=frozenset({directed("A", "Y"), directed(fixed_name("A"), "Y")}),
        )
        with pytest.raises(GraphError):
            swig(g, {"A": "a"})


class TestDeriveProjectIdentity:
    def test_identity_on_full_vertex_set(self):
        for name in ("double_bow", "split_thicket", "parallel_paths"):
            dag = derive_labels(FX[name].dag)
            assert latent_project(dag, dag.vertices) == dag


def reference_projection_edges(g, keep) -> frozenset:
    """The edges of the projection of ``g`` onto ``keep`` by enumeration:
    every hidden-interior directed path from each kept vertex, and every
    pair of branches with disjoint interiors from each hidden vertex, with
    the minimal label sets per endpoint pair.  ``latent_project`` must agree
    with it; its work grows with the number of paths, so it serves only as
    the reference on small graphs."""
    keep = frozenset(keep)
    children = {v: sorted(g.children(v)) for v in g.vertices}
    labels = {}
    for e in g.edges:
        labels.setdefault((e.tail, e.head), []).append(e.label)

    def paths(start):
        found, stack = [], [(start, frozenset(), (start,))]
        while stack:
            v, lab, path = stack.pop()
            for w in children[v]:
                for edge_lab in labels[(v, w)]:
                    if w in keep:
                        found.append((w, lab | edge_lab, path))
                    else:
                        stack.append((w, lab | edge_lab, path + (w,)))
        return found

    def minimal(sets):
        out = []
        for ls in sorted(sets, key=lambda s: (len(s), sorted(s))):
            if not any(k <= ls for k in out):
                out.append(ls)
        return out

    dir_sets, bi_sets = {}, {}
    for x in sorted(keep):
        for w, lab, _ in paths(x):
            dir_sets.setdefault((x, w), set()).add(lab)
    for h in sorted(g.vertices - keep):
        branches = [(w, lab, frozenset(path)) for w, lab, path in paths(h)]
        for (x, lx, px), (y, ly, py) in itertools.product(branches, repeat=2):
            if x < y and not (px & py) - {h}:
                bi_sets.setdefault((x, y), set()).add(lx | ly)
    edges = [directed(x, y, lab) for (x, y), sets in dir_sets.items() for lab in minimal(sets)]
    edges += [bidirected(x, y, lab) for (x, y), sets in bi_sets.items() for lab in minimal(sets)]
    return frozenset(edges)


def hidden_chain_dag(seed: int):
    """A random labelled selection DAG with 4-10 vertices, each but the
    selector hidden with probability 1/2, so hidden vertices have parents
    and children: hidden-interior paths of several edges, hidden selector
    children whose labels propagate along them, and (in about one graph in
    three) parallel copies of edges with other labels.  Returns the DAG and
    its kept vertices."""
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    order = [f"V{i}" for i in range(n)]
    sel = order[rng.randrange(n // 2)]
    hidden = frozenset(v for v in order if v != sel and rng.random() < 0.5)
    edges = {
        directed(order[i], order[j])
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < 0.35
    }
    edges.add(directed(sel, order[-1]))
    dag = derive_labels(
        Graph(
            random=frozenset(order),
            latent=hidden,
            selector=sel,
            support=SelectorSupport(frozenset({frozenset()})),
            edges=frozenset(edges),
        )
    )
    if rng.random() < 1 / 3:
        kids = sorted(dag.children(sel))
        copies = [
            directed(e.tail, e.head, rng.sample(kids, rng.randint(0, len(kids))))
            for e in sorted(dag.edges, key=lambda e: e.sort_key())
            if e.tail != sel and rng.random() < 0.3
        ]
        dag = replace(dag, edges=dag.edges | frozenset(copies))
    return dag, frozenset(order) - hidden


def _assert_matches_reference(g, keep):
    proj = latent_project(g, keep)
    assert proj.vertices == keep
    assert proj.edges == reference_projection_edges(g, keep)


class TestProjectionSearch:
    def test_hidden_chains_match_the_enumeration(self):
        shapes = {"hidden to hidden": 0, "labelled into hidden": 0, "parallel": 0}
        for seed in range(2000):
            dag, keep = hidden_chain_dag(seed)
            hidden = dag.vertices - keep
            _assert_matches_reference(dag, keep)
            into_hidden = [e for e in dag.edges if e.head in hidden]
            shapes["hidden to hidden"] += any(e.tail in hidden for e in into_hidden)
            shapes["labelled into hidden"] += any(e.label for e in into_hidden)
            pairs = [(e.tail, e.head) for e in dag.edges]
            shapes["parallel"] += len(set(pairs)) < len(pairs)
        # the family exercises what the other generators never draw
        assert min(shapes.values()) > 200, shapes

    def test_the_3000_seed_generator_matches_the_enumeration(self):
        checked = 0
        for seed in range(3000):
            case = random_selection_model(seed)
            if case is None:
                continue
            dag, proj, _ = case
            assert proj.edges == reference_projection_edges(derive_labels(dag), proj.vertices)
            checked += 1
        assert checked > 2500

    def test_sweep_cases_match_the_enumeration(self):
        S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
        workloads = _load("workloads")
        for n in (16, 24, 32, 40, 48, 64, 96, 128):
            for seed in range(32):
                dag, obs, _ = workloads.sweep_case(S, n, seed)
                _assert_matches_reference(derive_labels(dag), obs)

    def test_fixture_dags_match_the_enumeration(self):
        files = sorted(Path(__file__).resolve().parents[1].glob("fixtures/*_dag.lsg"))
        assert len(files) == 6
        for path in files:
            dag = parse_graph(path.read_text())
            if dag.selector is not None and not any(e.label for e in dag.edges):
                dag = derive_labels(dag)
            _assert_matches_reference(dag, dag.vertices - dag.latent)

    def test_surviving_edges_are_not_rebuilt(self):
        S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
        dag, obs, _ = _load("workloads").sweep_case(S, 40, 0)
        labelled = derive_labels(dag)
        same = {id(e) for e in labelled.edges}
        assert sum(id(e) in same for e in dag.edges) == sum(not e.label for e in labelled.edges)
        proj = latent_project(labelled, obs)
        kept = [e for e in proj.edges if e in labelled.edges]
        assert kept and all(id(e) in same for e in kept)

    def test_derivations_pass_unchanged_edges_through(self):
        g = FX["selection_web"].graph
        ids = {id(e) for e in g.edges}
        unlabelled = sum(not e.label for e in g.edges)
        assert sum(id(e) in ids for e in context_graph(g, OBS).edges) == unlabelled
        sw = swig(g, {"A3": "a3"})
        moved = sum(e.kind == "directed" and e.tail == "A3" for e in g.edges)
        assert sum(id(e) in ids for e in sw.edges) == len(g.edges) - moved
        for name in ("bow", "frontdoor"):
            h = FX[name].graph
            assert {id(e) for e in h.edges if e.kind == "directed"} <= {
                id(e) for e in canonical_hidden_dag(h).edges
            }


def ladder_dag(layers: int, selected: bool = False) -> Graph:
    """S -> X -> a ladder of ``layers`` layers of 2 hidden vertices, each
    layer joined in full to the next -> Y: 2^layers hidden-interior paths
    from X to Y.  With ``selected`` every hidden vertex is also a child of
    the selector, so the label sets on those paths are 2^layers as well."""
    rungs = [[f"H{i}a", f"H{i}b"] for i in range(layers)]
    edges = {directed("S", "X"), directed("X", "H0a"), directed("X", "H0b")}
    edges |= {directed(u, v) for a, b in zip(rungs, rungs[1:]) for u in a for v in b}
    edges |= {directed(h, "Y") for h in rungs[-1]}
    hidden = frozenset(itertools.chain(*rungs))
    if selected:
        edges |= {directed("S", h) for h in hidden}
    return Graph(
        random=hidden | {"S", "X", "Y"},
        latent=hidden,
        selector="S",
        support=SelectorSupport(frozenset({frozenset()})),
        edges=frozenset(edges),
    )


class TestProjectionBound:
    def test_a_long_ladder_projects_to_two_edges(self):
        # 256 layers: 2^256 paths, 263 680 states by the bound
        proj = latent_project(derive_labels(ladder_dag(256)), {"S", "X", "Y"})
        assert edge_view(proj) == [("directed", "S", "X", ()), ("directed", "X", "Y", ())]

    def test_a_labelled_ladder_past_the_cap_is_refused_before_the_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched past the cap")

        monkeypatch.setattr(projection, "_hidden_ends", no_search)
        dag = derive_labels(ladder_dag(24, selected=True))
        # a state at a vertex of layer k carries a subset of the labels of
        # the 2k vertices above it and its own: 2^(2k + 1) sets
        with pytest.raises(ProjectionCapError) as info:
            latent_project(dag, {"S", "X", "Y"})
        assert str(51 * sum(2 << 2 * k + 1 for k in range(24))) in str(info.value)
        assert isinstance(info.value, GraphError)

    def test_selected_hidden_vertices_apart_stay_under_the_cap(self):
        # 20 hidden selector children, each between X and its own Y: 20
        # names label edges into hidden vertices, but each state carries at
        # most its own, so the bound is 42 * 20 * 2
        hidden = [f"H{i}" for i in range(20)]
        edges = {directed("S", "X")}
        for i, h in enumerate(hidden):
            edges |= {directed("S", h), directed("X", h), directed(h, f"Y{i}")}
        dag = Graph(
            random=frozenset(v for e in edges for v in (e.tail, e.head)),
            latent=frozenset(hidden),
            selector="S",
            support=SelectorSupport(frozenset({frozenset()})),
            edges=frozenset(edges),
        )
        _assert_matches_reference(derive_labels(dag), dag.vertices - dag.latent)

    def test_a_labelled_ladder_under_the_cap_is_projected(self):
        # 6 layers, every hidden vertex selected: 15 * 5460 states by the
        # bound, under the cap
        _assert_matches_reference(derive_labels(ladder_dag(6, selected=True)), {"S", "X", "Y"})
