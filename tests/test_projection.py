import itertools

import pytest

from selid.fixtures import all_fixtures
from selid.graph import Graph, GraphError, SelectorValue, directed
from selid.projection import (
    canonical_hidden_dag,
    context_graph,
    derive_labels,
    fixed_name,
    latent_project,
    swig,
)

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
        bare = FX["scar"].graph.with_edges(
            directed(e.tail, e.head) for e in FX["scar"].graph.edges
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
            assert back.with_edges(
                e for e in back.edges
            ) == g or edge_view(back) == edge_view(g)


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
