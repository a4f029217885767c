import functools
from dataclasses import replace

import pytest

from selid.graph import (
    Graph,
    GraphError,
    NotFixableError,
    SelectorSupport,
    SelectorValue,
    bidirected,
    directed,
)

from fixture_graphs import all_fixtures

FX = all_fixtures()


def sets(xs):
    return sorted(sorted(d) for d in xs)


class TestGenealogy:
    def test_bow_district(self):
        g = FX["bow"].graph
        assert g.district_of("Y") == {"A", "Y"}

    def test_chain_ancestors(self):
        g = FX["chain"].graph
        assert g.ancestors("Y") == {"A", "M", "Y"}

    def test_double_bow_descendants_of_selector(self):
        g = FX["double_bow"].graph
        assert g.descendants("S") == {"S", "A", "Y"}

    def test_ancestor_descendant_duality(self):
        g = FX["selection_web"].graph
        for v in sorted(g.random):
            for w in sorted(g.random):
                assert (v in g.ancestors(w)) == (w in g.descendants(v))

    def test_strict_variants(self):
        g = FX["chain"].graph
        assert g.ancestors({"Y"}) == {"A", "M", "Y"}
        assert g.ancestors({"Y"}) - {"Y"} == {"A", "M"}
        assert g.parents({"Y"}) == {"M"}
        assert g.district_of({"Y"}) - {"Y"} == frozenset()

    def test_unknown_vertex_rejected(self):
        g = FX["chain"].graph
        with pytest.raises(GraphError):
            g.ancestors("Q")
        with pytest.raises(GraphError):
            g.parents({"Q"})


class TestDistricts:
    def test_bow(self):
        assert sets(FX["bow"].graph.districts()) == [["A", "Y"]]

    def test_chain(self):
        assert sets(FX["chain"].graph.districts()) == [["A"], ["M"], ["Y"]]

    def test_selection_web_outcome_relevant_part(self):
        g = FX["selection_web"].graph
        sub = g.induced_subgraph({"Y", "M", "W1", "W2", "C"})
        assert sets(sub.districts()) == [["C"], ["M"], ["W1"], ["W2", "Y"]]

    def test_partition(self):
        for fx in FX.values():
            union = set()
            for d in fx.graph.districts():
                assert not (union & d)
                union |= d
            assert union == set(fx.graph.random)


class TestInducedSubgraph:
    def test_chain_isolates(self):
        g = FX["chain"].graph.induced_subgraph({"A", "Y"})
        assert g.edges == frozenset()

    def test_bow_single(self):
        g = FX["bow"].graph.induced_subgraph({"Y"})
        assert g.random == {"Y"} and not g.edges

    def test_selection_web_triple(self):
        g = FX["selection_web"].graph.induced_subgraph({"Y", "W2", "A3"})
        kinds = sorted((e.kind,) + tuple(sorted(e.endpoints())) for e in g.edges)
        assert kinds == [
            ("bidirected", "A3", "W2"),
            ("bidirected", "W2", "Y"),
        ]

    def test_dropping_the_selector_drops_its_support(self):
        g = FX["selection_web"].graph
        sub = g.induced_subgraph(g.vertices - {g.selector})
        assert sub.selector is None and sub.support is None
        assert replace(sub) == sub  # the derived graph passes validation
        assert g.induced_subgraph(g.ancestors({g.selector})).support == g.support


class TestMSeparation:
    def test_chain_blocked_by_mediator(self):
        g = FX["chain"].graph
        assert g.m_separated({"A"}, {"Y"}, {"M"})
        assert not g.m_separated({"A"}, {"Y"})

    def test_bow_connected(self):
        g = FX["bow"].graph
        assert not g.m_separated({"A"}, {"Y"})

    def test_collider_opens_on_conditioning(self):
        g = Graph(
            random=frozenset("ABC"),
            edges=frozenset([directed("A", "C"), directed("B", "C")]),
        )
        assert g.m_separated({"A"}, {"B"})
        assert not g.m_separated({"A"}, {"B"}, {"C"})

    def test_bidirected_collider_chain(self):
        g = Graph(
            random=frozenset("ABC"),
            edges=frozenset([bidirected("A", "B"), bidirected("B", "C")]),
        )
        assert g.m_separated({"A"}, {"C"})
        assert not g.m_separated({"A"}, {"C"}, {"B"})

    def test_fixed_vertices_are_context(self):
        g = Graph(
            random=frozenset("AY"),
            fixed=frozenset("M"),
            edges=frozenset([directed("M", "A"), directed("M", "Y")]),
        )
        assert g.m_separated({"A"}, {"Y"})

    def test_disjointness_enforced(self):
        g = FX["chain"].graph
        with pytest.raises(GraphError):
            g.m_separated({"A"}, {"A"})


class TestFixing:
    def test_bow_fixability(self):
        g = FX["bow"].graph
        assert not g.is_fixable("A")
        assert g.is_fixable("Y")

    def test_chain_everything_fixable(self):
        g = FX["chain"].graph
        assert all(g.is_fixable(v) for v in sorted(g.random))

    def test_fix_removes_incoming(self):
        g = FX["bow"].graph.fix("Y")
        assert g.fixed == {"Y"} and g.edges == frozenset()

    def test_chain_fix_keeps_outgoing(self):
        g = FX["chain"].graph.fix("M")
        assert g.edges == frozenset([directed("M", "Y")])

    def test_double_bow_fix_outcome(self):
        g = FX["double_bow"].graph.fix("Y")
        kinds = sorted((e.kind, e.tail, e.head) for e in g.edges)
        assert kinds == [("bidirected", "A", "S"), ("directed", "S", "A")]

    def test_not_fixable_witness(self):
        g = FX["bow"].graph
        with pytest.raises(NotFixableError) as exc:
            g.fix("A")
        assert exc.value.witness == {"A", "Y"}

    def test_label_discipline_after_fix(self):
        g = FX["selection_web"].graph
        g2 = g.fix("Y")
        for e in g2.edges:
            assert e.head != "Y" or e.kind == "directed" and False
        before = {e for e in g.edges if "Y" not in e.endpoints()}
        assert {e for e in g2.edges if "Y" not in e.endpoints()} == before


class TestReachability:
    def test_bow_nothing_to_fix(self):
        assert FX["bow"].graph.reachable({"A", "Y"}) == ()

    def test_bow_outcome_unreachable(self):
        assert FX["bow"].graph.reachable({"Y"}) is None

    def test_frontdoor_mediator_reachable(self):
        seq = FX["frontdoor"].graph.reachable({"M"})
        assert seq is not None and set(seq) == {"A", "Y"}
        assert seq.index("Y") < seq.index("A")

    def test_closure_bow(self):
        assert FX["bow"].graph.reachable_closure({"Y"}) == {"A", "Y"}

    def test_closure_chain(self):
        assert FX["chain"].graph.reachable_closure({"Y"}) == {"Y"}

    def test_closure_selection_web_contains_selector(self):
        g = FX["selection_web"].graph
        cl = g.reachable_closure({"Y", "W2"})
        assert "S" in cl
        assert cl == {"S", "A2", "A3", "W1", "W2", "Y"}

    def test_closure_idempotent(self):
        g = FX["selection_web"].graph
        cl = g.reachable_closure({"Y", "W2"})
        assert g.reachable_closure(cl) == cl

    def test_fixing_commutes(self):
        g = FX["frontdoor"].graph
        a = g.fix("Y").fix("A")
        b = g.fix("A") if g.is_fixable("A") else None
        assert b is None  # A only becomes fixable after Y
        seq = g.reachable({"M"})
        assert functools.reduce(Graph.fix, seq, g) == a


class TestSelectorValues:
    def test_observational_is_laidback_everywhere(self):
        support = SelectorSupport({frozenset()})
        assert support.laidback_patterns({"A", "Y"}) == [frozenset()]

    def test_serious_for_member(self):
        support = SelectorSupport({frozenset(), frozenset({"A"})})
        assert support.laidback_patterns({"A"}) == [frozenset()]
        assert support.laidback_patterns({"W1", "A2"}) == [frozenset(), frozenset({"A"})]

    def test_value_iff_flag(self):
        with pytest.raises(GraphError):
            SelectorValue(frozenset({"A"}), ())


class TestInvariants:
    def test_a_selector_and_its_support_come_together(self):
        edges = frozenset([directed("S", "A")])
        support = SelectorSupport(frozenset({frozenset(), frozenset({"A"})}))
        for half in ({"selector": "S"}, {"support": support}):
            with pytest.raises(GraphError, match="a selector and its support come together"):
                Graph(random=frozenset("SA"), edges=edges, **half)
        g = Graph(random=frozenset("SA"), edges=edges, selector="S", support=support)
        with pytest.raises(GraphError, match="come together"):
            replace(g, support=None)

    def test_no_directed_cycle(self):
        with pytest.raises(GraphError):
            Graph(
                random=frozenset("AB"),
                edges=frozenset([directed("A", "B"), directed("B", "A")]),
            )
        # a source feeding a cycle: only the source has a topological place
        with pytest.raises(GraphError, match="directed cycle"):
            Graph(
                random=frozenset("ABCD"),
                edges=frozenset(
                    [directed("D", "A"), directed("A", "B"), directed("B", "C"), directed("C", "A")]
                ),
            )

    def test_no_edge_into_fixed(self):
        with pytest.raises(GraphError):
            Graph(
                random=frozenset("A"),
                fixed=frozenset("B"),
                edges=frozenset([directed("A", "B")]),
            )

    def test_identical_parallel_edges_collapse(self):
        # edges form a set keyed by (kind, endpoints, label): exact duplicates
        # cannot coexist; the file parser reports them as errors instead
        g = replace(Graph(random=frozenset("AB")), edges=frozenset([directed("A", "B"), directed("A", "B")]))
        assert len(g.edges) == 1
        assert len(Graph(random={"A", "B"}, edges=[directed("A", "B")] * 2).edges) == 1

    def test_parallel_edges_need_distinct_labels(self):
        g = Graph(
            random=frozenset(["S", "A", "B"]),
            selector="S",
            support=SelectorSupport(frozenset({frozenset()})),
            edges=frozenset(
                [
                    directed("S", "B"),
                    directed("A", "B", {"B"}),
                    directed("A", "B", {"B", "X"}),
                ]
            ),
        )
        assert len([e for e in g.edges if e.tail == "A"]) == 2
