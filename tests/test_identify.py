import dataclasses
import sys

import pytest

from selid.estimand import (
    BaseKernel,
    Lo,
    Product,
    Restrict,
    SelectorAssign,
    SumOver,
    Sym,
    normal_form,
    render,
    restrict,
)
from selid.cli import _run_algorithm
from selid.graph import SelectorSupport
from selid.identify import (
    DatasetSpec,
    Identified,
    Query,
    QueryError,
    identify,
    identify_fused,
    identify_selected,
    sequential_baseline,
)
from selid.lsg import parse_graph, parse_query
from selid.oracle import verify
from selid.projection import derive_labels, latent_project

from fixture_graphs import all_fixtures, compliance_pair
from reference import same_answer, selected_g_formula

FX = all_fixtures()


def q(outs, **treats):
    return Query(frozenset(outs), tuple((k, Sym(v)) for k, v in treats.items()))


def kernel(outs, ctx=(), **restr):
    e = BaseKernel("p", frozenset(outs), frozenset(ctx))
    return restrict(e, restr) if restr else e


def sval(**kids):
    return SelectorAssign(frozenset(kids), tuple((k, Sym(v)) for k, v in kids.items()))


class TestPlainIdentification:
    def test_chain_g_formula(self):
        r = identify(FX["chain"].graph, q("Y", A="a"))
        expected = SumOver(
            Product((kernel("Y", "M"), kernel("M", "A", A=Sym("a")))),
            frozenset({"M"}),
        )
        assert r.estimand == normal_form(expected)

    def test_frontdoor_functional(self):
        r = identify(FX["frontdoor"].graph, q("Y", A="a"))
        expected = SumOver(
            Product(
                (
                    kernel("M", "A", A=Sym("a")),
                    SumOver(Product((kernel("A"), kernel("Y", "AM"))), frozenset("A")),
                )
            ),
            frozenset("M"),
        )
        assert r.estimand == normal_form(expected)

    def test_backdoor_adjustment(self):
        r = identify(FX["backdoor"].graph, q("Y", A="a"))
        expected = SumOver(
            Product((kernel("C"), kernel("Y", "AC", A=Sym("a")))), frozenset("C")
        )
        assert r.estimand == normal_form(expected)

    def test_bow_hedge(self):
        r = identify(FX["bow"].graph, q("Y", A="a"))
        assert r.kind == "hedge"
        assert r.district == {"Y"} and r.closure == {"A", "Y"}

    def test_query_validation(self):
        with pytest.raises(QueryError):
            identify(FX["chain"].graph, Query(frozenset("A"), (("A", Sym("a")),)))

    def test_hidden_variable_dag_is_rejected(self):
        # a graph with latent vertices is latent-projected first, never
        # identified over its latents
        dag = FX["double_bow"].dag
        for algorithm in (identify, identify_selected, sequential_baseline):
            with pytest.raises(QueryError, match="latent-project"):
                algorithm(dag, q("Y", A="a"))

    def test_a_graph_with_a_selector_is_refused(self):
        # plain and fused identification read no selector semantics: they
        # would leave S free in the estimand (scar: p(M | A=a, S, U2))
        for name, outcome in (("scar", "Y"), ("parallel_paths", "B")):
            g = FX[name].graph
            assert g.selector is not None
            with pytest.raises(QueryError, match="identify_selected"):
                identify(g, q(outcome, A="a"))
            with pytest.raises(QueryError, match="identify_selected"):
                identify_fused(g, [DatasetSpec("p", frozenset(), g)], q(outcome, A="a"))


class TestFusedIdentification:
    def test_single_observational_dataset_reduces_to_plain(self):
        for name in ("chain", "frontdoor", "backdoor"):
            g = FX[name].graph
            ds = [DatasetSpec("p", frozenset(), g)]
            a = identify_fused(g, ds, q("Y", A="a"))
            b = identify(g, q("Y", A="a"))
            assert a.estimand == b.estimand
        # non-identification carries the fusion failure kind
        g = FX["bow"].graph
        a = identify_fused(g, [DatasetSpec("p", frozenset(), g)], q("Y", A="a"))
        b = identify(g, q("Y", A="a"))
        assert a.kind == "thicket" and b.kind == "hedge"
        assert a.district == b.district

    def test_two_copies_of_bow_fail(self):
        g = FX["bow"].graph
        ds = [DatasetSpec("p1", frozenset(), g), DatasetSpec("p2", frozenset(), g)]
        r = identify_fused(g, ds, q("Y", A="a"))
        assert r.kind == "thicket" and r.tried == ("p1", "p2")

    def test_compliance_pair_identifies(self):
        model, experimental = compliance_pair()
        ds = [
            DatasetSpec("p1", frozenset(), model.graph),
            DatasetSpec("p2", frozenset({"M"}), experimental),
        ]
        r = identify_fused(model.graph, ds, q("Y", A="a"))
        assert r.kind == "identified"
        names = {n.name for n in _base_kernels(r.estimand)}
        assert names == {"p1", "p2"}
        rep = verify(
            model.graph,
            q("Y", A="a"),
            None,
            r,
            trials=25,
            seed=7,
            dag=model.dag,
            datasets=[("p1", frozenset()), ("p2", frozenset({"M"}))],
        )
        assert rep.passed


def _base_kernels(e):
    out = []
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, BaseKernel):
            out.append(n)
        for attr in ("child", "num", "den"):
            if hasattr(n, attr):
                stack.append(getattr(n, attr))
        if hasattr(n, "children"):
            stack.extend(n.children)
    return out


class TestSelectedGFormula:
    """``--algorithm csg``: ``identify_selected`` on a fully observed
    selection model, held to the reference selected g-formula."""

    @staticmethod
    def csg(g, query):
        r = identify_selected(g, query)
        assert same_answer(r, selected_g_formula(g, query))
        return r

    def test_scar_identifies_and_verifies(self):
        fx = FX["scar"]
        r = self.csg(fx.graph, q("Y", A="a"))
        assert r.kind == "identified"
        rep = verify(fx.graph, q("Y", A="a"), fx.graph.support, r, trials=20, seed=1, dag=fx.graph)
        assert rep.passed

    def test_trivial_support_is_plain_g_formula(self):
        fx = FX["scar"]
        g = dataclasses.replace(fx.graph, support=SelectorSupport(frozenset([frozenset()])))
        r = self.csg(g, q("Y", A="a"))
        assert r.kind == "identified"

    def test_forced_outcome_not_identified(self):
        r = self.csg(FX["forced_outcome"].graph, q("Y"))
        assert r.kind == "positivity" and r.district == {"Y"}

    def test_rejects_latent_models(self):
        cases = [
            (FX["double_bow"].dag, "the selected g-formula needs a fully observed model"),
            (FX["double_bow"].graph, "the selected g-formula needs a fully observed model"),
            (FX["chain"].graph, "no selector; use identify instead"),
        ]
        for g, message in cases:
            with pytest.raises(QueryError, match=f"^{message}$"):
                _run_algorithm("csg", g, q("Y", A="a"), [])


class TestSelectedIdentification:
    def test_double_bow_exact_form(self):
        r = identify_selected(FX["double_bow"].graph, q("Y", A="a"))
        expected = Restrict(
            BaseKernel("p", frozenset("Y"), frozenset({"A", "S"})),
            (("A", Sym("a")), ("S", sval(A="a"))),
        )
        assert r.estimand == normal_form(expected)

    def test_double_bow_dominates_baseline(self):
        ss = identify_selected(FX["double_bow"].graph, q("Y", A="a"))
        base = sequential_baseline(FX["double_bow"].graph, q("Y", A="a"))
        assert ss.kind == "identified"
        assert base.kind == "hedge"

    def test_selection_web_reference_functional(self):
        r = identify_selected(FX["selection_web"].graph, q("Y", A1="a1", A2="a2"))
        assert r.kind == "identified"
        inner = SumOver(
            Product(
                (
                    BaseKernel("p", frozenset({"W2", "A3"})),
                    restrict(
                        BaseKernel(
                            "p",
                            frozenset("Y"),
                            frozenset({"M", "W2", "W1", "C", "S", "A3"}),
                        ),
                        {"S": sval(A1="a1", A2="a2")},
                    ),
                )
            ),
            frozenset({"A3"}),
        )
        expected = SumOver(
            Product(
                (
                    kernel("C"),
                    restrict(
                        BaseKernel("p", frozenset("M"), frozenset({"A1", "S"})),
                        {"A1": Sym("a1"), "S": sval(A1="a1")},
                    ),
                    restrict(
                        BaseKernel("p", frozenset({"W1"}), frozenset({"W2", "A2", "S"})),
                        {"A2": Sym("a2"), "S": sval(A2="a2")},
                    ),
                    inner,
                )
            ),
            frozenset({"M", "W1", "W2", "C"}),
        )
        assert r.estimand == normal_form(expected)

    def test_conservativity_without_selector(self):
        for name in ("chain", "frontdoor", "backdoor", "bow"):
            g = FX[name].graph
            a = identify_selected(g, q("Y", A="a"))
            b = identify(g, q("Y", A="a"))
            assert a.kind == b.kind
            if a.kind == "identified":
                assert a.estimand == b.estimand

    def test_failure_cases_reach_their_branches(self):
        r = identify_selected(FX["forced_outcome"].graph, q("Y"))
        assert r.kind == "positivity" and r.district == {"Y"}

        r = identify_selected(FX["split_thicket"].graph, q("Y", A1="a1", A2="a2"))
        assert r.kind == "thicket" and r.district == {"Y"}
        assert set(r.tried) == {("A1",), ("A2",)}

        r = identify_selected(FX["confounded_selector_hedge"].graph, q("Y", A="a"))
        assert r.kind == "hedge"
        assert r.district == {"Y"} and r.closure == {"A", "S", "Y"}

    def test_selected_verifies_against_oracle(self):
        cases = [
            ("double_bow", {"A": "a"}),
            ("scar", {"A": "a"}),
        ]
        for name, treats in cases:
            fx = FX[name]
            qq = q("Y", **treats)
            r = identify_selected(fx.graph, qq)
            assert r.kind == "identified"
            rep = verify(
                fx.graph, qq, fx.graph.support, r, trials=20, seed=3, dag=fx.dag or fx.graph
            )
            assert rep.passed, (name, rep)


class TestSequentialBaseline:
    def test_trivial_selector_equals_plain(self):
        g = FX["chain"].graph
        assert (
            sequential_baseline(g, q("Y", A="a")).estimand
            == identify(g, q("Y", A="a")).estimand
        )

    def test_scar_baseline_verifies(self):
        fx = FX["scar"]
        r = sequential_baseline(fx.graph, q("Y", A="a"))
        assert r.kind == "identified"
        rep = verify(fx.graph, q("Y", A="a"), fx.graph.support, r, trials=10, seed=2, dag=fx.graph)
        assert rep.passed

    def test_the_second_stage_drops_the_selector_and_its_support(self, monkeypatch):
        # stage 2 identifies on the observational-context graph without the
        # selector, so without its support, and still answers
        stage2, real = [], identify

        def recording(g, query, *args):
            stage2.append(g)
            return real(g, query, *args)

        # the package exports a function named identify, so go by sys.modules
        monkeypatch.setattr(sys.modules["selid.identify"], "identify", recording)
        for name in ("scar", "parallel_paths"):
            fx = FX[name]
            stage2.clear()
            r = sequential_baseline(fx.graph, parse_query(fx.query, fx.graph.selector)[0])
            assert r.kind == "identified", name
            (g2,) = stage2
            assert g2.selector is None and g2.support is None, name

    def test_baseline_identified_implies_selected_identified(self):
        for name in ("scar", "double_bow", "selection_web"):
            fx = FX[name]
            qq = Query(
                frozenset("Y"),
                tuple(
                    (v, Sym(v.lower()))
                    for v in sorted(fx.graph.random & {"A", "A1", "A2"})
                ),
            )
            base = sequential_baseline(fx.graph, qq)
            ss = identify_selected(fx.graph, qq)
            if base.kind == "identified":
                assert ss.kind == "identified"


def projected(text: str, query: str) -> tuple:
    """The hidden-variable DAG of the .lsg ``text``, its projection onto the
    observed vertices, and ``query`` parsed against it."""
    dag = parse_graph(text)
    proj = latent_project(derive_labels(dag), dag.random - dag.latent)
    return dag, proj, parse_query(query, proj.selector)[0]


class TestConfoundedSelectorWrapper:
    def test_wrapper_reproduces_instrument_answer(self):
        from selid.estimand import ChainKernel
        from selid.identify import _confounded_selector, _contexts

        fx = FX["double_bow"]
        g = fx.graph
        query = q("Y", A="a")
        qtil = ChainKernel.from_joint(g)
        e = _confounded_selector(query, qtil, frozenset({"Y"}), frozenset({"A"}), _contexts(g))
        expected = normal_form(
            restrict(
                BaseKernel("p", frozenset("Y"), frozenset({"A", "S"})),
                {"A": Sym("a"), "S": sval(A="a")},
            )
        )
        assert normal_form(e) == expected

    def test_selector_is_pinned_in_every_factor_that_reads_it(self):
        # V3's factor conditions on the selector V1 and on its forced child
        # V2; read across all regimes it mixes V2's forced and natural values
        dag, proj, query = projected(
            """
            selector V1
            node V0
            node V2
            node V3
            node V4
            latent U0
            latent U1
            edge U0 -> V1
            edge U0 -> V2
            edge U1 -> V2
            edge U1 -> V3
            edge U1 -> V4
            edge V1 -> V2
            edge V2 -> V4
            edge V3 -> V4
            support {}, {V2}
            """,
            "P(V4 | do(V2=v2), V1=empty)",
        )
        r = identify_selected(proj, query)
        pinned = SelectorAssign(frozenset({"V2"}), (("V2", Sym("v2")),))
        expected = SumOver(
            Product(
                (
                    kernel({"V3"}, {"V1"}, V1=pinned),
                    kernel({"V4"}, {"V1", "V2", "V3"}, V1=pinned, V2=Sym("v2")),
                )
            ),
            frozenset({"V3"}),
        )
        assert r.kind == "identified" and r.estimand == normal_form(expected)
        assert verify(proj, query, proj.support, r, trials=20, seed=0, dag=dag).passed

    # V1 and V2 are ancestors of neither V4 nor the selector V0, but over the
    # whole graph they share V4's district, and fixing V2 leaves a block (a
    # kernel that had only chain form degraded here, hence the name)
    DEGRADED = (
        """
        selector V0
        node V1
        node V2
        node V3
        node V4
        latent U0
        latent U1
        edge U0 -> V0
        edge U0 -> V3
        edge U1 -> V1
        edge U1 -> V2
        edge U1 -> V3
        edge U1 -> V4
        edge V0 -> V1
        edge V0 -> V3
        edge V3 -> V4
        support {V1}, {V1, V3}
        """,
        "P(V4 | do(V2=v2, V3=v3), V0=empty)",
    )

    def test_degraded_chain_tries_every_pattern_and_gives_unknown(self):
        from selid.estimand import ChainKernel
        from selid.identify import _confounded_selector, _contexts, _selection_fixable

        _, proj, query = projected(*self.DEGRADED)
        # the closure of {V4} in the whole graph holds the selector, and is
        # one district whose factors are one block
        qtil = ChainKernel.from_joint(proj).fix_to(frozenset({"V4"}), _selection_fixable)
        assert qtil.randoms == {"V0", "V3", "V4"} == qtil.factors["V0"].outcomes()
        assert qtil.factors["V0"] is qtil.factors["V3"] is qtil.factors["V4"]
        r = _confounded_selector(query, qtil, frozenset({"V4"}), frozenset({"V3"}), _contexts(proj))
        assert (r.kind, r.district, r.tried) == ("unknown", frozenset({"V4"}), (("V1", "V3"), ("V1",)))

    def test_ancestral_margin_identifies_the_degraded_case(self):
        # the joint of An({V4, V0}) = {V0, V3, V4} never fixes V1 or V2, so
        # the confounded-selector routine gets a chain kernel to work on
        dag, proj, query = projected(*self.DEGRADED)
        r = identify_selected(proj, query)
        pinned = SelectorAssign(frozenset({"V1", "V3"}), (("V1", Lo()), ("V3", Sym("v3"))))
        expected = kernel({"V4"}, {"V0", "V3"}, V0=pinned, V3=Sym("v3"))
        assert r.kind == "identified" and r.estimand == normal_form(expected)
        assert render(r.estimand) == "p(V4 | V0=(e_V1=1, v_V1=*, e_V3=1, v_V3=v3), V3=v3)"
        assert verify(proj, query, proj.support, r, trials=50, seed=0, dag=dag).passed

    # in the ancestral margin {V0, V1, V3, V4, V5}, fixing V1, whose factor
    # V4 and V5 read, leaves one block over its district {V0, V4, V5}; V4
    # stays, as V4 -> V5.  Pattern {V4} cuts V5 off the selector, so D' is
    # {V5}, but V5's factor is the block, with outcomes V0 and V4 outside
    # D'.  Read as V5's factor it would be refuted by the oracle, so the
    # routine skips the pattern (minimized from a random DAG with 6 observed
    # and 2 latent vertices)
    BLOCKED = (
        """
        selector V0
        node V1
        node V3
        node V4
        node V5
        latent U0
        latent U1
        edge U0 -> V0
        edge U0 -> V4
        edge U1 -> V1
        edge U1 -> V4
        edge U1 -> V5
        edge V0 -> V4
        edge V1 -> V3
        edge V4 -> V5
        support {V4}
        """,
        "P(V3, V5 | do(V1=v1, V4=v4), V0=empty)",
    )

    def test_a_pattern_whose_district_meets_a_block_is_skipped(self):
        from selid.estimand import ChainKernel
        from selid.identify import _confounded_selector, _contexts, _selection_fixable

        dag, proj, query = projected(*self.BLOCKED)
        margin = proj.induced_subgraph(proj.ancestors({"V0", "V3", "V5"}))
        qtil = ChainKernel.from_joint(margin).fix_to(frozenset({"V5"}), _selection_fixable)
        assert qtil.randoms == {"V0", "V4", "V5"} == qtil.factors["V5"].outcomes()
        r = _confounded_selector(query, qtil, frozenset({"V5"}), frozenset({"V4"}), _contexts(margin))
        assert (r.kind, r.district, r.tried) == ("unknown", frozenset({"V5"}), (("V4",),))
        assert identify_selected(proj, query) == r
        # the skip costs a verdict: the query has an answer, which the oracle
        # verifies
        answer = Product((kernel({"V3"}, {"V1"}, V1=Sym("v1")), kernel({"V5"}, {"V0"}, V0=sval(V4="v4"))))
        assert verify(proj, query, None, Identified(normal_form(answer)), trials=20, seed=0, dag=dag).passed


class TestAncestralMargin:
    """Queries whose verdict moved when the selection procedure started
    fixing from the joint of An(Y* ∪ {S}) instead of the whole graph; each
    graph is pinned as text, and each estimand is checked by the oracle."""

    CASES = {
        # bench generator seed 2809: over the whole graph the selector was
        # once fixed on a kernel that had left chain form, and summed out,
        # which the oracle refuted (test_whole_graph_keeps_the_selector)
        "fix_selector_on_degraded_kernel": (
            """
            selector V0
            node V1
            node V2
            node V3
            node V4
            latent U0
            latent U1
            edge U0 -> V3
            edge U0 -> V4
            edge U1 -> V0
            edge U1 -> V3
            edge V0 -> V1
            edge V1 -> V3
            edge V1 -> V4
            edge V2 -> V3
            edge V2 -> V4
            support {}, {V1}
            """,
            "P(V4 | do(V1=v1), V0=empty)",
            "Σ_{V2} p(V2) p(V4 | V1=v1, V2)",
        ),
        # seeds 752 and 2871: unknown over the whole graph, where fixing the
        # non-ancestors of V4 degraded the chain of V4's district
        "non_ancestor_sibling": (
            """
            selector V0
            node V1
            node V2
            node V3
            node V4
            latent U0
            latent U1
            edge U0 -> V1
            edge U0 -> V2
            edge U0 -> V4
            edge U1 -> V0
            edge U1 -> V1
            edge U1 -> V2
            edge U1 -> V3
            edge V0 -> V1
            edge V0 -> V3
            edge V1 -> V4
            support {V1}, {V3}, {}
            """,
            "P(V4 | do(V1=v1), V0=empty)",
            "p(V4 | V0=(e_V1=1, v_V1=v1), V1=v1)",
        ),
        "treated_non_ancestor": (
            """
            selector V0
            node V1
            node V2
            node V3
            node V4
            latent U0
            latent U1
            edge U0 -> V1
            edge U0 -> V3
            edge U0 -> V4
            edge U1 -> V0
            edge U1 -> V1
            edge U1 -> V2
            edge V0 -> V1
            edge V0 -> V3
            edge V1 -> V4
            edge V2 -> V3
            support {V1}, {}
            """,
            "P(V4 | do(V1=v1, V3=v3), V0=empty)",
            "p(V4 | V0=(e_V1=1, v_V1=v1), V1=v1)",
        ),
    }

    def test_whole_graph_keeps_the_selector(self):
        # seed 2809 fixed over the whole projected graph, each district
        # polished as identify_selected polishes it.  For {V4} the walk fixes
        # V2, then the childless V3 that V4's factor reads (V3's district is
        # {V3}: its factor is dropped), then the selector V0, whose district
        # is {V0}: its factor is dropped too, and no sum over V0 is built.
        # Summing V0 out instead gave Σ_{V2} p(V2) (Σ_{V0} p(V0) p(V4 | V0,
        # V1=v1, V2)), which verify refuted 20 of 20 times
        from selid.estimand import ChainKernel
        from selid.identify import (
            _ancestral_set, _candidate_patterns, _contexts, _factorize, _kernel_scope,
            _polish_kernel, _selection_fixable, _selector_assign, _selector_children,
        )

        text, query_text, _ = self.CASES["fix_selector_on_degraded_kernel"]
        dag, proj, query = projected(text, query_text)
        joint = ChainKernel.from_joint(proj)

        def solve(d):
            kernel = joint.fix_to(d, _selection_fixable)
            assert kernel.randoms == d
            required = _selector_children(proj) & query.treated & proj.ancestors(d)
            pattern = _candidate_patterns(proj.support, d, required)[0]
            sval = _selector_assign(pattern, query, _kernel_scope(kernel.factors))
            return _polish_kernel(kernel, "V0", sval, _contexts(proj))

        r = _factorize(proj, query, _ancestral_set(proj, query), solve)
        assert render(r.estimand) == "Σ_{V2} p(V2) p(V4 | V0=(e_V1=1, v_V1=v1), V1=v1, V2)"
        rep = verify(proj, query, proj.support, r, trials=20, seed=0, dag=dag)
        assert (rep.status, rep.trials) == ("verified", 20)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_identified_and_verified(self, name):
        text, query_text, rendered = self.CASES[name]
        dag, proj, query = projected(text, query_text)
        r = identify_selected(proj, query)
        assert r.kind == "identified" and render(r.estimand) == rendered
        assert verify(proj, query, proj.support, r, trials=50, seed=0, dag=dag).passed
