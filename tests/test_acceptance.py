"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every numeric comparison is exact rational equality (no tolerances); runtime
budgets are asserted where stated.
"""

import itertools
import random
import time

from selid.estimand import (
    BaseKernel,
    Product,
    SelectorAssign,
    SumOver,
    Sym,
    normal_form,
    restrict,
)
from selid.graph import Graph, SelectorSupport, SelectorValue, directed
from selid.identify import (
    DatasetSpec,
    Query,
    identify,
    identify_fused,
    identify_selected,
    sequential_baseline,
)
from selid.oracle import (
    dataset_table,
    eval_estimand,
    joint,
    random_cs_scm,
    verify,
)
from selid.projection import canonical_hidden_dag, swig

from fixture_graphs import all_fixtures, compliance_pair
from functional_models import random_functional_cs_scm
from reference import equals, exact_ci, fix_kernel, project_constant, same_answer, selected_g_formula

FX = all_fixtures()


def q(outs, **treats):
    return Query(frozenset(outs), tuple((k, Sym(v)) for k, v in treats.items()))


def sval(**kids):
    return SelectorAssign(frozenset(kids), tuple((k, Sym(v)) for k, v in kids.items()))


def report(criterion, ok, detail=""):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


class TestAcceptance:
    def test_criterion_1_worked_example_reproduction(self):
        """selection_web: reference functional reproduced, exact on 100 seeds, <10s."""
        t0 = time.monotonic()
        fx = FX["selection_web"]
        query = q("Y", A1="a1", A2="a2")
        result = identify_selected(fx.graph, query)
        assert result.kind == "identified"

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
        reference = SumOver(
            Product(
                (
                    BaseKernel("p", frozenset("C")),
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
        form_ok = result.estimand == normal_form(reference)
        rep = verify(
            fx.graph, query, fx.graph.support, result, trials=100, seed=1, dag=fx.dag
        )
        elapsed = time.monotonic() - t0
        report(
            1,
            form_ok and rep.passed and elapsed < 10.0,
            f"(normal form match={form_ok}, 100/100 exact={rep.passed}, {elapsed:.1f}s)",
        )

    def test_criterion_2_perfect_instrument_and_strict_dominance(self):
        fx = FX["double_bow"]
        query = q("Y", A="a")
        result = identify_selected(fx.graph, query)
        expected = normal_form(
            restrict(
                BaseKernel("p", frozenset("Y"), frozenset({"A", "S"})),
                {"A": Sym("a"), "S": sval(A="a")},
            )
        )
        exact_form = result.kind == "identified" and result.estimand == expected
        baseline = sequential_baseline(fx.graph, query)
        dominance = baseline.kind != "identified"
        rep = verify(fx.graph, query, fx.graph.support, result, trials=100, seed=2, dag=fx.dag)
        report(
            2,
            exact_form and dominance and rep.passed,
            f"(exact form={exact_form}, baseline fails={dominance}, oracle={rep.passed})",
        )

    def test_criterion_3_fused_compliance_example(self):
        t0 = time.monotonic()
        model, experimental = compliance_pair()
        query = q("Y", A="a")
        ds = [
            DatasetSpec("p1", frozenset(), model.graph),
            DatasetSpec("p2", frozenset({"M"}), experimental),
        ]
        result = identify_fused(model.graph, ds, query)
        assert result.kind == "identified"

        # the reference two-dataset functional (cross-dataset adjustment form):
        # sum_{m, a~} p2(Y | m, a~) p1(a~) * sum_c p1(m | a, c) p1(c)
        reference = SumOver(
            Product(
                (
                    SumOver(
                        Product(
                            (
                                BaseKernel("p2", frozenset("Y"), frozenset({"M", "A"})),
                                BaseKernel("p1", frozenset("A")),
                            )
                        ),
                        frozenset("A"),
                    ),
                    SumOver(
                        Product(
                            (
                                BaseKernel("p1", frozenset("C")),
                                restrict(
                                    BaseKernel("p1", frozenset("M"), frozenset({"A", "C"})),
                                    {"A": Sym("a")},
                                ),
                            )
                        ),
                        frozenset("C"),
                    ),
                )
            ),
            frozenset("M"),
        )

        rep = verify(
            model.graph,
            query,
            None,
            result,
            trials=100,
            seed=3,
            dag=model.dag,
            datasets=[("p1", frozenset()), ("p2", frozenset({"M"}))],
        )
        # exact agreement between our output and the reference form
        agree = True
        for t in range(100):
            m = random_cs_scm(model.dag, seed=300 + t)
            tables = {
                "p1": dataset_table(m, frozenset()),
                "p2": dataset_table(m, frozenset({"M"})),
            }
            ours = eval_estimand(result.estimand, tables)
            theirs = eval_estimand(normal_form(reference), tables)
            if not equals(ours, theirs):
                agree = False
                break
        elapsed = time.monotonic() - t0
        report(
            3,
            rep.passed and agree,
            f"(oracle={rep.passed}, matches reference form={agree}, {elapsed:.1f}s)",
        )

    def test_criterion_4_classic_regression(self):
        t0 = time.monotonic()
        outcomes = {}
        for name in ("backdoor", "frontdoor"):
            fx = FX[name]
            result = identify(fx.graph, q("Y", A="a"))
            rep = verify(fx.graph, q("Y", A="a"), None, result, trials=100, seed=4)
            outcomes[name] = result.kind == "identified" and rep.passed
        bow = identify(FX["bow"].graph, q("Y", A="a"))
        hedge_ok = bow.kind == "hedge" and bow.district == {"Y"} and bow.closure == {"A", "Y"}
        wrep = verify(FX["bow"].graph, q("Y", A="a"), None, bow, trials=1, seed=4)
        elapsed = time.monotonic() - t0
        report(
            4,
            all(outcomes.values()) and hedge_ok and wrep.passed and elapsed < 30.0,
            f"(backdoor={outcomes['backdoor']}, frontdoor={outcomes['frontdoor']}, "
            f"bow hedge+witness={hedge_ok and wrep.passed}, {elapsed:.1f}s)",
        )

    def test_criterion_5_selected_g_formula_random_models(self):
        rng = random.Random(2026)
        identified = refuted = witnessed = 0
        for trial in range(50):
            g = _random_observed_selection_dag(rng)
            outs = frozenset({max(g.random - {g.selector})})
            treatable = sorted(g.random - outs - {g.selector})
            treats = tuple(
                (v, Sym(v.lower()))
                for v in rng.sample(treatable, rng.randint(0, min(2, len(treatable))))
            )
            query = Query(outs, treats)
            # identify_selected is what `--algorithm csg` runs; on a fully
            # observed model it must give the selected g-formula's answer
            result = identify_selected(g, query)
            assert same_answer(result, selected_g_formula(g, query)), trial
            if result.kind == "identified":
                rep = verify(g, query, g.support, result, trials=4, seed=50 + trial, dag=g)
                if not rep.passed:
                    refuted += 1
                identified += 1
            else:
                assert result.kind == "positivity"
                rep = verify(g, query, g.support, result, trials=1, seed=50 + trial, dag=g)
                assert rep.passed, (trial, rep)
                witnessed += 1
        report(
            5,
            refuted == 0 and identified + witnessed == 50,
            f"(identified exact={identified}, witnessed non-identified={witnessed})",
        )

    def test_criterion_6_failure_case_suite(self):
        cases = {
            "forced_outcome": ("positivity", q("Y")),
            "split_thicket": ("thicket", q("Y", A1="a1", A2="a2")),
            "confounded_selector_hedge": ("hedge", q("Y", A="a")),
        }
        details = []
        ok = True
        for name, (expected, query) in cases.items():
            fx = FX[name]
            result = identify_selected(fx.graph, query)
            branch_ok = result.kind == expected
            rep = verify(fx.graph, query, fx.graph.support, result, trials=1, seed=6)
            if expected == "thicket":
                cert_ok = rep.status == "unverified"
            else:
                cert_ok = rep.passed
            ok = ok and branch_ok and cert_ok
            details.append(f"{name}:{result.kind}/{rep.status}")
        report(6, ok, "(" + ", ".join(details) + ")")

    def test_criterion_7_property_suites(self):
        t0 = time.monotonic()
        _property_fixing_order_invariance()
        _property_msep_implies_ci(trials=100)
        _property_context_swig_ci(trials=8)
        _property_random_graph_invariants(count=500)
        elapsed = time.monotonic() - t0
        report(7, elapsed < 120.0, f"({elapsed:.1f}s < 120s)")


def _random_observed_selection_dag(rng: random.Random) -> Graph:
    n = rng.randint(3, 6)
    names = [f"V{i}" for i in range(n)]
    sel_idx = rng.randrange(n - 1)
    sel = names[sel_idx]
    edges = set()
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.45:
            edges.add(directed(names[i], names[j]))
    children = {e.head for e in edges if e.tail == sel}
    if not children:
        j = rng.randrange(sel_idx + 1, n)
        edges.add(directed(sel, names[j]))
        children = {names[j]}
    children = sorted(children)
    patterns = set()
    for _ in range(rng.randint(1, 3)):
        patterns.add(
            frozenset(rng.sample(children, rng.randint(0, len(children))))
        )
    support = SelectorSupport(frozenset(patterns))
    g = Graph(
        random=frozenset(names),
        selector=sel,
        support=support,
        edges=frozenset(edges),
    )
    from selid.projection import derive_labels

    return derive_labels(g)


def _property_fixing_order_invariance():
    for name in ("chain", "frontdoor", "backdoor", "compliance_pair"):
        g = FX[name].graph
        dag = FX[name].dag or canonical_hidden_dag(g)
        m = random_cs_scm(dag, seed=777)
        tables = {"p": joint(m)}
        for dstar in g.induced_subgraph(g.ancestors(frozenset("Y")) & g.random).districts():
            seqs = _all_sequences(g, dstar)
            evaluated = []
            graphs = set()
            for seq in seqs:
                gg, e = g, BaseKernel("p", g.random)
                for v in seq:
                    e = fix_kernel(e, gg, v)
                    gg = gg.fix(v)
                graphs.add(gg)
                evaluated.append(eval_estimand(normal_form(e), tables))
            assert len(graphs) == 1
            core = frozenset.intersection(*(frozenset(t.axes) for t in evaluated))
            projected = [project_constant(t, frozenset(t.axes) - core) for t in evaluated]
            for other in projected[1:]:
                assert equals(projected[0], other)


def _all_sequences(g, target, cap=24):
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

    grow(g, g.random - target, [])
    return out


def _property_msep_implies_ci(trials):
    for name in ("chain", "backdoor", "frontdoor", "double_bow"):
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
        for t in range(trials):
            table = joint(random_cs_scm(dag, seed=7000 + t))
            for x, y, z in statements:
                assert exact_ci(table, {x}, {y}, z), (name, t, x, y, z)


def _property_context_swig_ci(trials):
    for name in ("double_bow", "split_thicket"):
        fx = FX[name]
        g, dag = fx.graph, fx.dag
        sel = g.selector
        treated = sorted(g.random & {"A", "A1"})
        for t in range(trials):
            m = random_functional_cs_scm(dag, seed=8000 + t)
            for pattern in sorted(g.support, key=lambda p: (len(p), sorted(p))):
                svalue = SelectorValue(pattern, tuple((c, 1) for c in sorted(pattern)))
                a = {v: 1 for v in treated}
                sw = swig(g, {**a, sel: svalue}, svalue)
                law = m.counterfactual_law(a, svalue)
                verts = sorted(sw.random)
                for x, y in itertools.combinations(verts, 2):
                    rest = [v for v in verts if v not in (x, y)]
                    for r in range(len(rest) + 1):
                        for z in itertools.combinations(rest, r):
                            if sw.m_separated({x}, {y}, set(z)):
                                assert exact_ci(law, {x}, {y}, frozenset(z))


def _property_random_graph_invariants(count):
    from selid.graph import bidirected

    for seed in range(count):
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
        g = Graph(random=frozenset(names), edges=frozenset(edges))
        seen = set()
        for d in g.districts():
            assert not (seen & d)
            seen |= d
        assert seen == set(g.random)
        r = frozenset(rng.sample(names, rng.randint(1, n)))
        cl = g.reachable_closure(r)
        assert r <= cl and g.reachable_closure(cl) == cl
        assert g.reachable(cl) is not None
