import collections
import copy
import dataclasses
import functools
import itertools
import json
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from selid import oracle
from selid.estimand import BaseKernel, Lo, Product, Ratio, Restrict, SelectorAssign, SumOver, Sym, Var, fold, restrict
from selid.graph import Graph, GraphError, SelectorSupport, SelectorValue, directed
from selid.identify import DatasetSpec, Query, identify, identify_fused, identify_selected, sequential_baseline
from selid.lsg import parse_query
from selid.oracle import (
    OracleError,
    Table,
    UNDEF,
    dataset_table,
    eval_estimand,
    interventional,
    joint,
    parity_witness,
    random_cs_scm,
    selector_domain,
    verify,
)
from selid.projection import canonical_hidden_dag

from fixture_graphs import FIXTURE_DIR, all_fixtures, compliance_pair
from reference import defined_everywhere, equals, exact_ci

FX = all_fixtures()
GOLDEN = Path(__file__).resolve().parent / "golden"


def q(outs, **treats):
    return Query(frozenset(outs), tuple((k, Sym(v)) for k, v in treats.items()))


def cpt_tables(m) -> dict:
    """vertex -> the axes, denominator and numerators of its CPT."""
    return {
        v: {"axes": list(t.axes), "denom": t.denom, "values": list(t.values)}
        for v, t in sorted(m.cpts.items())
    }


def cpt_data(m) -> dict:
    """vertex -> (axes, {parent values + value: probability})."""
    return {v: (t.axes, t.data) for v, t in m.cpts.items()}


def cpt_layout(m) -> list:
    """(vertex, axes, domains, numerators, denominator) of each CPT, in order."""
    return [(v, t.axes, t.domains, list(t.values), t.denom) for v, t in m.cpts.items()]


def _drawn_row_by_row(dag, seed, domain_size) -> list:
    """``cpt_layout`` of the model ``random_cs_scm`` draws, drawn row by row:
    vertices in topological order, rows in product order, one
    ``randint(1, 16)`` per weight.  A row the selector forces is a point
    mass; a selector child draws its natural row on the first row with its
    other parents' values and reuses it.  Each row in lowest terms, over
    the least common multiple of the row totals."""
    rng = random.Random(seed)
    sel = dag.selector
    shape = oracle.DiscreteCsScm(dag, {v: domain_size for v in dag.vertices if v != sel}, {})
    natural, cpts = {}, []
    for v in dag.topological_order():
        parents = tuple(sorted(dag.parents(v)))
        domains = {p: shape.row_domain(p) for p in parents}
        domains[v] = shape.domain(v)
        n = len(domains[v])
        rows = []
        for pa_vals in itertools.product(*(domains[p] for p in parents)):
            if sel not in parents:
                row = [rng.randint(1, 16) for _ in range(n)]
            else:
                pattern, values = pa_vals[parents.index(sel)]
                if v in pattern:
                    row = [int(k == values[pattern.index(v)]) for k in range(n)]
                else:
                    rest = tuple(x for p, x in zip(parents, pa_vals) if p != sel)
                    if rest not in natural.setdefault(v, {}):
                        natural[v][rest] = [rng.randint(1, 16) for _ in range(n)]
                    row = natural[v][rest]
            g = math.gcd(*row)
            rows.append([w // g for w in row])
        denom = math.lcm(*(sum(row) for row in rows))
        values = [w * (denom // sum(row)) for row in rows for w in row]
        cpts.append((v, parents + (v,), domains, values, denom))
    return cpts


class TestModelGeneration:
    def test_seed_determinism(self):
        fx = FX["double_bow"]
        a = random_cs_scm(fx.dag, seed=42)
        b = random_cs_scm(fx.dag, seed=42)
        assert cpt_tables(a) == cpt_tables(b)
        c = random_cs_scm(fx.dag, seed=43)
        assert cpt_tables(a) != cpt_tables(c)

    def test_weights_draw_the_randint_stream(self):
        for seed in range(100):
            a, b = random.Random(seed), random.Random(seed)
            for n in (1, 2, 3, 8):
                assert oracle._weights(a, n) == [b.randint(1, 16) for _ in range(n)]
            assert a.random() == b.random()

    @pytest.mark.parametrize("name, seed", [("double_bow", 42), ("selection_web", 5)])
    def test_drawn_models_are_pinned(self, name, seed):
        # recorded numbers, not a rerun of the code: a change of draw order or
        # of CPT layout fails here, where test_seed_determinism would pass
        fx = FX[name]
        m = random_cs_scm(fx.dag, seed=seed)
        pinned = json.loads((GOLDEN / "drawn_models.json").read_text())
        assert cpt_tables(m) == pinned[f"{name} {seed}"]

    def test_batched_draws_equal_models_drawn_alone(self):
        # every fixture's hidden-variable DAG: a batch of T models drawn in
        # one pass holds, CPT by CPT, the CPTs random_cs_scm draws for each
        # seed alone
        for fx in FX.values():
            g = fx.dag or canonical_hidden_dag(fx.graph)
            layout = oracle._random_layout(g, 2)
            for trials in (1, 2, 3, 7):
                seeds = range(5 * trials, 6 * trials)
                batch = layout.draw(seeds)
                alone = [random_cs_scm(g, seed=seed) for seed in seeds]
                for c, (cells, denoms) in zip(layout.cpts, batch, strict=True):
                    assert cells == [x for m in alone for x in m.cpts[c.v].values]
                    assert denoms == tuple(m.cpts[c.v].denom for m in alone)
                models = layout.models(batch, trials)
                assert list(map(cpt_tables, models)) == list(map(cpt_tables, alone))

    def test_selector_case_split_holds(self):
        fx = FX["selection_web"]
        m = random_cs_scm(fx.dag, seed=5)
        assert m.validate()

    @pytest.mark.parametrize(
        "kind, error",
        [("unnormalized", "sum to 1"), ("forced", "forced value"), ("laidback", "natural mechanism")],
    )
    def test_validate_rejects_broken_rows(self, kind, error):
        fx = FX["selection_web"]
        m = random_cs_scm(fx.dag, seed=5)
        t = m.cpts["A1"]  # a selector child, two values per row
        parents, rows = m.rows("A1")
        si = parents.index("S")
        # the first row the selector forces A1 in, or the first it leaves natural
        i = next(i for i, (pa_vals, _) in enumerate(rows) if ("A1" in pa_vals[si][0]) == (kind == "forced"))
        a, b = t.values[2 * i], t.values[2 * i + 1]
        if kind == "unnormalized":
            t.values[2 * i] += 1
        elif kind == "forced":
            t.values[2 * i], t.values[2 * i + 1] = b, a
        else:  # other laidback selector values share this natural row
            t.values[2 * i], t.values[2 * i + 1] = a - 1, b + 1
        with pytest.raises(OracleError, match=error):
            m.validate()

    def test_massless_mechanism_row_is_rejected(self):
        layout = oracle._ModelLayout(FX["chain"].graph, 2)
        for c in layout.cpts:
            with pytest.raises(OracleError, match=f"a mechanism row of {c.v} has no mass"):
                oracle._cpt(c, [0] * (len(c.draws) * c.n))

    def test_each_cpt_is_capped_before_its_rows_are_listed(self, monkeypatch):
        # a sink with 5 binary parents: a CPT of 2 * 32 = 64 cells
        kids = tuple(f"X{i}" for i in range(5))
        g = Graph(random=frozenset(kids + ("Y",)), edges=frozenset(directed(x, "Y") for x in kids))
        monkeypatch.setattr(oracle, "MAX_CELLS", 63)
        with pytest.raises(OracleError, match="the CPT of Y exceeds the enumeration cap"):
            random_cs_scm(g, seed=0)
        monkeypatch.setattr(oracle, "MAX_CELLS", 64)
        assert sum(joint(random_cs_scm(g, seed=0)).data.values()) == 1

    def test_rows_sum_to_one(self):
        m = random_cs_scm(FX["chain"].graph, seed=1)
        for v, t in m.cpts.items():
            _, rows = m.rows(v)
            for _, row in rows:
                assert sum(row) == t.denom

    def test_rejects_admg_input(self):
        with pytest.raises(OracleError):
            random_cs_scm(FX["bow"].graph, seed=0)

    def test_domain_size_floor(self):
        with pytest.raises(OracleError):
            random_cs_scm(FX["chain"].graph, seed=0, domain_size=1)

    def test_larger_domains(self):
        m = random_cs_scm(FX["chain"].graph, seed=0, domain_size=3)
        assert sum(joint(m).data.values()) == 1

    def test_layout_fills_equal_row_by_row_draws(self):
        # every fixture hidden-variable DAG and the 200 generator DAGs, at
        # domain sizes 2 and 3: models drawn on one layout per DAG carry the
        # CPTs a row-by-row randint reference draws, seed by seed
        from test_random_models import random_selection_model

        dags = [fx.dag for fx in FX.values() if fx.dag is not None]
        assert len(dags) == len(list(FIXTURE_DIR.glob("*_dag.lsg")))
        dags += [case[0] for case in map(random_selection_model, range(200)) if case is not None]
        models = 0
        for dag in dags:
            for size in (2, 3):
                layout = oracle._random_layout(dag, size)
                for seed in range(3):
                    m = oracle._random_model(layout, seed)
                    assert cpt_layout(m) == _drawn_row_by_row(dag, seed, size), (dag, size, seed)
                    models += 1
        assert models > 1000


class TestLaws:
    def test_deterministic_chain_is_point_mass(self):
        g = FX["chain"].graph
        m = random_cs_scm(g, seed=0)
        for v in "MYA":
            t = m.cpts[v]
            m.cpts[v] = Table(t.axes, t.domains, [1, 0] * (len(t.values) // 2))
        t = joint(m)
        assert t.value({"A": 0, "M": 0, "Y": 0}) == 1

    def test_joint_margin_consistency(self):
        m = random_cs_scm(FX["frontdoor"].dag or canonical_hidden_dag(FX["frontdoor"].graph), seed=2)
        t = joint(m)
        margin = t.sum_out({"M", "Y"})
        # direct computation of p(A) by brute force over all vertices
        brute = {0: Fraction(0), 1: Fraction(0)}
        full_vars = sorted(m.graph.vertices)
        cpts = cpt_data(m)
        import itertools

        for vals in itertools.product(*(m.domain(v) for v in full_vars)):
            asg = dict(zip(full_vars, vals))
            p = Fraction(1)
            for v in full_vars:
                axes, data = cpts[v]
                p *= data[tuple(asg[x] for x in axes)]
            brute[asg["A"]] += p
        for a in (0, 1):
            assert margin.value({"A": a}) == brute[a]

    def test_intervene_everything_is_point_mass(self):
        m = random_cs_scm(FX["chain"].graph, seed=3)
        t = interventional(m, {"A": 1, "M": 0, "Y": 1})
        assert t.axes == () and t.data[()] == 1

    def test_intervene_nothing_recovers_context_law(self):
        fx = FX["double_bow"]
        m = random_cs_scm(fx.dag, seed=4)
        t = interventional(m, {}, SelectorValue())
        assert sum(t.data.values()) == 1

    def test_selector_domain_enumeration(self):
        dom = selector_domain(FX["selection_web"].graph.support, {"A1": 2, "A2": 2})
        assert len(dom) == 1 + 2 + 2 + 4

    def test_perfect_instrument_consistency(self):
        fx = FX["double_bow"]
        m = random_cs_scm(fx.dag, seed=6)
        t = joint(m)
        cond = t.conditional({"Y"}, {"A", "S"})
        for a in (0, 1):
            truth = interventional(m, {"A": a}, SelectorValue()).sum_out({"A", "S"})
            for y in (0, 1):
                assert truth.value({"Y": y}) == cond.value(
                    {"Y": y, "A": a, "S": (("A",), (a,))}
                )


class TestEvaluation:
    def test_conditional_evaluation(self):
        m = random_cs_scm(FX["chain"].graph, seed=8)
        t = joint(m)
        got = eval_estimand(BaseKernel("p", frozenset("Y"), frozenset("A")), {"p": t})
        want = t.conditional({"Y"}, {"A"})
        assert equals(want, got)

    def test_zero_mass_context_is_undefined(self):
        t = Table(
            ("A", "Y"),
            {"A": (0, 1), "Y": (0, 1)},
            {
                (0, 0): Fraction(1, 2),
                (0, 1): Fraction(1, 2),
                (1, 0): Fraction(0),
                (1, 1): Fraction(0),
            },
        )
        got = t.conditional({"Y"}, {"A"})
        assert got.value({"A": 1, "Y": 0}) is UNDEF

    def test_undef_rules_of_multiply_and_sum_out(self):
        bits = {"A": (0, 1), "B": (0, 1)}
        t = Table(
            ("A", "B"),
            bits,
            {
                (0, 0): UNDEF,
                (0, 1): Fraction(1, 4),
                (1, 0): Fraction(1, 4),
                (1, 1): Fraction(1, 2),
            },
        )
        zero_at_0 = Table(("B",), {"B": (0, 1)}, {(0,): Fraction(0), (1,): Fraction(1, 3)})
        positive = Table(("B",), {"B": (0, 1)}, {(0,): Fraction(2, 3), (1,): Fraction(1)})

        # UNDEF * 0 = 0, from either side
        for prod in (t.multiply(zero_at_0), zero_at_0.multiply(t)):
            assert prod.value({"A": 0, "B": 0}) == 0
            assert prod.value({"A": 0, "B": 1}) == Fraction(1, 12)
            assert prod.value({"A": 1, "B": 1}) == Fraction(1, 6)
            assert defined_everywhere(prod)
            assert prod.sum_out({"B"}).value({"A": 0}) == Fraction(1, 12)
        # UNDEF * x = UNDEF for x != 0
        prod = t.multiply(positive)
        assert prod.value({"A": 0, "B": 0}) is UNDEF
        assert prod.value({"A": 1, "B": 0}) == Fraction(1, 6)
        # UNDEF + x = UNDEF; sums without UNDEF stay exact
        assert t.sum_out({"B"}).value({"A": 0}) is UNDEF
        assert t.sum_out({"B"}).value({"A": 1}) == Fraction(3, 4)
        assert t.sum_out({"A"}).value({"B": 0}) is UNDEF
        assert t.sum_out({"A"}).value({"B": 1}) == Fraction(3, 4)
        assert t.sum_out({"A", "B"}).value({}) is UNDEF

    def test_undef_multiplies_by_the_reference_rule(self):
        # every product runs on operator.mul, which UNDEF answers itself: it
        # equals the reference rule (_ref_mul) on every pair, in both orders
        values = (UNDEF, 0, 1, 7, Fraction(3, 4))
        for a, b in itertools.product(values, repeat=2):
            got, want = operator.mul(a, b), _ref_mul(a, b)
            assert got is UNDEF if want is UNDEF else got is not UNDEF and got == want, (a, b)

    def test_undef_absorbs_sums_and_nonzero_products(self):
        # every sum and product runs on operator.add and operator.mul, which
        # UNDEF answers itself, from either side
        assert UNDEF + 3 is UNDEF and 3 + UNDEF is UNDEF
        assert sum([1, UNDEF, 2]) is UNDEF
        assert UNDEF * 0 == 0 * UNDEF == 0
        assert UNDEF * 5 is UNDEF

    def test_law_numerators_match_data(self):
        m = random_cs_scm(FX["selection_web"].dag, seed=4)
        t = joint(m)
        assert all(isinstance(n, int) for n in t.values)
        assert all(Fraction(n, t.denom) == p for n, p in zip(t.values, t.data.values()))
        margin = t.sum_out({"Y"})
        assert margin.denom == t.denom and all(isinstance(n, int) for n in margin.values)
        rebuilt = Table(t.axes, t.domains, dict(t.data)).sum_out({"Y"})
        assert rebuilt.denom == 1 and equals(rebuilt, margin)

    def test_unknown_kernel_name(self):
        with pytest.raises(OracleError):
            eval_estimand(BaseKernel("nope", frozenset("Y")), {})

    def test_kernel_variable_missing_from_the_table(self):
        # p(Y | W) on a table without W is an error, not p(Y)
        t = joint(random_cs_scm(FX["chain"].graph, seed=8))
        with pytest.raises(OracleError, match=r"\['W'\] are not axes"):
            eval_estimand(BaseKernel("p", frozenset("Y"), frozenset("W")), {"p": t})

    def test_ratio_denominator_with_an_axis_the_numerator_lacks(self):
        t = joint(random_cs_scm(FX["chain"].graph, seed=8))
        e = Ratio(BaseKernel("p", frozenset("Y")), BaseKernel("p", frozenset("A")))
        with pytest.raises(OracleError, match="misses axes"):
            eval_estimand(e, {"p": t})

    def test_kernel_varying_over_a_leftover_context_axis(self):
        # p(Y | A) read from p(A, Y | do(M)) leaves M, and Y depends on M
        t = dataset_table(random_cs_scm(FX["chain"].graph, seed=9), {"M"})
        with pytest.raises(OracleError, match="not constant over context axes"):
            eval_estimand(BaseKernel("d", frozenset("Y"), frozenset("A")), {"d": t})

    def test_total_variation_needs_equal_defined_tables(self):
        bit = {"A": (0, 1), "B": (0, 1)}
        a = Table(("A",), bit, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
        b = Table(("B",), bit, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
        undef = Table(("A",), bit, {(0,): UNDEF, (1,): Fraction(1, 2)})
        with pytest.raises(OracleError, match="mismatched axes"):
            a.total_variation(b)
        with pytest.raises(OracleError, match="undefined entries"):
            a.total_variation(undef)

    def test_dataset_table_is_conditional(self):
        m = random_cs_scm(FX["chain"].graph, seed=9)
        t = dataset_table(m, {"M"})
        assert t.given == {"M"}
        for mval in (0, 1):
            total = sum(
                t.value({"A": a, "Y": y, "M": mval}) for a in (0, 1) for y in (0, 1)
            )
            assert total == 1


class TestWitnesses:
    def test_bow_hedge_witness(self):
        r = identify(FX["bow"].graph, q("Y", A="a"))
        m1, m2 = parity_witness(FX["bow"].graph, q("Y", A="a"), r)
        assert equals(joint(m1), joint(m2))
        t1 = interventional(m1, {"A": 1}).sum_out({"A"})
        t2 = interventional(m2, {"A": 1}).sum_out({"A"})
        assert t1.total_variation(t2) > 0

    def test_forced_outcome_positivity_witness(self):
        fx = FX["forced_outcome"]
        r = identify_selected(fx.graph, q("Y"))
        m1, m2 = parity_witness(fx.graph, q("Y"), r)
        assert equals(joint(m1), joint(m2))
        t1 = interventional(m1, {}, SelectorValue()).sum_out({"S"})
        t2 = interventional(m2, {}, SelectorValue()).sum_out({"S"})
        assert t1.total_variation(t2) == 1

    def test_selector_hedge_witness(self):
        fx = FX["confounded_selector_hedge"]
        r = identify_selected(fx.graph, q("Y", A="a"))
        m1, m2 = parity_witness(fx.graph, q("Y", A="a"), r)
        assert m1.validate() and m2.validate()
        assert equals(joint(m1), joint(m2))

    def test_adjacent_child_witness_is_pinned(self):
        # recorded numbers: generator seed 45's hedge is certified by the
        # adjacent-child construction, and both of its models are pinned
        from test_random_models import random_selection_model

        _, proj, query = random_selection_model(45)
        r = identify_selected(proj, query)
        pair = parity_witness(proj, query, r)
        pinned = json.loads((GOLDEN / "witness_adjacent_child.json").read_text())
        assert [cpt_tables(m) for m in pair] == pinned["models"]
        adjacent = oracle.adjacent_child_witness_pair(proj, query, r.district, r.closure)
        assert [cpt_tables(m) for m in adjacent] == pinned["models"]
        assert str(oracle._witness_separation(query, *pair)) == pinned["separation"]

    def test_thicket_has_no_construction(self):
        fx = FX["split_thicket"]
        r = identify_selected(fx.graph, q("Y", A1="a1", A2="a2"))
        with pytest.raises(OracleError):
            parity_witness(fx.graph, q("Y", A1="a1", A2="a2"), r)


class TestVerify:
    def test_chain_identified_all_match(self):
        r = identify(FX["chain"].graph, q("Y", A="a"))
        rep = verify(FX["chain"].graph, q("Y", A="a"), None, r, trials=30, seed=0)
        assert rep.passed and rep.trials == 30 and not rep.failures

    def test_wrong_estimand_is_refuted(self):
        from selid.identify import Identified

        bogus = Identified(
            eval_none := BaseKernel("p", frozenset("Y"), frozenset())
        )
        rep = verify(FX["backdoor"].graph, q("Y", A="a"), None, bogus, trials=5, seed=0)
        assert rep.status == "refuted"

    def test_kernel_varying_over_a_dropped_context_axis_is_refuted(self):
        # p1 holds M as a context axis; a kernel that ignores M fails the
        # check that it is constant over M on every trial, and raises nothing
        from selid.identify import Identified

        model, _ = compliance_pair()
        bogus = Identified(restrict(BaseKernel("p1", frozenset("Y"), frozenset("A")), {"A": Sym("a")}))
        rep = verify(
            model.graph, q("Y", A="a"), None, bogus, trials=5, seed=0, dag=model.dag, datasets=[("p1", {"M"})]
        )
        assert rep.status == "refuted" and rep.failures == (0, 1, 2, 3, 4)

    @staticmethod
    def batched_cases():
        """``(g, query, r, kw, trials, seed)``: two bogus backdoor estimands,
        one refuted on some trials only and one whose constancy check fails
        on most trials of a batch, every fixture query and the 200
        small-model seeds."""
        from selid.identify import Identified
        from test_random_models import random_selection_model

        a = {"A": Sym("a")}
        no_adjustment = restrict(BaseKernel("p", frozenset("Y"), frozenset("A")), a)
        # p(Y | a) p(a | C) / p(a): constant over C, and right, exactly
        # where A and C are independent
        independent_only = Ratio(
            Product((no_adjustment, restrict(BaseKernel("p", frozenset("A"), frozenset("C")), a))),
            restrict(BaseKernel("p", frozenset("A")), a),
        )
        backdoor = FX["backdoor"].graph
        cases = [(backdoor, q("Y", A="a"), Identified(e), {}, 60, 0) for e in [no_adjustment, independent_only]]
        for fx in FX.values():
            query = parse_query(fx.query, fx.graph.selector)[0]
            r = (identify_selected if fx.graph.selector is not None else identify)(fx.graph, query)
            cases.append((fx.graph, query, r, {"dag": fx.dag}, 12, 1))
        for seed in range(200):
            case = random_selection_model(seed)
            if case is not None:
                dag, proj, query = case
                cases.append((proj, query, identify_selected(proj, query), {"dag": dag}, 3, seed))
        return cases

    def test_batched_failures_equal_trials_run_alone(self):
        # verify(trials=N, seed=s) fails exactly the trials t that fail when
        # run alone as verify(trials=1, seed=s + t)
        refuted = set()
        for g, query, r, kw, trials, seed in self.batched_cases():
            alone = [verify(g, query, g.support, r, trials=1, seed=seed + t, **kw) for t in range(trials)]
            want = tuple(t for t, rep in enumerate(alone) if rep.failures)
            assert verify(g, query, g.support, r, trials=trials, seed=seed, **kw).failures == want, (g, query)
            refuted.add(len(want) if r.kind == "identified" else None)
        assert {0, 57} <= refuted  # the two bogus estimands pass trials 24, 32 and 55 alone

    def test_reports_do_not_depend_on_the_batch_shape(self, monkeypatch):
        # 100 trials as one batch (strided reads), as batches of 9 and a
        # remainder of one, and as batches of 8 (expanded reads) give equal
        # reports on the identified cases, the bogus estimands' batches
        # among them, which fail and run again trial by trial

        class Batches(int):
            """A cell budget that every call divides into batches of its
            own value."""

            def __floordiv__(self, per_trial):
                return int(self)

        for g, query, r, kw, _, seed in self.batched_cases():
            if r.kind != "identified":
                continue
            reports = []
            for size in (100, 9, 8):
                monkeypatch.setattr(oracle, "BATCH_CELLS", Batches(size))
                reports.append(verify(g, query, g.support, r, trials=100, seed=seed, **kw))
            assert reports.count(reports[0]) == len(reports), (g, query)

    def test_report_serializes(self):
        r = identify(FX["chain"].graph, q("Y", A="a"))
        rep = verify(FX["chain"].graph, q("Y", A="a"), None, r, trials=2, seed=0)
        d = rep.to_jsonable()
        assert d["status"] == "verified" and d["trials"] == 2

    @pytest.mark.parametrize(
        "name, query, kind, detail",
        [
            ("bow", q("Y", A="a"), "hedge", "witness total variation 1/2"),
            ("forced_outcome", q("Y"), "positivity", "witness total variation 1"),
            (
                "confounded_selector_hedge",
                q("Y", A="a"),
                "hedge",
                "witness total variation 1/2",
            ),
        ],
        ids=["bow", "forced_outcome", "confounded_selector_hedge"],
    )
    def test_witness_report(self, name, query, kind, detail):
        g = FX[name].graph
        r = identify_selected(g, query)
        assert r.kind == kind
        rep = verify(g, query, g.support, r, trials=100, seed=1)
        assert (rep.status, rep.kind, rep.trials, rep.failures, rep.detail) == (
            "verified",
            kind,
            1,
            (),
            detail,
        )

    def test_witness_models_must_obey_the_model_rules(self, monkeypatch):
        # the bow pair with its latent's rows summing to twice their
        # denominator: both laws double, so they still agree on the observed
        # law and separate the query, but they are not models
        g, query = FX["bow"].graph, q("Y", A="a")
        real = oracle.hedge_witness_pair

        def doubled(*args):
            pair = real(*args)
            for m in pair:
                (u,) = m.graph.latent
                t = m.cpts[u]
                m.cpts[u] = Table(t.axes, t.domains, [2 * x for x in t.values], denom=t.denom)
            return pair

        monkeypatch.setattr(oracle, "hedge_witness_pair", doubled)
        rep = verify(g, query, None, identify(g, query))
        assert (rep.status, rep.trials) == ("unverified", 0)
        assert rep.detail == "no known witness construction separates this hedge shape"
        with pytest.raises(OracleError):
            parity_witness(g, query, identify(g, query))

    def test_a_positivity_pair_that_does_not_separate_says_so(self, monkeypatch):
        # the lone positivity construction reports its own errors and those
        # of validation; a valid pair that does not separate the query is
        # the one case left to the closing reason
        g, query = FX["forced_outcome"].graph, q("Y")
        monkeypatch.setattr(oracle, "_witness_separation", lambda *args: Fraction(0))
        rep = verify(g, query, None, identify_selected(g, query))
        assert (rep.status, rep.trials) == ("unverified", 0)
        assert rep.detail == "the positivity witness pair does not separate the query"

    def test_trials_floor(self):
        r = identify(FX["chain"].graph, q("Y", A="a"))
        with pytest.raises(OracleError):
            verify(FX["chain"].graph, q("Y", A="a"), None, r, trials=0)

    def test_models_are_laid_out_on_the_graphs_support(self):
        # the third argument may only repeat g.support, and a dag must
        # share it
        fx = FX["double_bow"]
        query = q("Y", A="a")
        r = identify_selected(fx.graph, query)
        for support in (None, fx.graph.support):
            assert verify(fx.graph, query, support, r, trials=1, dag=fx.dag).passed
        other = SelectorSupport(frozenset({frozenset({"A"})}))
        for support, dag in ((other, fx.dag), (None, dataclasses.replace(fx.dag, support=other))):
            with pytest.raises(GraphError, match="^verify reads the support from the graph"):
                verify(fx.graph, query, support, r, trials=1, dag=dag)


class TestExactCI:
    def test_chain_ci(self):
        m = random_cs_scm(FX["chain"].graph, seed=10)
        t = joint(m)
        assert exact_ci(t, {"A"}, {"Y"}, {"M"})
        assert not exact_ci(t, {"A"}, {"Y"}, set())


class TestConsistencyLaw:
    def test_unconfounded_intervention_equals_conditioning(self):
        # without confounding, p(Y | do(a)) equals p(Y | A=a) exactly
        m = random_cs_scm(FX["chain"].graph, seed=14)
        t = joint(m)
        cond = t.conditional({"Y"}, {"A"})
        for a in (0, 1):
            truth = interventional(m, {"A": a}).sum_out({"M"})
            for y in (0, 1):
                assert truth.value({"Y": y}) == cond.value({"Y": y, "A": a})

    def test_generator_snapshot(self):
        # the generator is its own oracle; freeze one seeded table
        m = random_cs_scm(FX["chain"].graph, seed=7, domain_size=2)
        t = joint(m)
        assert t.value({"A": 0, "M": 0, "Y": 0}) == Fraction(143, 280)
        assert t.value({"A": 1, "M": 1, "Y": 1}) == Fraction(5, 126)


def brute_law(m, fixed, free, out):
    """The law over ``out`` by a plain product over every vertex: factors of
    ``fixed`` and ``free`` vertices dropped, fixed vertices held at their
    values, free ones ranging over their domains."""
    verts = sorted(m.graph.vertices)
    ranged = [v for v in verts if v not in fixed]
    cpts = cpt_data(m)
    law = collections.defaultdict(Fraction)
    for vals in itertools.product(*(m.domain(v) for v in ranged)):
        asg = dict(fixed)
        asg.update(zip(ranged, vals))
        p = Fraction(1)
        for v in verts:
            if v not in fixed and v not in free:
                axes, data = cpts[v]
                p *= data[tuple(asg[x] for x in axes)]
        law[tuple(asg[a] for a in out)] += p
    return law


def assert_law(t, law):
    assert t.data == dict(law), t.axes


def small_models(domain_size, seeds, max_states):
    """Models on the random selection DAGs of test_random_models, with their
    queries, where a brute-force product has at most ``max_states`` terms."""
    from test_random_models import random_selection_model

    for seed in seeds:
        case = random_selection_model(seed)
        if case is None:
            continue
        dag, _, query = case
        m = random_cs_scm(dag, seed=seed, domain_size=domain_size)
        if math.prod(len(m.domain(v)) for v in m.graph.vertices) <= max_states:
            yield m, query


class TestLawPlans:
    @pytest.mark.parametrize("domain_size, seeds", [(2, range(40)), (3, range(12))])
    def test_laws_equal_brute_force_product(self, domain_size, seeds):
        checked = 0
        for m, query in small_models(domain_size, seeds, 6000):
            sel, obs = m.selector, sorted(m.observed())
            t = joint(m)
            assert_law(t, brute_law(m, {}, (), t.axes))
            # the observational selector value, treatments fixed
            fixed = {v: 1 for v in query.treated}
            t = interventional(m, fixed, SelectorValue())
            assert set(t.axes) == set(obs) - {sel} - set(fixed)
            assert_law(t, brute_law(m, {**fixed, sel: ((), ())}, (), t.axes))
            # stacked over the treatment values, then sliced per binding
            stacked = _query_margin(m, query)
            assert stacked.given == query.treated
            law = brute_law(m, {sel: ((), ())}, query.treated, stacked.axes)
            assert_law(stacked, law)
            for vert_vals, _ in oracle._token_bindings(query, m.sizes):
                want = interventional(m, vert_vals, SelectorValue())
                want = want.sum_out(frozenset(want.axes) - query.outcomes)
                assert equals(_select(stacked, vert_vals), want)
            checked += 1
        assert checked >= 8

    def test_fully_intervened_law_is_one(self):
        fx = FX["frontdoor"]
        m = random_cs_scm(fx.dag or canonical_hidden_dag(fx.graph), seed=3, domain_size=3)
        t = interventional(m, {v: 2 for v in m.observed()})
        # only the latent's factor is left, and it sums to one
        assert t.axes == () and t.data == {(): 1}

    def test_dataset_table_broadcasts_an_axis_no_factor_has(self):
        # Y has no children: once its factor is dropped no factor has its axis
        m = random_cs_scm(FX["chain"].graph, seed=9, domain_size=3)
        t = dataset_table(m, {"Y"})
        assert t.axes[-1] == "Y" and t.given == {"Y"} and len(t.data) == 27
        for y in range(3):
            want = interventional(m, {"Y": y})
            for (a, mv), p in want.data.items():
                assert t.value({"A": a, "M": mv, "Y": y}) == p

    def test_stacked_dataset_equals_one_law_per_value(self):
        fx = FX["double_bow"]
        m = random_cs_scm(fx.dag, seed=5, domain_size=3)
        t = dataset_table(m, {"A"}, SelectorValue())
        assert t.axes[-1] == "A" and t.given == {"A"}
        for a in range(3):
            assert equals(_select(t, {"A": a}), interventional(m, {"A": a}, SelectorValue()))

    @staticmethod
    def _gathered(monkeypatch) -> list:
        """The axis counts of every gather from now on."""
        gathered, real_gather = [], oracle._Operand.gather

        def gather(t, axes, domains):
            gathered.append(len(axes))
            return real_gather(t, axes, domains)

        monkeypatch.setattr(oracle._Operand, "gather", gather)
        return gathered

    def test_intermediate_cells_are_capped(self, monkeypatch):
        # the product over U and its four children has 32 cells, the observed
        # space only 16: the one step of the joint's plan is refused before
        # its inputs are gathered
        kids = ("A", "B", "C", "D")
        g = Graph(
            random=frozenset(("U",) + kids),
            latent=frozenset({"U"}),
            edges=frozenset(directed("U", k) for k in kids),
        )
        m = random_cs_scm(g, seed=0)
        gathered = self._gathered(monkeypatch)
        monkeypatch.setattr(oracle, "MAX_PLAN_CELLS", 31)
        with pytest.raises(OracleError, match="a plan of at least 32 cells per model"):
            joint(m)
        assert gathered == []
        monkeypatch.setattr(oracle, "MAX_PLAN_CELLS", 32)
        assert sum(joint(m).data.values()) == 1

    def test_every_plan_step_is_capped(self, monkeypatch):
        # inputs of 2 and 16 cells, products of 64 and 256: the estimand's
        # six kernels plan 24 cells before its product, and each product is
        # refused before its inputs are gathered over its 6 or 8 axes
        names = [f"X{i}" for i in range(8)]
        tables = {f"p{x}": Table((x,), {x: (0, 1)}, [1, 1], denom=2) for x in names[:6]}
        e = Product(tuple(BaseKernel(f"p{x}", frozenset({x})) for x in names[:6]))
        left, right = (Table(axes, {x: (0, 1) for x in axes}, [1] * 16, denom=16) for axes in (names[:4], names[4:]))
        gathered = self._gathered(monkeypatch)
        monkeypatch.setattr(oracle, "MAX_PLAN_CELLS", 87)
        with pytest.raises(OracleError, match="a plan of at least 88 cells per model exceeds the enumeration cap"):
            eval_estimand(e, tables)
        monkeypatch.setattr(oracle, "MAX_PLAN_CELLS", 255)
        with pytest.raises(OracleError, match="a plan of at least 256 cells per model"):
            left.multiply(right)
        assert 6 not in gathered and 8 not in gathered
        monkeypatch.setattr(oracle, "MAX_PLAN_CELLS", 88)
        assert sum(eval_estimand(e, tables).data.values()) == 1
        monkeypatch.setattr(oracle, "MAX_PLAN_CELLS", 256)
        assert sum(left.multiply(right).data.values()) == 1

    def test_every_plan_is_capped_as_a_whole(self, monkeypatch):
        # a product of 256 cells, eliminated with nothing summed, then a sum
        # that reads them in groups of 2: each step is under the cap, the
        # plan's 512 cells are not, and the sum is refused before its rows
        # are gathered
        names = [f"X{i}" for i in range(8)]
        left, right = (Table(axes, {x: (0, 1) for x in axes}, [1] * 16, denom=16) for axes in (names[:4], names[4:]))
        def build(plan, a, b):
            return plan.sum_out(plan.eliminate([a, b], names), {"X0"})

        gathered = self._gathered(monkeypatch)
        monkeypatch.setattr(oracle, "MAX_PLAN_CELLS", 511)
        with pytest.raises(OracleError, match="a plan of at least 512 cells per model exceeds the enumeration cap"):
            oracle._once([left, right], build)
        assert gathered == [8, 8]  # the product's two inputs alone
        monkeypatch.setattr(oracle, "MAX_PLAN_CELLS", 512)
        assert sum(oracle._once([left, right], build).data.values()) == 1

    def test_verify_compiles_each_plan_once(self, monkeypatch):
        compiled, estimands, layouts = [], [], []
        real_law, real_estimand = oracle._compile_law, oracle._estimand_steps

        class CountedLayout(oracle._ModelLayout):
            def __init__(self, *args):
                layouts.append(args)
                super().__init__(*args)

        def counting(*args):
            compiled.append(args[1:])
            return real_law(*args)

        def counting_estimand(*args):
            estimands.append(args[0])
            return real_estimand(*args)

        monkeypatch.setattr(oracle, "_compile_law", counting)
        monkeypatch.setattr(oracle, "_estimand_steps", counting_estimand)
        monkeypatch.setattr(oracle, "_ModelLayout", CountedLayout)
        fx = FX["selection_web"]
        query = q("Y", A1="a1", A2="a2")
        r = identify_selected(fx.graph, query)
        counts = []
        for trials in (1, 5):
            compiled.clear()
            estimands.clear()
            layouts.clear()
            rep = verify(fx.graph, query, fx.graph.support, r, trials=trials, seed=1, dag=fx.dag)
            assert rep.passed and rep.trials == trials
            counts.append((len(compiled), len(estimands), len(layouts)))
        # the stacked ground truth and the five kernel margins eliminated
        # from the CPTs (no joint); the estimand once; every trial's model
        # drawn on one model layout
        assert counts == [(6, 1, 1), (6, 1, 1)]

    def test_memoized_kernels_equal_direct_conditionals(self, monkeypatch):
        fx = FX["selection_web"]
        r = identify_selected(fx.graph, q("Y", A1="a1", A2="a2"))
        t = joint(random_cs_scm(fx.dag, seed=3))
        # every kernel the compiled plan divides: its table's final shape and
        # the restrictions that picked its rows, keyed by the slot of that shape
        kernels = {}
        real_conditional, real_restrict = oracle._Plan.conditional, oracle._Plan.restrict

        def conditional(self, table, outcome, context, selector=None):
            out = real_conditional(self, table, outcome, context, selector)
            kernels[out.slot] = [outcome, context, out, []]
            return out

        def restrict(self, table, var, val):
            out = real_restrict(self, table, var, val)
            kernel = kernels.pop(table.slot, None)
            if kernel is not None:
                kernel[2] = out
                kernel[3].append((var, val))
                kernels[out.slot] = kernel
            return out

        monkeypatch.setattr(oracle._Plan, "conditional", conditional)
        monkeypatch.setattr(oracle._Plan, "restrict", restrict)
        plan = oracle._compile_estimand(r.estimand, {"p": t})
        monkeypatch.undo()
        assert len(kernels) == 5

        # each distinct margin is summed once, and every kernel divides two
        # of them: its keep margin of the table, and its rest margin summed
        # from that keep; planning them again appends no step
        table, planned = plan.operands[0], len(plan.steps)
        slots = {table.slot}
        for outcome, context, _, _ in kernels.values():
            keep = plan.sum_out(table, frozenset(table.axes) - oracle._kernel_keep(table, outcome, context))
            slots |= {keep.slot, plan.sum_out(keep, outcome).slot}
        assert len(plan.steps) == planned
        sums = [
            s for s in plan.steps
            if s.op is oracle._SUM and len(s.inputs) == 1 and s.inputs[0][0] in slots
        ]
        assert len(sums) == len(slots - {0})
        divides = [s for s in plan.steps if s.op is oracle._DIV]
        assert len(divides) == 5
        assert all(s.inputs[0][0] in slots and s.inputs[1][0] in slots for s in divides)

        restricted = 0
        for outcome, context, shape, restrictions in kernels.values():
            got = _run_to(plan, shape, [t])
            want = Table(t.axes, t.domains, dict(t.data)).conditional(outcome, context)
            for var, val in restrictions:
                want = oracle._once([want], lambda p, a: p.restrict(a, var, val))
            assert equals(got, want)
            restricted += any(isinstance(val, SelectorAssign) for _, val in restrictions)
        assert restricted >= 1

    def test_law_margins_equal_margins_of_the_joint(self):
        # every margin a kernel of an estimand divides, planned from the
        # CPTs as verify plans it, against the same rows of the same margin
        # of the law's table: a margin eliminated over some selector values
        # alone holds the rows at those values
        cases = _identified_cases()
        checked = eliminated = narrowed = 0
        for e, m, datasets in cases:
            sources = {n: oracle._dataset_law(m, z, None) for n, z in datasets.items()}
            plan = _verify_plan(e, m, sources)
            cpts = [m.cpts[v] for v in plan.inputs]
            tables = {name: dataset_table(m, z) for name, z in datasets.items()}
            planned, margins = len(plan.steps), {}
            for k, selector in _kernel_reads(e, sources):
                law = sources[k.name]
                keep = oracle._compile_law(law, oracle._kernel_keep(law, k.outcome, k.context), plan, selector)
                # the kernel's keep margin is eliminated from the CPTs and
                # its rest summed from that keep: planning either again
                # appends no step
                for margin in (keep, plan.sum_out(keep, k.outcome)):
                    margins[margin.slot] = (tables[k.name], margin)
                narrowed += selector is not None
            assert len(plan.steps) == planned
            for table, margin in margins.values():
                want = table.sum_out(frozenset(table.axes) - frozenset(margin.axes))
                got = _run_to(plan, margin, cpts)
                want = Table(got.axes, got.domains, want._read_as(got), denom=want.denom)
                assert equals(got, want), (e, sorted(margin.axes))
                checked += 1
            eliminated += sum(s.op is oracle._SUM and len(s.inputs) > 1 for s in plan.steps)
        assert len(cases) > 100 and checked >= 2 * len(cases) and eliminated and narrowed

    def test_each_law_margin_is_eliminated_once(self, monkeypatch):
        # one elimination pass per law margin: each keep margin of a law,
        # whole or over one pattern's selector values, is planned by
        # _compile_law from the CPTs and never summed from a larger margin;
        # rest margins are summed from their keep, and no margin is planned
        # that no parent reads.  A margin planned again, as a second kernel
        # with the same keep plans it, finds each of its steps by its key:
        # it adds no step and ends in the same slot
        compiled = _compiled_margins(monkeypatch)
        margins = 0
        for e, m, datasets in _identified_cases():
            compiled.clear()
            sources = {n: oracle._dataset_law(m, z, None) for n, z in datasets.items()}
            plan = _verify_plan(e, m, sources)
            keeps = set()
            for k, selector in _kernel_reads(e, sources):
                law = sources[k.name]
                keeps.add((law, oracle._kernel_keep(law, k.outcome, k.context), selector))
            assert set(compiled) == keeps
            planned = len(plan.steps)
            for (law, axes, selector), slot in list(compiled.items()):
                assert oracle._compile_law(law, axes, plan, selector).slot == slot
            assert len(plan.steps) == planned
            margins += len(keeps)
        assert margins > 300

        # the plan of selection_web's estimand keeps its size: its three
        # selector-restricted kernels read 2, 2 and 4 of the selector's 9
        # values (34 steps, 6234 cells, widest 1152 when read over all 9),
        # and its restrictions are views, not steps; it was 37 steps and
        # 3314 cells while a product was planned apart from its sum
        fx = FX["selection_web"]
        r = identify_selected(fx.graph, q("Y", A1="a1", A2="a2"))
        m = random_cs_scm(fx.dag, seed=1)
        plan = _verify_plan(r.estimand, m, {"p": oracle._Law(m, {})})
        cells = [s.cells for s in plan.steps]
        assert (len(cells), sum(cells), max(cells)) == (36, 3024, 512)

    def test_narrowed_kernels_equal_restricted_conditionals(self):
        # a kernel that a Restrict reads over its pattern's selector values
        # alone holds, row for row, the whole conditional restricted
        # afterwards; the two tables may order their axes apart, so each is
        # read in the row order of the other's axes
        checked = 0
        for e, m, datasets in _identified_cases():
            sources = {n: oracle._dataset_law(m, z, None) for n, z in datasets.items()}
            restricts = []
            fold(e, lambda x, _parts: restricts.append(x) if isinstance(x, Restrict) else None)
            for r in restricts:
                k = r.child
                if not isinstance(k, BaseKernel) or oracle._narrowed(sources[k.name], k, r) is None:
                    continue
                plan = oracle._Plan(m.cpts)
                got = oracle._estimand_steps(r, sources, plan)
                want = plan.conditional(sources[k.name], k.outcome, k.context)
                for var, val in r.assignment:
                    want = plan.restrict(want, var, val)
                cpts = [m.cpts[v] for v in plan.inputs]
                a, b = _run_to(plan, got, cpts), _run_to(plan, want, cpts)
                assert set(a.axes) == set(b.axes), r
                assert all(a.domains[x] == b.domains[x] for x in a.axes), r
                assert _rows_as(a, b) == _rows_as(b, b), r
                checked += 1
        assert checked > 100

    def test_kernels_with_a_check_over_the_selector_are_planned_whole(self, monkeypatch):
        # no kernel is narrowed where a check would then cover fewer rows:
        # with the selector among its outcomes its rest sums over the
        # selector, and a law with free axes checks the kernel constant over
        # those it drops; each is planned step for step as the whole kernel
        # restricted afterwards
        def shape(plan) -> list:
            return [(s.op, s.width, s.cells, [(t, list(idx)) for t, idx in s.inputs]) for s in plan.steps]

        a = SelectorValue(frozenset({"A"}), (("A", Sym("a")),))
        bow = random_cs_scm(FX["double_bow"].dag, seed=1)
        scar = random_cs_scm(FX["scar"].graph, seed=1)
        cases = [
            (bow, oracle._Law(bow, {}), BaseKernel("p", {"Y", "S"}, {"A"}), (("A", Sym("a")), ("S", a))),
            (
                scar,
                oracle._Law(scar, {}, frozenset({"C"})),
                BaseKernel("p", {"M"}, {"S", "U2", "A"}),
                (("A", Sym("a")), ("S", SelectorValue())),
            ),
        ]
        compiled = _compiled_margins(monkeypatch)
        for m, law, k, assignment in cases:
            r = Restrict(k, assignment)
            assert oracle._narrowed(law, k, r) is None
            compiled.clear()
            plan = oracle._Plan(m.cpts)
            got = oracle._estimand_steps(r, {"p": law}, plan)
            assert [selector for _, _, selector in compiled] == [None]
            whole = oracle._Plan(m.cpts)
            want = whole.conditional(law, k.outcome, k.context)
            for var, val in r.assignment:
                want = whole.restrict(want, var, val)
            assert shape(plan) == shape(whole) and got.slot == want.slot

    def test_selector_restricted_kernels_are_narrowed(self, monkeypatch):
        # (steps, cells) of each estimand plan, and the number of selector
        # values each narrowed margin reads, against the plan with every
        # kernel eliminated whole
        want = {
            "selection_web": ((36, 3024), [2, 2, 4], (34, 6234)),
            "double_bow": ((5, 52), [2], (5, 76)),
            "scar": ((23, 252), [1], (23, 300)),
        }
        got, real = {}, oracle._narrowed
        compiled = _compiled_margins(monkeypatch)
        for name in want:
            fx = FX[name]
            g = fx.graph
            r = identify_selected(g, parse_query(fx.query, g.selector)[0])
            m = random_cs_scm(fx.dag or g, seed=1)
            plans = []
            for narrowed in (real, lambda *args: None):
                monkeypatch.setattr(oracle, "_narrowed", narrowed)
                compiled.clear()
                plans.append(_verify_plan(r.estimand, m, {"p": oracle._Law(m, {})}))
                if narrowed is real:
                    sizes = sorted(len(selector) for _, _, selector in compiled if selector)
            narrow, whole = ((len(p.steps), sum(s.cells for s in p.steps)) for p in plans)
            got[name] = (narrow, sizes, whole)
        assert got == want

    def test_equal_steps_are_planned_once(self):
        t = Table(("A", "B"), {"A": (0, 1), "B": (0, 1)}, [1, 2, 3, 4], denom=10)
        plan = oracle._Plan(["t"], [t])
        a = plan.sum_out(plan.operands[0], {"B"})
        b = plan.sum_out(plan.operands[0], {"B"})
        c = plan.sum_out(plan.operands[0], {"A"})
        assert a.slot == b.slot != c.slot and len(plan.steps) == 2
        assert equals(plan.finish(b).run([t]), t.sum_out({"B"}))

    def test_each_oracle_call_runs_one_plan(self, monkeypatch):
        # verify plans its estimand, ground truth and comparison as one plan
        # and runs it once per batch of trials, as many trials per batch as
        # keep the batch within BATCH_CELLS; a witness check plans the
        # observed law and the query's slices as one plan, run once per
        # model of the pair
        plans, runs, layouts = [], [], set()
        real_init, real_run, real_draw = oracle._Plan.__init__, oracle._Plan.run_rows, oracle._ModelLayout.draw

        def init(self, *args):
            plans.append(self)
            real_init(self, *args)

        def run_rows(self, inputs, trials):
            runs.append((self, trials))
            return real_run(self, inputs, trials)

        def draw(self, seeds):
            layouts.add(self)
            return real_draw(self, seeds)

        monkeypatch.setattr(oracle._Plan, "__init__", init)
        monkeypatch.setattr(oracle._Plan, "run_rows", run_rows)
        monkeypatch.setattr(oracle._ModelLayout, "draw", draw)
        cases = [("selection_web", q("Y", A1="a1", A2="a2")), ("chain", q("Y", A="a"))]
        for name, query in cases:
            fx = FX[name]
            r = identify_selected(fx.graph, query)
            for trials in (1, 5, 100):
                plans.clear()
                runs.clear()
                layouts.clear()
                assert verify(fx.graph, query, fx.graph.support, r, trials=trials, seed=1, dag=fx.dag).passed
                (plan,), (layout,) = plans, layouts
                cells = sum(s.cells for s in plan.steps)
                size = min(trials, oracle.BATCH_CELLS // max(cells, layout.cells))
                assert size * max(cells, layout.cells) <= oracle.BATCH_CELLS
                assert all(p is plan for p, _ in runs) and len(runs) == math.ceil(trials / size)
                assert [t for _, t in runs[:-1]] == [size] * (len(runs) - 1) and sum(t for _, t in runs) == trials
            if name == "selection_web":
                # the estimand's 36 steps, the truth's and the comparison's,
                # five trials per batch (four while a product was planned
                # apart from its sum, two while every kernel was eliminated
                # over all the selector's values)
                assert (len(plan.steps), cells, size) == (45, 3240, 5)
            else:
                assert size == 100
        for name, query in (("bow", q("Y", A="a")), ("forced_outcome", q("Y"))):
            g = FX[name].graph
            r = identify_selected(g, query)
            plans.clear()
            runs.clear()
            assert verify(g, query, g.support, r, seed=1).passed
            assert len(plans) == 1 and runs == [(plans[0], 1)] * 2

    def test_batches_bound_the_cpts_they_draw(self, monkeypatch):
        # Z, the sink of a star of 6 binary parents, lies outside the
        # query's ancestral set: no step reads its 128-cell CPT, but every
        # batch draws it, so the batch size bounds the models' cells as
        # well as the plan's
        kids = tuple(f"X{i}" for i in range(6))
        edges = frozenset([directed("A", "Y"), *(directed(x, "Z") for x in kids)])
        g = Graph(random=frozenset(kids + ("A", "Y", "Z")), edges=edges)
        query = q("Y", A="a")
        runs, draws = [], []
        real_run, real_draw = oracle._Plan.run_rows, oracle._ModelLayout.draw

        def run_rows(self, inputs, trials):
            runs.append((self, trials))
            return real_run(self, inputs, trials)

        def draw(self, seeds):
            draws.append((self, len(seeds)))
            return real_draw(self, seeds)

        monkeypatch.setattr(oracle._Plan, "run_rows", run_rows)
        monkeypatch.setattr(oracle._ModelLayout, "draw", draw)
        monkeypatch.setattr(oracle, "BATCH_CELLS", 512)
        assert verify(g, query, None, identify(g, query), trials=10, seed=0).passed
        (plan,), (layout,) = {p for p, _ in runs}, {m for m, _ in draws}
        # the plan alone would run all ten trials at once
        cells = sum(len(c.index) for c in layout.cpts)
        assert 10 * sum(s.cells for s in plan.steps) <= 512 < 10 * cells == 1460
        assert [t for _, t in draws] == [t for _, t in runs] == [3, 3, 3, 1]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_reader_reads_the_same_rows(self, data):
        # the first and the second read of a batch, through the reader its
        # size takes and keeps, read each model's rows at idx, on a slot of
        # integers and UNDEF and on its per-row denominators
        trials = data.draw(st.sampled_from([1, 2, 8, 9, 55, 100]))
        size = data.draw(st.integers(1, 12))
        position = st.integers(0, size - 1)
        repeats = st.lists(position, min_size=1, max_size=2 * size)
        idx = data.draw(st.one_of(repeats, position.map(lambda i: [i]), st.just(list(range(size)))))
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        nums = [UNDEF if rng.random() < 0.1 else rng.getrandbits(64) for _ in range(size * trials)]
        dens = [rng.randint(1, 1 << 40) for _ in range(size * trials)]
        cache = {}
        for _ in range(2):
            read = oracle._batch_reader(cache, ("input", trials), idx, size, trials)
            for vec in (nums, dens):
                assert list(read(vec)) == [vec[t * size + i] for t in range(trials) for i in idx]

    def test_a_batch_of_more_than_8_builds_no_index(self, monkeypatch):
        # chain runs its 100 trials as one batch: every step input and every
        # CPT is read as strided slices, and no position index is built
        fx = FX["chain"]
        query = q("Y", A="a")
        r = identify(fx.graph, query)

        def no_index(*args):
            raise AssertionError("a batch of more than 8 built an index")

        monkeypatch.setattr(oracle, "_repeated", no_index)
        assert verify(fx.graph, query, None, r, trials=100, seed=1).passed

    def test_a_batch_of_at_most_8_builds_each_index_once(self, monkeypatch):
        # selection_web runs its 100 trials in 20 batches of 5: each step
        # input's and each CPT's index is built on the first batch, once per
        # call, and kept for the other 19
        built, plans, layouts = collections.Counter(), [], set()
        real_repeated, real_init, real_draw = oracle._repeated, oracle._Plan.__init__, oracle._ModelLayout.draw

        def repeated(idx, size, trials):
            built[id(idx)] += 1
            return real_repeated(idx, size, trials)

        def init(self, *args):
            plans.append(self)
            real_init(self, *args)

        def draw(self, seeds):
            layouts.add(self)
            return real_draw(self, seeds)

        monkeypatch.setattr(oracle, "_repeated", repeated)
        monkeypatch.setattr(oracle._Plan, "__init__", init)
        monkeypatch.setattr(oracle._ModelLayout, "draw", draw)
        fx = FX["selection_web"]
        query = q("Y", A1="a1", A2="a2")
        r = identify_selected(fx.graph, query)
        for _ in range(2):
            built.clear()
            plans.clear()
            layouts.clear()
            assert verify(fx.graph, query, None, r, trials=100, seed=1, dag=fx.dag).passed
            (plan,), (layout,) = plans, layouts
            inputs = [idx for step in plan.steps for _, idx in step.inputs] + [c.index for c in layout.cpts]
            assert set(built.values()) == {1} and set(built) == set(map(id, inputs))

    def test_verify_builds_no_joint(self, monkeypatch):
        fx = FX["selection_web"]
        query = q("Y", A1="a1", A2="a2")
        r = identify_selected(fx.graph, query)
        observed = fx.dag.random - fx.dag.latent
        m = random_cs_scm(fx.dag)
        assert math.prod(len(m.domain(v)) for v in observed) == 2304  # the joint's

        def no_joint(*args):
            raise AssertionError("verify built the joint")

        kept = []
        real_step = oracle._Plan.step

        def step(self, op, operands, axes, domains, given=frozenset(), drop=(), summed=()):
            kept.append((frozenset(axes), math.prod(len(domains[a]) for a in [*axes, *summed])))
            return real_step(self, op, operands, axes, domains, given, drop, summed)

        monkeypatch.setattr(oracle.DiscreteCsScm, "joint", no_joint)
        monkeypatch.setattr(oracle._Law, "table", no_joint)
        monkeypatch.setattr(oracle._Plan, "step", step)
        assert verify(fx.graph, query, fx.graph.support, r, trials=3, seed=1, dag=fx.dag).passed
        assert kept and all(not observed <= axes and cells < 2304 for axes, cells in kept)

    def test_shared_token_binds_one_value(self):
        query = Query(frozenset("Y"), (("A1", Sym("a")), ("A2", Sym("a"))))
        bindings = list(oracle._token_bindings(query, {"A1": 2, "A2": 2}))
        assert bindings == [({"A1": 0, "A2": 0}, {"a": 0}), ({"A1": 1, "A2": 1}, {"a": 1})]


class TestRestrictionViews:
    def test_restrictions_equal_a_row_reference(self):
        # every kind of restriction an estimand reads, as a view of a random
        # table, against the rows of Table.data it picks: a rename, the
        # diagonal with an axis by Sym and by Var, and selector values with
        # observational, Sym, repeated Sym, Var, Lo and literal components;
        # each read from the table, from an operand narrowed to the value's
        # pattern, and after another axis is fixed
        rng = random.Random(23)
        sizes = {"C1": 2, "C2": 3}
        patterns = [frozenset(), frozenset({"C1"}), frozenset({"C2"}), frozenset({"C1", "C2"})]
        kinds = collections.Counter()
        for _ in range(300):
            support = SelectorSupport(frozenset(rng.sample(patterns, rng.randint(1, 4))))
            domains = {"S": selector_domain(support, sizes), "A": (0, 1), "B": (0, 1, 2), "a": (0, 1)}
            axes = ["S", "A", "B"] + ["a"] * (rng.random() < 0.5)
            rng.shuffle(axes)
            cells = math.prod(len(domains[x]) for x in axes)
            t = Table(axes, domains, [rng.randint(0, 9) for _ in range(cells)], denom=97)
            pattern = rng.choice(sorted(support, key=sorted))
            tokens = [(c, [Sym("a"), Sym("b"), Var("A"), Lo(), rng.randrange(sizes[c])]) for c in sorted(pattern)]
            sval = SelectorValue(pattern, tuple((c, rng.choice(toks)) for c, toks in tokens))
            restrictions = [("S", sval), ("A", Sym("z")), ("B", Sym("A")), ("B", Var("A"))]
            if "a" in axes:
                restrictions.append(("B", Sym("a")))
            narrowed = tuple(x for x in domains["S"] if x[0] == tuple(sorted(pattern)))
            for var, val in restrictions:
                for how in ("table", "narrowed", "fixed"):
                    want = (t.axes, t.data)
                    if how == "narrowed":
                        want = (t.axes, {row: v for row, v in t.data.items() if row[axes.index("S")] in narrowed})
                    if how == "fixed" and var != "A":
                        want = _ref_fixed(want, {"A": 1})
                    if var == "S":
                        want = _ref_selector(want, var, val)
                    else:
                        want = _ref_restrict(want, var, _token_name(val))

                    def read(plan, op, var=var, val=val, how=how):
                        if how == "narrowed":
                            op = op.narrowed("S", narrowed)
                        elif how == "fixed" and var != "A":
                            op = op.fixed({"A": 1})
                        return plan.restrict(op, var, val)

                    got = oracle._once([t], read)
                    assert (got.axes, got.data) == want, (axes, var, val, how)
                kinds[_restriction_kind(var, val, axes)] += 1
        assert set(kinds) == {
            "rename", "diagonal", "observational", "Sym", "repeated Sym", "Var", "Lo", "literal"
        }, kinds

    def test_a_selector_layout_that_is_not_a_product_is_refused(self):
        # the values of pattern {C1, C2} listed out of product order
        values = [(("C1", "C2"), v) for v in ((0, 0), (1, 1), (0, 1), (1, 0))]
        t = Table(("S",), {"S": tuple(values)}, [1, 2, 3, 4], denom=10)
        val = SelectorValue(frozenset({"C1", "C2"}), (("C1", Sym("a")), ("C2", Sym("b"))))
        with pytest.raises(OracleError, match="not laid out as a product"):
            oracle._once([t], lambda plan, a: plan.restrict(a, "S", val))

    def test_restrictions_plan_no_step(self, monkeypatch):
        # a restriction reads rows in place: no step is planned while
        # _Plan.restrict or _Operand.fixed runs, on every Restrict of the
        # identified cases, for a law's fixed values (verify's truth) or for
        # a witness check's slices; only finish copies out a result that is
        # a view
        inside, calls = [], collections.Counter()
        real_step = oracle._Plan.step

        def step(self, *args, **kwargs):
            assert not inside, f"{inside[-1]} planned a step"
            return real_step(self, *args, **kwargs)

        def reading(name, real):
            def wrapped(*args):
                inside.append(name)
                calls[name] += 1
                try:
                    return real(*args)
                finally:
                    inside.pop()
            return wrapped

        monkeypatch.setattr(oracle._Plan, "step", step)
        monkeypatch.setattr(oracle._Plan, "restrict", reading("restrict", oracle._Plan.restrict))
        monkeypatch.setattr(oracle._Operand, "fixed", reading("fixed", oracle._Operand.fixed))
        restricts = 0
        for e, m, datasets in _identified_cases():
            sources = {n: oracle._dataset_law(m, z, None) for n, z in datasets.items()}
            _verify_plan(e, m, sources)
            restricts += len([x for x in _nodes(e) if isinstance(x, Restrict)])
        fx, query = FX["selection_web"], q("Y", A1="a1", A2="a2")
        r = identify_selected(fx.graph, query)
        assert verify(fx.graph, query, fx.graph.support, r, trials=2, dag=fx.dag).passed
        bow = FX["bow"].graph
        assert verify(bow, q("Y", A="a"), None, identify(bow, q("Y", A="a"))).passed
        assert restricts > 100 and calls["restrict"] >= restricts and calls["fixed"] > 100, (restricts, calls)


def _nodes(e) -> list:
    """The distinct nodes of ``e``."""
    out = []
    fold(e, lambda x, _parts: out.append(x))
    return out


def _restriction_kind(var, val, axes) -> str:
    """Which kind of restriction ``val`` of ``var`` is on a table over
    ``axes``: a selector value's by its components."""
    if not isinstance(val, SelectorValue):
        return "rename" if _token_name(val) not in axes else "diagonal"
    toks = [tok for _, tok in val.values]
    if not toks:
        return "observational"
    if any(isinstance(tok, Lo) for tok in toks):
        return "Lo"
    if any(isinstance(tok, Var) for tok in toks):
        return "Var"
    syms = [tok for tok in toks if isinstance(tok, Sym)]
    if len(set(syms)) < len(syms):
        return "repeated Sym"
    return "Sym" if syms else "literal"


def _token_name(tok) -> str:
    return tok.name if isinstance(tok, Sym) else tok.vertex


def _ref_fixed(value, fixed: dict):
    """``value`` at the values ``fixed`` gives, without those axes."""
    axes, rows = value
    keep = [i for i, a in enumerate(axes) if a not in fixed]
    picked = {
        tuple(row[i] for i in keep): v
        for row, v in rows.items()
        if all(row[i] == fixed[a] for i, a in enumerate(axes) if a in fixed)
    }
    return tuple(axes[i] for i in keep), picked


def _ref_selector(value, var, val):
    """``value`` with the selector axis ``var`` read at ``val``: the rows of
    its pattern whose components match their tokens.  A component matches
    a literal, ``Lo`` (the lowest value it takes there), or the axis a
    ``Sym`` or ``Var`` names; a token naming no axis becomes a new axis,
    after the others, which a later component with that token matches."""
    axes, rows = value
    i = axes.index(var)
    pattern = tuple(sorted(val.pattern))
    mine = {row: v for row, v in rows.items() if row[i][0] == pattern}
    lowest = [min(row[i][1][k] for row in mine) for k in range(len(pattern))]
    named = [_token_name(tok) for _, tok in val.values if isinstance(tok, (Sym, Var))]
    new = list(dict.fromkeys(n for n in named if n not in axes))
    out = {}
    for row, v in mine.items():
        at, comps = dict(zip(axes, row)), row[i][1]
        bound, ok = {}, True
        for k, (_, tok) in enumerate(val.values):
            if isinstance(tok, (Sym, Var)):
                name = _token_name(tok)
                ok &= comps[k] == (at[name] if name in at else bound.setdefault(name, comps[k]))
            else:
                ok &= comps[k] == (lowest[k] if isinstance(tok, Lo) else tok)
        if ok:
            key = row[:i] + row[i + 1:] + tuple(bound[n] for n in new)
            assert key not in out
            out[key] = v
    return tuple(a for a in axes if a != var) + tuple(new), out


@functools.cache
def _identified_cases() -> list:
    """(estimand, model, {kernel name: intervened vertices}) for every
    identified estimand of the fixtures, of the fused compliance query, and
    of both procedures on the 200 small-model seeds."""
    from test_random_models import random_selection_model

    cases = []
    for fx in FX.values():
        g = fx.graph
        query = parse_query(fx.query, g.selector)[0]
        r = (identify_selected if g.selector is not None else identify)(g, query)
        if r.kind == "identified":
            dag = fx.dag or (canonical_hidden_dag(g) if any(e.kind == "bidirected" for e in g.edges) else g)
            cases.append((r.estimand, random_cs_scm(dag, seed=1), {"p": frozenset()}))
    model, experimental = compliance_pair()
    specs = [DatasetSpec("p1", frozenset(), model.graph), DatasetSpec("p2", frozenset({"M"}), experimental)]
    r = identify_fused(model.graph, specs, q("Y", A="a"))
    cases.append((r.estimand, random_cs_scm(model.dag, seed=1), {"p1": frozenset(), "p2": frozenset({"M"})}))
    for seed in range(200):
        case = random_selection_model(seed)
        if case is not None:
            dag, proj, query = case
            for procedure in (identify_selected, sequential_baseline):
                r = procedure(proj, query)
                if r.kind == "identified":
                    cases.append((r.estimand, random_cs_scm(dag, seed=seed), {"p": frozenset()}))
    return cases


def _kernel_reads(e, sources) -> set:
    """``(kernel, selector values)`` for each way a parent of a base kernel
    of ``e`` reads it, each kernel name read from a law of ``sources``:
    over the values ``oracle._narrowed`` gives, or whole (None)."""
    reads = {(e, None)} if isinstance(e, BaseKernel) else set()

    def visit(x, _parts):
        for k in x.parts():
            if isinstance(k, BaseKernel):
                reads.add((k, oracle._narrowed(sources[k.name], k, x)))

    fold(e, visit)
    return reads


def _per_group(step, nums, dens) -> list:
    """``(numerator, denominator)`` of each group of ``step.width`` cells of
    ``nums`` over ``dens``, reduced group by group.  A group of one cell is
    kept as it is.  A sum is over the group's denominator when it has one,
    else over their least common multiple, and is ``UNDEF`` when the group
    holds ``UNDEF``; ``_SAME`` keeps the first cell when every cell equals
    it by cross-multiplication, or when every cell is ``UNDEF``, and raises
    otherwise."""
    out = []
    for r in range(0, len(nums), step.width):
        ns, ds = nums[r:r + step.width], dens[r:r + step.width]
        if step.width == 1:
            out.append((ns[0], ds[0]))
        elif step.op is oracle._SAME:
            n, d = ns[0], ds[0]
            if n is UNDEF:
                same = all(x is UNDEF for x in ns)
            else:
                same = all(x is not UNDEF and x * d == n * y for x, y in zip(ns, ds))
            if not same:
                raise OracleError("kernel is not constant over context axes")
            out.append((n, d))
        else:
            d = ds[0] if len(set(ds)) == 1 else math.lcm(*ds)
            out.append((UNDEF if any(x is UNDEF for x in ns) else sum(x * (d // y) for x, y in zip(ns, ds)), d))
    return out


def _compiled_margins(monkeypatch) -> dict:
    """``(law, axes, selector values) -> slot`` of each distinct margin
    that ``_compile_law`` plans from now on, in the order first planned."""
    compiled, real = {}, oracle._compile_law

    def counting(law, axes, plan, selector=None):
        out = real(law, axes, plan, selector)
        compiled.setdefault((law, axes, selector), out.slot)
        return out

    monkeypatch.setattr(oracle, "_compile_law", counting)
    return compiled


def _verify_plan(e, m, sources):
    """The plan of ``e`` on the CPTs of ``m``, each kernel name read from a
    law of ``sources``, as ``verify`` plans it."""
    plan = oracle._Plan(m.cpts)
    return plan.finish(oracle._estimand_steps(e, sources, plan))


def _rows_as(t: Table, other: Table) -> tuple:
    """The values and denominators of ``t`` in the row order of ``other``,
    which has the same axes."""
    read = oracle._reader(oracle._Operand(0, t.axes, t.domains).gather(other.axes, other.domains))
    return list(read(t.values)), t.denom if type(t.denom) is int else list(read(t.denom))


def _run_to(plan, out, tables) -> Table:
    """The table ``plan`` makes in the slot of ``out``, run on ``tables``."""
    sub = oracle._Plan(plan.inputs)
    sub.steps = [copy.copy(s) for s in plan.steps[: out.slot - len(plan.inputs) + 1]]
    for s in sub.steps:
        s.release = []
    return sub.finish(out).run(tables)


def _query_margin(m, query) -> Table:
    """The ground truth ``verify`` plans: the query law's margin over the
    outcomes and treatments, stacked over the treatment values."""
    plan = oracle._Plan(m.cpts)
    law = oracle._compile_law(oracle._query_law(m, query), query.outcomes | query.treated, plan)
    return plan.finish(law).run(m.cpts.values())


def _select(t, fixed) -> Table:
    """The rows of ``t`` at the values ``fixed`` gives, without those axes."""
    return oracle._once([t], lambda plan, a: a.fixed(fixed))


# --------------------------------------------------------------------------
# a reference evaluator over Fraction dicts, for the integer arithmetic of
# the plans: a value is (axes, {row value tuple: Fraction or UNDEF})

BITS = ("A", "B", "C", "D")


def _ref_rows(axes):
    return itertools.product((0, 1), repeat=len(axes))


def _ref_sum(value, over):
    axes, rows = value
    keep = tuple(a for a in axes if a not in over)
    out = {}
    for row, v in rows.items():
        key = tuple(x for a, x in zip(axes, row) if a in keep)
        acc = out.get(key, 0)
        out[key] = UNDEF if acc is UNDEF or v is UNDEF else acc + v
    return keep, out


def _ref_mul(a, b):
    if a is UNDEF:
        return 0 if b == 0 else UNDEF
    if b is UNDEF:
        return 0 if a == 0 else UNDEF
    return a * b


def _ref_div(a, b):
    return UNDEF if a is UNDEF or b is UNDEF or b == 0 else a / b


def _ref_pointwise(op, left, right):
    """``op`` of two values row by row; ``right``'s axes are read from each
    row of the union."""
    (la, lrows), (ra, rrows) = left, right
    axes = la + tuple(a for a in ra if a not in la)
    out = {}
    for row in _ref_rows(axes):
        at = dict(zip(axes, row))
        out[row] = op(lrows[tuple(at[a] for a in la)], rrows[tuple(at[a] for a in ra)])
    return axes, out


def _ref_restrict(value, var, name):
    """``value`` with axis ``var`` read at axis ``name``: renamed when
    ``value`` has no axis ``name``, else on the diagonal ``var == name``."""
    axes, rows = value
    if name not in axes:
        return tuple(name if a == var else a for a in axes), rows
    i, j = axes.index(var), axes.index(name)
    keep = tuple(a for a in axes if a != var)
    return keep, {row[:i] + row[i + 1:]: v for row, v in rows.items() if row[i] == row[j]}


def _ref_eval(e, laws):
    if isinstance(e, BaseKernel):
        axes, rows = laws[e.name]
        joint = _ref_sum((axes, rows), frozenset(axes) - e.outcome - e.context)
        return _ref_pointwise(_ref_div, joint, _ref_sum(joint, e.outcome))
    if isinstance(e, SumOver):
        return _ref_sum(_ref_eval(e.child, laws), e.over)
    if isinstance(e, Product):
        value = _ref_eval(e.children[0], laws)
        for c in e.children[1:]:
            value = _ref_pointwise(_ref_mul, value, _ref_eval(c, laws))
        return value
    if isinstance(e, Ratio):
        num, den = _ref_eval(e.num, laws), _ref_eval(e.den, laws)
        assert set(den[0]) <= set(num[0])
        return _ref_pointwise(_ref_div, num, den)
    if isinstance(e, Restrict):
        ((var, tok),) = e.assignment
        return _ref_restrict(_ref_eval(e.child, laws), var, tok.name if isinstance(tok, Sym) else tok.vertex)
    raise TypeError(e)


def _random_law(rng):
    """A law over ``BITS`` as integers over their sum; about half the
    rows have zero mass."""
    weights = [0 if rng.random() < 0.5 else rng.randint(1, 9) for _ in range(16)]
    weights[rng.randrange(16)] += 1
    return weights, sum(weights)


def _random_expression(rng, depth, laws):
    """A random estimand over kernels of the laws ``p`` and ``q``."""
    kind = rng.choice(("kernel", "sum", "sum", "product", "ratio", "ratio", "restrict", "shared"))
    if depth:
        child = _random_expression(rng, depth - 1, laws)
        axes = list(_ref_eval(child, laws)[0])
    if not depth or not axes or kind == "kernel":
        names = rng.sample(BITS, rng.randint(1, 3))
        cut = rng.randint(1, len(names))
        return BaseKernel(rng.choice("pq"), frozenset(names[:cut]), frozenset(names[cut:]))
    if kind == "sum":
        over = frozenset(rng.sample(axes, rng.randint(1, len(axes))))
        return SumOver(child, over)
    if kind == "product":
        return Product((child, _random_expression(rng, depth - 1, laws)))
    if kind in ("restrict", "shared"):
        # one axis read at another of BITS by token: a rename onto a name the
        # child lacks, else the diagonal; "shared" multiplies the restriction
        # with the child it restricts, so two parents read one subtree
        var = rng.choice(axes)
        token = rng.choice((Sym, Var))(rng.choice([b for b in BITS if b != var]))
        restricted = Restrict(child, ((var, token),))
        return restricted if kind == "restrict" else Product((child, restricted))
    # a divisor over some axes of the dividend: one of its margins, a kernel
    # of either law, or a product of the two
    some = rng.sample(axes, rng.randint(1, len(axes)))
    kernel = BaseKernel(rng.choice("pq"), frozenset(some[:1]), frozenset(some[1:]))
    margin = SumOver(child, frozenset(axes) - frozenset(some))
    return Ratio(child, rng.choice((margin, kernel, Product((kernel, margin)))))


class TestExactArithmetic:
    def test_equal_rationals_in_different_terms_are_constant(self):
        # p(Y | Z) reads 1/2 at Z=0 and 2/4 at Z=1 as a divide of two
        # margins, which puts both in lowest terms before the context check;
        # that check compares rows in different terms by cross-multiplication
        # (test_same_reductions_equal_a_per_group_reference)
        axes, dom = ("Z", "Y"), {"Z": (0, 1), "Y": (0, 1)}
        same = Table(axes, dom, [1, 1, 2, 2], given={"Z"}, denom=6)
        got = same.conditional({"Y"}, set())
        assert got.axes == ("Y",) and got.data == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
        other = Table(axes, dom, [1, 1, 1, 2], given={"Z"}, denom=5)
        with pytest.raises(OracleError, match="not constant over context axes"):
            other.conditional({"Y"}, set())

    def test_equals_compares_across_denominators(self):
        dom = {"Y": (0, 1)}
        half = Table(("Y",), dom, [1, 1], denom=2)
        assert equals(half, Table(("Y",), dom, [2, 2], denom=4))
        assert equals(half, Table(("Y",), dom, [Fraction(1, 2), Fraction(2, 4)]))
        assert not equals(half, Table(("Y",), dom, [1, 2], denom=3))
        assert not equals(half, Table(("Y",), dom, [UNDEF, 2], denom=4))
        assert equals(Table(("Y",), dom, [UNDEF, 1], denom=2), Table(("Y",), dom, [UNDEF, 2], denom=4))

    def test_divide_cross_multiplies_different_denominators(self):
        dom = {"Y": (0, 1)}
        num = Table(("Y",), dom, [1, 2], denom=4)
        den = Table(("Y",), dom, [1, 0], denom=3)
        got = oracle._once([num, den], lambda plan, a, b: plan.divide(a, b, frozenset()))
        assert got.data == {(0,): Fraction(3, 4), (1,): UNDEF}

    def test_a_divide_of_two_margins_of_one_law_is_in_lowest_terms(self, monkeypatch):
        # the two margins share the law's denominator, which the divide
        # cancels; each row's numerator and denominator, as the run hands
        # them on before any Fraction is built, are coprime as well
        runs = []
        run_rows = oracle._Plan.run_rows

        def recorded(plan, inputs, trials):
            runs.append(run_rows(plan, inputs, trials))
            return runs[-1]

        monkeypatch.setattr(oracle._Plan, "run_rows", recorded)
        law = joint(random_cs_scm(FX["selection_web"].dag, seed=4))
        outcome, context = frozenset({"Y"}), frozenset({"C", "M", "W1"})
        got = oracle._once([law], lambda plan, t: plan.conditional(t, outcome, context))
        ((nums, dens),) = runs[-1]
        assert len(nums) == 16 and all(n is not UNDEF and math.gcd(n, d) == 1 for n, d in zip(nums, dens))
        axes, want = _ref_eval(BaseKernel("p", outcome, context), {"p": (law.axes, law.data)})
        assert {row: got.value(dict(zip(axes, row))) for row in want} == want

    def test_sum_reductions_equal_a_per_group_reference(self):
        # widths 1-4, with fewer groups than cells per group and more, and
        # enough for strided slices (oracle._strided); one common
        # denominator, or per-row ones equal everywhere, equal within each
        # group, or unequal; with and without UNDEF
        rng = random.Random(16)
        checked, strided = 0, set()
        for width, groups, dens_kind, undef in itertools.product(
            (1, 2, 3, 4), (1, 2, 5, 9, 40), ("common", "equal", "grouped", "unequal"), (False, True)
        ):
            cells = width * groups
            nums = [rng.randint(0, 20) for _ in range(cells)]
            if undef:
                nums[rng.randrange(cells)] = UNDEF
            if dens_kind == "unequal":
                dens = [rng.randint(1, 12) for _ in range(cells)]
            elif dens_kind == "grouped":
                dens = [d for d in (rng.randint(1, 12) for _ in range(groups)) for _ in range(width)]
            else:
                dens = [rng.randint(1, 12)] * cells
            step = oracle._Step(oracle._SUM, [], width, cells, [])
            if width > 1 and oracle._strided(nums, width):
                strided.add(width)
            want = _per_group(step, nums, dens)
            # a run hands the reductions a lazy product, as an iterator
            if dens_kind == "common":
                assert oracle._reduce(step, iter(nums)) == [n for n, _ in want]
            else:
                assert list(zip(*oracle._reduce_rows(step, iter(nums), iter(dens)))) == want
            checked += 1
        assert checked == 160 and strided == {2, 3, 4}

    def test_same_reductions_equal_a_per_group_reference(self):
        rng = random.Random(61)
        for width, groups in itertools.product((2, 3, 4), (1, 2, 5, 9)):
            cells = width * groups
            step = oracle._Step(oracle._SAME, [], width, cells, ["Z"])
            # constant groups: per-row denominators write each group's value
            # in different terms; the last of several groups is all UNDEF
            base = [(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(groups)]
            scale = [rng.randint(1, 4) for _ in range(cells)]
            nums = [base[i // width][0] * scale[i] for i in range(cells)]
            dens = [base[i // width][1] * scale[i] for i in range(cells)]
            common = [base[i // width][0] for i in range(cells)]
            defined = cells - width if groups > 1 else cells
            for vec in (nums, common):
                vec[defined:] = [UNDEF] * (cells - defined)
            assert list(zip(*oracle._reduce_rows(step, nums, dens))) == _per_group(step, nums, dens)
            assert oracle._reduce(step, common) == [n for n, _ in _per_group(step, common, [1] * cells)]
            # one cell off its group's value, or UNDEF in part of a group
            i = rng.randrange(defined)
            for off in (1, UNDEF):
                bad, bad_common = list(nums), list(common)
                bad[i] = off if off is UNDEF else bad[i] + dens[i]
                bad_common[i] = off if off is UNDEF else bad_common[i] + 1
                with pytest.raises(OracleError, match="kernel is not constant over context axes"):
                    oracle._reduce_rows(step, bad, dens)
                with pytest.raises(OracleError, match="kernel is not constant over context axes"):
                    oracle._reduce(step, bad_common)

    def test_a_strided_sum_puts_undef_on_the_groups_that_hold_it(self, monkeypatch):
        # groups of 2-4 cells, 8 per cell of a group, so every sum adds
        # strided slices (oracle._strided, oracle._added), over one
        # denominator and over per-row ones (a table of Fractions)
        added, real = [], oracle._added
        monkeypatch.setattr(oracle, "_added", lambda parts: added.append(len(parts)) or real(parts))
        rng = random.Random(40)
        kinds = set()
        for width, rational in itertools.product((2, 3, 4), (False, True)):
            groups = 8 * width
            cells = [rng.randint(0, 9) for _ in range(groups * width)]
            for i in rng.sample(range(groups * width), groups // 2):
                cells[i] = UNDEF
            if rational:
                cells = [v if v is UNDEF else Fraction(v, rng.randint(1, 6)) for v in cells]
            dom = {"A": tuple(range(groups)), "B": tuple(range(width))}
            t = Table(("A", "B"), dom, cells, denom=1 if rational else 7)
            got = t.sum_out({"B"})
            assert added[-1] == width
            for a in dom["A"]:
                group = [t.value({"A": a, "B": b}) for b in dom["B"]]
                value = got.value({"A": a})
                if any(v is UNDEF for v in group):
                    assert value is UNDEF, (width, rational, a)
                else:
                    assert value is not UNDEF and value == sum(group), (width, rational, a)
                kinds.add(value is UNDEF)
        assert len(added) == 6 and kinds == {False, True}

    def test_equal_rows_match_undef_with_undef_alone(self):
        # the rows UNDEF, 1/2, 0 over one denominator, another, and per-row
        # ones are equal in every pairing; UNDEF on one side only, in place
        # of a value or of 0 (where UNDEF * 0 = 0 must not make them equal),
        # is not
        forms = [([UNDEF, 1, 0], 2), ([UNDEF, 2, 0], 4), ([UNDEF, 3, 0], [5, 6, 7]), ([UNDEF, 1, 0], [3, 2, 1])]
        for a, (q, dq) in itertools.product(forms, repeat=2):
            assert oracle._equal_rows(a, (q, dq)), (a, q, dq)
            for bad in ([0] + q[1:], q[:2] + [UNDEF], [UNDEF] * 3):
                assert not oracle._equal_rows(a, (bad, dq)), (a, bad, dq)
                assert not oracle._equal_rows((bad, dq), a), (a, bad, dq)

    def test_a_step_reads_one_row_as_a_row(self):
        # operator.itemgetter of one index returns the value, not a row
        vec = [5, 6, 7, 8, 9]
        for idx in ([3], [0, 1, 2], [1, 3], [4, 2, 0], [2, 2], [0, 0, 1], [4, 1, 3]):
            assert list(oracle._reader(idx)(vec)) == [vec[i] for i in idx], idx
        t = Table(("A", "B"), {"A": (0, 1), "B": (0, 1, 2)}, [1, 2, 3, 4, 5, 6], denom=21)
        one = oracle._once([t], lambda plan, a: a.fixed({"A": 1, "B": 2}))
        assert (one.axes, one.values, one.denom) == ((), [6], 21)
        # a row over a per-row denominator, read alone from a divide
        def build(plan, a, b):
            ratio = plan.divide(a.fixed({"A": 0}), b.fixed({"A": 1}), frozenset())
            return plan.eliminate([ratio.fixed({"B": 1}), ratio.fixed({"B": 1})], ())
        assert oracle._once([t, t], build).data == {(): Fraction(4, 25)}

    def test_total_variation_across_denominators(self):
        dom = {"Y": (0, 1)}
        quarter = Table(("Y",), dom, [1, 3], denom=4)
        half = Table(("Y",), dom, [Fraction(1, 2), Fraction(1, 2)])
        assert quarter.total_variation(half) == Fraction(1, 4)
        assert half.total_variation(Table(("Y",), dom, [3, 3], denom=6)) == 0

    def test_plans_agree_with_a_fraction_reference(self):
        rng = random.Random(2024)
        undefined = 0
        for _ in range(250):
            tables, laws = {}, {}
            for name in "pq":
                weights, total = _random_law(rng)
                tables[name] = Table(BITS, {a: (0, 1) for a in BITS}, weights, denom=total)
                laws[name] = (BITS, {row: Fraction(w, total) for row, w in zip(_ref_rows(BITS), weights)})
            e = _random_expression(rng, 3, laws)
            axes, want = _ref_eval(e, laws)
            got = eval_estimand(e, tables)
            assert set(got.axes) == set(axes)
            for row, v in want.items():
                value = got.value(dict(zip(axes, row)))
                assert value is v if v is UNDEF else value == v
            undefined += not defined_everywhere(got)
        assert 20 < undefined < 230

    def test_sums_of_products_equal_a_cell_by_cell_enumeration(self, monkeypatch):
        # SumOver(Product(kernels)) is planned by one _Plan.eliminate call,
        # which sums an axis out of the factors that hold it before it
        # multiplies the rest; against every cell of the product, enumerated
        # and summed here.  Zero rows of the laws make kernels read 0 at some
        # cells and UNDEF at zero-mass contexts, and an UNDEF cell of a law
        # makes every kernel row that reads it UNDEF, so UNDEF * 0 = 0 and
        # UNDEF * x = UNDEF both occur
        rng = random.Random(35)
        calls, seen = [], collections.Counter()
        real = oracle._Plan.eliminate

        def eliminate(plan, factors, out_axes, free={}):
            before = len(plan.steps)
            out = real(plan, factors, out_axes, free)
            calls.append((len(factors), len(plan.steps) - before))
            return out

        monkeypatch.setattr(oracle._Plan, "eliminate", eliminate)
        for _ in range(200):
            tables, laws = {}, {}
            for name in "pq":
                weights, total = _random_law(rng)
                if rng.random() < 0.3:
                    weights[rng.randrange(16)] = UNDEF
                    total = sum(w for w in weights if w is not UNDEF) or 1
                tables[name] = Table(BITS, {a: (0, 1) for a in BITS}, weights, denom=total)
                rows = (w if w is UNDEF else Fraction(w, total) for w in weights)
                laws[name] = (BITS, dict(zip(_ref_rows(BITS), rows)))
            kernels = []
            for _ in range(rng.randint(2, 4)):
                names = rng.sample(BITS, rng.randint(1, 3))
                cut = rng.randint(1, len(names))
                kernels.append(BaseKernel(rng.choice("pq"), frozenset(names[:cut]), frozenset(names[cut:])))
            axes = sorted(frozenset().union(*(k.outcome | k.context for k in kernels)))
            over = frozenset(rng.sample(axes, rng.randint(1, len(axes))))
            calls.clear()
            got = eval_estimand(SumOver(Product(tuple(kernels)), over), tables)
            # the product's one call, then the sum read whole: no step
            (factors, made), *rest = calls
            assert factors == len(kernels) and rest == [(1, 0)]
            seen["steps", min(made, 2)] += 1
            values = [_ref_eval(k, laws) for k in kernels]
            keep = tuple(a for a in axes if a not in over)
            want = dict.fromkeys(_ref_rows(keep), 0)
            for row in _ref_rows(axes):
                at = dict(zip(axes, row))
                factors = [rows[tuple(at[a] for a in ax)] for ax, rows in values]
                cell = functools.reduce(_ref_mul, factors, 1)
                if any(f is UNDEF for f in factors):
                    seen["UNDEF * x" if cell is UNDEF else "UNDEF * 0"] += 1
                key = tuple(at[a] for a in keep)
                want[key] = UNDEF if want[key] is UNDEF or cell is UNDEF else want[key] + cell
            assert set(got.axes) == set(keep)
            for key, v in want.items():
                value = got.value(dict(zip(keep, key)))
                assert value is v if v is UNDEF else value == v, (kernels, over, key)
        # some sums pull a factor out (a step before the last), some are one
        # step, and both UNDEF products occur
        assert seen["steps", 2] > 20 and seen["steps", 1] > 20, seen
        assert seen["UNDEF * 0"] > 20 and seen["UNDEF * x"] > 20, seen

    def test_estimand_plan_builds_one_fraction_per_output_row(self, monkeypatch):
        fx = FX["selection_web"]
        r = identify_selected(fx.graph, q("Y", A1="a1", A2="a2"))
        t = joint(random_cs_scm(fx.dag, seed=0))
        plan = oracle._compile_estimand(r.estimand, {"p": t})
        built = []

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(oracle, "Fraction", Counted)
        out = plan.run([t])
        monkeypatch.undo()
        assert len(out.values) == 8 and len(built) <= len(out.values), len(built)
        assert equals(out, eval_estimand(r.estimand, {"p": t}))
        # a law's integers are read as they are, without a scan or a copy
        assert oracle._rows(t)[0] is t.values
