import gc
import hashlib
import itertools
import weakref
from fractions import Fraction

import pytest

from selid.estimand import (
    BaseKernel,
    ChainKernel,
    EstimandError,
    Product,
    Ratio,
    Restrict,
    SelectorAssign,
    SumOver,
    Sym,
    Var,
    fold,
    from_jsonable,
    marginalize,
    normal_form,
    parse,
    render,
    restrict,
    sort_key,
    substitute_base,
    to_jsonable,
)
from selid.graph import NotFixableError
from selid.projection import canonical_hidden_dag
from selid.oracle import Table, _compile_estimand, eval_estimand, joint, random_cs_scm

from fixture_graphs import all_fixtures
from reference import condition, equals, fix_kernel, project_constant

FX = all_fixtures()


def k(outs, ctx=()):
    return BaseKernel("p", frozenset(outs), frozenset(ctx))


def generic_fixing(e, g, target):
    """The generic reference for ``ChainKernel.fix_to``: ``fix_kernel`` along
    the fixing sequence ``g.reachable(target)``.  Returns the pair (kernel,
    graph), or None when the target is not reachable."""
    seq = g.reachable(target)
    if seq is None:
        return None
    for v in seq:
        e, g = fix_kernel(e, g, v), g.fix(v)
    return e, g


class TestOperators:
    def test_marginalize_base(self):
        e = normal_form(marginalize(k("AY"), {"A"}))
        assert e == k("Y")

    def test_marginalize_empty_identity(self):
        e = k("AY")
        assert marginalize(e, set()) is e

    def test_marginalize_scope_error(self):
        with pytest.raises(EstimandError):
            marginalize(k("Y"), {"A"})

    def test_condition(self):
        e = normal_form(condition(k("AY"), {"A"}))
        assert e == k("Y", "A")

    def test_condition_empty_identity(self):
        e = k("AY")
        assert condition(e, set()) is e

    def test_restrict_and_identity(self):
        e = restrict(k("Y", "A"), {"A": Sym("a")})
        assert isinstance(e, Restrict)
        assert restrict(k("Y"), {}) == k("Y")

    def test_restrict_drops_out_of_scope(self):
        e = restrict(k("Y"), {"A": Sym("a")})
        assert e == k("Y")


class TestFixKernel:
    def test_chain_fix_childless_is_margin(self):
        g = FX["chain"].graph
        e = normal_form(fix_kernel(k("AMY"), g, "Y"))
        assert e == k("AM")

    def test_frontdoor_fix_to_mediator(self):
        g = FX["frontdoor"].graph
        e, g2 = generic_fixing(k("AMY"), g, {"M"})
        assert normal_form(e) == k("M", "A")
        assert g2.fixed == {"A", "Y"}

    def test_bow_fix_unfixable_carries_witness(self):
        g = FX["bow"].graph
        fix_kernel(k("AY"), g, "Y")  # fine
        with pytest.raises(NotFixableError) as exc:
            fix_kernel(k("AY"), g, "A")
        assert exc.value.witness == {"A", "Y"}

    def test_fix_sequence_whole_set_identity(self):
        g = FX["chain"].graph
        e, g2 = generic_fixing(k("AMY"), g, {"A", "M", "Y"})
        assert e == k("AMY") and g2 == g

    def test_fix_sequence_unreachable(self):
        g = FX["bow"].graph
        assert generic_fixing(k("AY"), g, {"Y"}) is None
        assert g.reachable_closure({"Y"}) == {"A", "Y"}

    def test_chain_fix_to_unreachable_stops_at_closure(self):
        # nothing outside {Y} is fixable in the bow: the kernel stays unfixed
        g = FX["bow"].graph
        kernel = ChainKernel.from_joint(g).fix_to({"Y"})
        assert kernel.randoms == {"A", "Y"} and kernel.graph == g
        assert normal_form(kernel.expr()) == k("AY")

    def test_chain_kernel_matches_generic_fixing(self):
        # structured and generic fixing agree numerically on every
        # selector-free fixture and every reachable target
        checked = 0
        for name in ("backdoor", "bow", "chain", "compliance_pair", "frontdoor"):
            g = FX[name].graph
            dag = FX[name].dag or canonical_hidden_dag(g)
            joint_kernel = ChainKernel.from_joint(g)
            members = sorted(g.random)
            targets = [
                frozenset(r)
                for n in range(1, len(members) + 1)
                for r in itertools.combinations(members, n)
                if g.reachable(r) is not None
            ]
            for seed in range(5):
                tables = {"p": joint(random_cs_scm(dag, seed=11 + seed))}
                for r in targets:
                    chainized = eval_estimand(
                        normal_form(joint_kernel.fix_to(r).expr()), tables
                    )
                    generic, _ = generic_fixing(k(g.random), g, r)
                    generic = eval_estimand(normal_form(generic), tables)
                    # the generic kernel may keep fixed context axes it does
                    # not depend on, e.g. Σ_Y p(A,C,Y) / p(A|C) against p(C)
                    generic = project_constant(
                        generic, frozenset(generic.axes) - frozenset(chainized.axes)
                    )
                    assert equals(chainized, generic), (name, sorted(r), seed)
                    checked += 1
        assert checked == 5 * 29

    def test_selection_web_closure_kernel(self):
        g = FX["selection_web"].graph
        kernel = ChainKernel.from_joint(g).fix_to({"M", "A1"})
        assert normal_form(kernel.expr()) == BaseKernel(
            "p", frozenset({"M", "A1"}), frozenset({"S"})
        )


class TestNormalForm:
    def test_ratio_of_margin_is_conditional(self):
        e = Ratio(k("AY"), k("A"))
        assert normal_form(e) == k("Y", "A")

    def test_product_reordering_invariance(self):
        a, b = k("A"), k("Y", "A")
        assert normal_form(Product((a, b))) == normal_form(Product((b, a)))

    def test_product_cancellation(self):
        e = Ratio(Product((k("A"), k("Y", "A"))), k("A"))
        assert normal_form(e) == k("Y", "A")

    def test_joint_merge_of_root_chain(self):
        e = Product((k("A"), k("W", "A")))
        assert normal_form(e) == k("AW")

    def test_conditional_product_not_merged(self):
        e = Product(
            (
                restrict(k("M", "A"), {"A": Sym("a")}),
                restrict(k("Y", {"M", "A"}), {"A": Sym("a")}),
            )
        )
        assert isinstance(normal_form(e), Product)

    def test_vacuous_restriction_dropped(self):
        e = Restrict(k("C"), (("S", SelectorAssign(frozenset(), ())),))
        assert normal_form(e) == k("C")

    def test_sum_pulls_constant_factors(self):
        e = SumOver(Product((k("C"), k("Y", "M"))), frozenset({"M"}))
        n = normal_form(e)
        assert isinstance(n, Product)

    def test_product_drops_a_unit_sum(self):
        # Σ_V p(V) = 1 wherever it is defined
        e = Product((k("Y", "X"), SumOver(k("V"), frozenset({"V"}))))
        assert normal_form(e) == k("Y", "X")


class TestRenderAndJson:
    def test_text_restriction_rendering(self):
        e = restrict(k("Y", {"A", "S"}), {
            "A": Sym("a"),
            "S": SelectorAssign(frozenset({"A"}), (("A", Sym("a")),)),
        })
        assert render(e) == "p(Y | A=a, S=(e_A=1, v_A=a))"

    def test_latex_restriction_of_a_sum(self):
        inner = SumOver(Product((k("M", {"A1"}), k("Y", {"M", "A1"}))), frozenset({"M"}))
        e = Restrict(inner, (("A1", Sym("a1")),))
        assert render(e, "latex") == (
            r"\left[\left(\sum_{M} p(M \mid A_{1}) p(Y \mid A_{1}, M)\right)\right]_{A_{1}=a_{1}}"
        )
        assert render(e) == "[(Σ_{M} p(M | A1) p(Y | A1, M))]@{A1=a1}"

    def test_latex_ratio_is_a_fraction(self):
        e = Ratio(k("AY"), SumOver(k("AY"), frozenset({"Y"})))
        assert render(e, "latex") == r"\frac{p(A, Y)}{\sum_{Y} p(A, Y)}"
        assert render(e) == "p(A, Y) / (Σ_{Y} p(A, Y))"

    def test_latex_sum_inside_a_product(self):
        e = Product((k("C"), SumOver(Product((k("M", "A"), k("Y", "M"))), frozenset({"M"}))))
        assert render(e, "latex") == r"p(C) \left(\sum_{M} p(M \mid A) p(Y \mid M)\right)"
        assert render(e) == "p(C) (Σ_{M} p(M | A) p(Y | M))"

    def test_json_round_trip(self):
        g = FX["selection_web"].graph
        kernel = ChainKernel.from_joint(g).fix_to({"M", "A1"}).expr()
        e = normal_form(
            restrict(
                kernel,
                {"S": SelectorAssign(frozenset({"A1"}), (("A1", Sym("a1")),))},
            )
        )
        assert parse(render(e, "json")) == e

    def test_marginal_json_reads_as_a_sum(self):
        # the node kind "marginal" of earlier versions is the same sum
        text = '{"child":{"context":[],"kind":"base","name":"p","outcome":["A","Y"]},"kind":"marginal","over":["A"]}'
        assert parse(text) == SumOver(k("AY"), frozenset({"A"}))
        assert render(parse(text), "json") == text.replace('"marginal"', '"sum"')

    def test_json_round_trip_all_nodes(self):
        e = SumOver(
            Product(
                (
                    Ratio(k("AY"), k("A")),
                    SumOver(k("MC"), frozenset({"C"})),
                    restrict(k("Y", "W"), {"W": Var("W2")}),
                )
            ),
            frozenset({"M"}),
        )
        assert from_jsonable(to_jsonable(e)) == e

    def test_structural_equality(self):
        a = Ratio(k("AY"), k("A"))
        b = k("Y", "A")
        assert normal_form(a) == normal_form(b)


class TestNumericAgreement:
    def test_margin_matches_table(self):
        m = random_cs_scm(FX["chain"].graph, seed=5)
        t = joint(m)
        e = normal_form(marginalize(k("AMY"), {"M", "Y"}))
        got = eval_estimand(e, {"p": t})
        want = t.sum_out({"M", "Y"})
        assert equals(want, got)

    def test_adjustment_differs_from_conditional(self):
        # with confounding, sum_C p(Y | a, C) p(C) != p(Y | a)
        m = random_cs_scm(FX["backdoor"].graph, seed=9)
        t = joint(m)
        adj = SumOver(Product((k("C"), k("Y", {"A", "C"}))), frozenset({"C"}))
        got = eval_estimand(adj, {"p": t})
        cond = eval_estimand(k("Y", "A"), {"p": t})
        assert not equals(got, cond)

    def test_condition_times_margin_reconstructs(self):
        m = random_cs_scm(FX["chain"].graph, seed=13)
        t = joint(m)
        e = Product((normal_form(condition(k("AMY"), {"A"})), k("A")))
        assert equals(eval_estimand(normal_form(e), {"p": t}), t)

    def test_normalization_of_fixed_kernels(self):
        g = FX["frontdoor"].graph
        kernel = normal_form(ChainKernel.from_joint(g).fix_to({"M"}).expr())
        m = random_cs_scm(canonical_hidden_dag(g), seed=3)
        got = eval_estimand(kernel, {"p": joint(m)})
        for a in (0, 1):
            s = sum(
                got.value({"M": mv, "A": a}) for mv in (0, 1)
            )
            assert s == Fraction(1)


def conditioning_tower(depth: int):
    """p(X0..X{depth-1}, Y) conditioned on X0, then X1, ...: each level is
    ``Ratio(e, SumOver(e, ...))`` over the level below, so the tree has
    about 2**(depth+1) nodes but only 2*depth + 1 distinct ones."""
    xs = [f"X{i}" for i in range(depth)]
    outs = frozenset(xs) | {"Y"}
    e = BaseKernel("p", outs)
    for x in xs:
        e = Ratio(e, SumOver(e, outs - {x}))
        outs = outs - {x}
    return e, frozenset(xs)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _tree_sort_key(e):
    """``sort_key`` of a tower node, walked as a tree with no memo."""
    if isinstance(e, BaseKernel):
        return ("base", e.name, sorted(e.outcome), sorted(e.context))
    if isinstance(e, SumOver):
        return ("sum", sorted(e.over), _tree_sort_key(e.child))
    assert isinstance(e, Ratio)
    return ("ratio", _tree_sort_key(e.num), _tree_sort_key(e.den))


class TestSharedSubtrees:
    # sha256 prefixes of render(substitute_base(e)), recorded from the
    # tree-walking implementation
    SUBSTITUTED = {
        1: "9c8d4044686f6223", 2: "aac63ffa44edf233", 3: "249d630c194b7f7e",
        4: "dcc5c9c08599d043", 5: "4ac87c2b09192c5c", 6: "b6d7ce8dc119f9dd",
    }

    def test_small_towers_match_recorded_values(self):
        e, _ = conditioning_tower(2)
        assert render(e) == (
            "p(X0, X1, Y) / (Σ_{X1, Y} p(X0, X1, Y)) / "
            "(Σ_{Y} p(X0, X1, Y) / (Σ_{X1, Y} p(X0, X1, Y)))"
        )
        for depth in range(1, 7):
            e, xs = conditioning_tower(depth)
            q = BaseKernel("q", xs | {"Y", "Z"})
            sub = substitute_base(e, "p", q)
            assert e.free_vars() == xs | {"Y"}
            assert e.outcomes() == frozenset({"Y"})
            assert sort_key(e) == _tree_sort_key(e)
            assert _digest(render(sub)) == self.SUBSTITUTED[depth]
            assert normal_form(e) == BaseKernel("p", frozenset({"Y"}), xs)
            assert normal_form(sub) == BaseKernel("q", frozenset({"Y"}), xs)

    def test_deep_tower_visits_each_node_once(self):
        # more than 2**30 tree nodes, 61 distinct ones
        e, xs = conditioning_tower(30)
        assert e.free_vars() == xs | {"Y"}
        assert sort_key(e)[0] == "ratio"
        assert normal_form(e) == BaseKernel("p", frozenset({"Y"}), xs)
        q = BaseKernel("q", xs | {"Y", "Z"})
        sub = substitute_base(e, "p", q)
        assert sub.free_vars() == xs | {"Y"}
        assert normal_form(sub) == BaseKernel("q", frozenset({"Y"}), xs)

    def test_fold_frees_its_results_without_the_cyclic_collector(self):
        class Result:
            pass

        refs = []

        def visit(x, parts):
            out = Result()
            refs.append(weakref.ref(out))
            return out

        e = Product((k("A"), k("B"), k("C")))
        gc.disable()
        try:
            fold(e, visit)
            assert len(refs) == 4 and all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_tower_plan_is_linear_in_depth(self):
        # the shared level below each ratio is planned once, not once per
        # reference (which would take about 2**depth steps)
        depth = 12
        e, xs = conditioning_tower(depth)
        axes = sorted(xs) + ["Y"]
        rows = itertools.product((0, 1), repeat=len(axes))
        t = Table(axes, {a: (0, 1) for a in axes}, {r: 1 + sum(r) * (1 + r[0]) for r in rows})
        plan = _compile_estimand(e, {"p": t})
        assert len(plan.steps) <= 3 * depth + 3
        assert equals(plan.run([t]), t.conditional({"Y"}, xs))
