"""The benchmark (bench/) drives selid from outside: the tracer wraps
functions and methods named by string and reads two hooks of their results,
and the sweep builds its graphs with bench/workloads.py.  A refactor that
breaks one of these must fail here rather than in a benchmark run."""

import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest

import selid
from selid.estimand import BaseKernel, ChainKernel, Estimand, Product, Restrict, SumOver
from selid.fixtures import all_fixtures

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
MODULES = ("graph", "estimand", "identify", "projection", "lsg", "oracle", "cli")


def _load(name: str):
    """A bench/ module, loaded by path (it is not a package)."""
    full = f"selid_bench_{name}"
    spec = importlib.util.spec_from_file_location(full, BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[full] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def _module(short: str):
    return importlib.import_module(f"selid.{short}")


def test_traced_names_exist():
    tr = _load("tracer")
    missing = [
        f"{mod}.{fname}"
        for entries in tr.FUNCTIONS.values()
        for mod, fname, _ in entries
        if not callable(getattr(_module(mod), fname, None))
    ]
    # the tracer rebinds methods through the class's own __dict__
    missing += [
        f"{mod}.{cls}.{meth}"
        for entries in tr.METHODS.values()
        for mod, cls, meth, _ in entries
        if meth not in vars(getattr(_module(mod), cls, object))
    ]
    assert not missing


def test_instrument_binds_every_name():
    tr = _load("tracer")
    # prepares the wrappers without putting them in place
    tr.instrument(tr.Tracer(), {m: _module(m) for m in MODULES})


def _is_chain(e: Estimand) -> bool:
    """A product of single-vertex conditionals, restricted or not."""
    parts = e.children if isinstance(e, Product) else (e,)
    for c in parts:
        if isinstance(c, Restrict):
            c = c.child
        if not (isinstance(c, BaseKernel) and len(c.outcome) == 1):
            return False
    return True


def test_chain_fix_results_always_have_factors():
    # the tracer counts estimand.chain_degraded as results with factors
    # None, which no kernel has: each maps every random vertex to a factor,
    # also once a step has left a block that is not a chain conditional
    chain = blocks = 0
    for fx in all_fixtures().values():
        k = ChainKernel.from_joint(fx.graph)
        while True:
            fixable = [v for v in sorted(k.randoms) if k.graph.is_fixable(v)]
            if not fixable:
                break
            k = k.fix(fixable[0])
            assert k.factors is not None and set(k.factors) == k.randoms, fx.name
            chain += _is_chain(k.expr())
            blocks += not _is_chain(k.expr())
    assert chain and blocks


def test_outcomes_counter_sees_every_node_class():
    # the tracer counts estimand.outcomes by rebinding each class's own
    # "outcomes" entry, cached or not
    estimand = _module("estimand")
    nodes = [
        c for c in vars(estimand).values()
        if isinstance(c, type) and issubclass(c, Estimand) and c is not Estimand
    ]
    assert nodes and all("outcomes" in vars(c) for c in nodes)
    tr = _load("tracer")
    t = tr.Tracer()
    rebinding = tr.instrument(t, {m: _module(m) for m in MODULES})
    e = SumOver(BaseKernel("p", frozenset({"X", "Y"})), frozenset({"X"}))
    rebinding.enable()
    try:
        assert e.outcomes() == frozenset({"Y"})
    finally:
        rebinding.disable()
    assert t.counts["estimand.outcomes"] == 2  # the sum and its child
    assert "estimand.outcomes" not in t.spans


def test_sequential_baseline_returns_on_a_shared_kernel_case():
    # identify_sweep n=16 seed 4: the baseline substitutes a law whose
    # kernels share subtrees; walking them as trees took minutes
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    dag, obs, query = _load("workloads").sweep_case(S, 16, 4)
    proj = S.projection.latent_project(S.projection.derive_labels(dag), obs)
    start = time.perf_counter()
    baseline = S.identify.sequential_baseline(proj, query)
    assert time.perf_counter() - start < 10
    if baseline.kind == "identified":
        assert S.identify.identify_selected(proj, query).kind == "identified"


def test_sequential_baseline_never_beats_identify_selected():
    # dominance on the 32 identify_sweep cases: the two-stage baseline
    # identifies no query that the one-shot procedure does not
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    workloads = _load("workloads")
    identified = 0
    for n in workloads.SWEEP_SIZES:
        for seed in range(workloads.SWEEP_SEEDS_PER_SIZE):
            dag, obs, query = workloads.sweep_case(S, n, seed)
            proj = S.projection.latent_project(S.projection.derive_labels(dag), obs)
            if S.identify.sequential_baseline(proj, query).kind == "identified":
                assert S.identify.identify_selected(proj, query).kind == "identified", (n, seed)
                identified += 1
    assert identified


def test_identify_sweep_fixes_each_step_once(monkeypatch):
    # every fix_to call fixes in one working state and builds at most one
    # graph, its result, from the joint of the ancestral margin
    # An(Y* ∪ {S}); the 32 identify_sweep cases take 137 fix_to calls and
    # 1124 steps, and build no graph through Graph.fix.  3 steps are not
    # clean: 2 rewrite their district's factors into a block, and 1 drops
    # the factor of a district {v} (before blocks, 4 steps were on a kernel
    # that had left chain form).  Before, each step built a graph through Graph.fix: 4241
    # without sharing, and 745 with a memo that shared the steps of the
    # districts' common prefix while keeping every kernel of the query
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    workloads = _load("workloads")
    steps, not_clean, block_steps, built, graph_fixes = [], [], [], [], []
    per_call = []  # graphs built by fixing, one entry per fix_to call
    real_step = S.estimand._Walk.step
    real_graph = S.graph.FixState.graph
    real_fix_to = S.estimand.ChainKernel.fix_to
    real_fix = S.graph.Graph.fix

    def counted_step(walk, v):
        before = dict(walk.factors)
        if not walk.is_clean(v):
            not_clean.append(v)
        real_step(walk, v)
        steps.append(v)
        if any(f is not before[w] for w, f in walk.factors.items()):
            block_steps.append(v)

    def counted_graph(state):
        if state.done:
            built.append(state)
        return real_graph(state)

    def counted_fix_to(k, *args):
        before = len(built)
        out = real_fix_to(k, *args)
        per_call.append(len(built) - before)
        return out

    def counted_fix(g, v):
        graph_fixes.append(v)
        return real_fix(g, v)

    monkeypatch.setattr(S.estimand._Walk, "step", counted_step)
    monkeypatch.setattr(S.graph.FixState, "graph", counted_graph)
    monkeypatch.setattr(S.estimand.ChainKernel, "fix_to", counted_fix_to)
    monkeypatch.setattr(S.graph.Graph, "fix", counted_fix)
    for n in workloads.SWEEP_SIZES:
        for seed in range(workloads.SWEEP_SEEDS_PER_SIZE):
            dag, obs, query = workloads.sweep_case(S, n, seed)
            proj = S.projection.latent_project(S.projection.derive_labels(dag), obs)
            S.identify.identify_selected(proj, query)
    assert (len(per_call), len(steps), len(not_clean), len(block_steps)) == (137, 1124, 3, 2)
    assert max(per_call) == 1 and len(built) == sum(per_call)
    assert not graph_fixes


def test_identify_sweep_walks_take_few_closures(monkeypatch):
    # the fixing walk re-tests only blocked vertices, and computes the fixed
    # vertex's district and ancestors only while some vertex is blocked; a
    # clean step drops the verdicts whose descendant set, kept with each,
    # meets the dropped factor's variables.  Over the 32 identify_sweep
    # cases the walks take 1748 closures; re-testing the district and
    # ancestors of every fixed vertex and dropping ancestors(conditioning)
    # took 4824.  It was 1890 while _selection_fixable tested the
    # selector's district by a closure where its siblings say the same
    # (143 closures), and a kernel that had left chain form made no clean
    # verdicts (a block step takes a district closure)
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    workloads = _load("workloads")
    depth, closures = [0], []
    real_closure = S.graph._Adjacency._closure
    real_fix_to = S.estimand.ChainKernel.fix_to

    def counted_closure(g, x, table):
        if depth[0]:
            closures.append(x)
        return real_closure(g, x, table)

    def counted_fix_to(k, *args):
        depth[0] += 1
        try:
            return real_fix_to(k, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(S.graph._Adjacency, "_closure", counted_closure)
    monkeypatch.setattr(S.estimand.ChainKernel, "fix_to", counted_fix_to)
    for n in workloads.SWEEP_SIZES:
        for seed in range(workloads.SWEEP_SEEDS_PER_SIZE):
            dag, obs, query = workloads.sweep_case(S, n, seed)
            proj = S.projection.latent_project(S.projection.derive_labels(dag), obs)
            S.identify.identify_selected(proj, query)
    assert len(closures) == 1748


def test_identify_sweep_validates_no_derived_graph(monkeypatch):
    # a graph is validated where it is built from outside data, and every
    # derivation carries the invariants through; the context graphs of a
    # query are built once per selector pattern, from the ancestral margin.
    # Projecting and identifying the 32 identify_sweep cases ran
    # Graph._validate 291 times and context_graph 131 times before, and 0
    # and 6 times since
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    workloads = _load("workloads")
    cases = [
        workloads.sweep_case(S, n, seed)
        for n in workloads.SWEEP_SIZES
        for seed in range(workloads.SWEEP_SEEDS_PER_SIZE)
    ]
    validated, contexts = [], []
    real_validate = S.graph.Graph._validate
    real_context = S.projection.context_graph

    def counted_validate(g):
        validated.append(g)
        return real_validate(g)

    def counted_context(g, s):
        contexts.append(s)
        return real_context(g, s)

    monkeypatch.setattr(S.graph.Graph, "_validate", counted_validate)
    monkeypatch.setattr(S.projection, "context_graph", counted_context)
    monkeypatch.setattr(S.identify, "context_graph", counted_context)
    for dag, obs, query in cases:
        proj = S.projection.latent_project(S.projection.derive_labels(dag), obs)
        S.identify.identify_selected(proj, query)
    assert len(validated) == 0
    assert len(contexts) <= 6 < 131


def test_identify_sweep_projection_rebuilds_no_surviving_edge(monkeypatch):
    # label derivation and latent projection build an Edge only for an edge
    # whose label or endpoints change; an edge they carry over is the same
    # object.  On the 32 identify_sweep cases they built 2787 edges when
    # every edge was rebuilt, and build 346 since
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    workloads = _load("workloads")
    cases = [
        workloads.sweep_case(S, n, seed)
        for n in workloads.SWEEP_SIZES
        for seed in range(workloads.SWEEP_SEEDS_PER_SIZE)
    ]
    built = []
    real_post_init = S.graph.Edge.__post_init__

    def counted_post_init(e):
        built.append(e)
        real_post_init(e)

    monkeypatch.setattr(S.graph.Edge, "__post_init__", counted_post_init)
    for dag, obs, _ in cases:
        S.projection.latent_project(S.projection.derive_labels(dag), obs)
    assert len(built) == 346


@pytest.mark.parametrize("n, seed", [(64, 3), (128, 1), (128, 11)])
def test_large_sweep_cases_render_and_round_trip(n, seed):
    # fixed over the whole graph these estimands were trees of 6.6e8, 1.2e8
    # and 3.6e12 nodes that no rendering finished; fixed from the ancestral
    # margin each one identifies, renders as text and round-trips through
    # JSON within a 5 s budget (128/11, the largest, takes about 0.7 s on a
    # 2-core box)
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    dag, obs, query = _load("workloads").sweep_case(S, n, seed)
    proj = S.projection.latent_project(S.projection.derive_labels(dag), obs)
    start = time.perf_counter()
    result = S.identify.identify_selected(proj, query)
    assert result.kind == "identified"
    assert S.estimand.render(result.estimand)
    assert S.estimand.parse(S.estimand.render(result.estimand, "json")) == result.estimand
    assert time.perf_counter() - start < 5


def test_identify_selected_memory_on_the_largest_sweep_case():
    # fixing keeps no kernel or graph of a step: the tracemalloc peak of
    # identify_selected on sweep_case 128/11 was 14.2 MiB while a memo kept
    # every kernel of the query, and is about 0.4 MiB since
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    dag, obs, query = _load("workloads").sweep_case(S, 128, 11)
    proj = S.projection.latent_project(S.projection.derive_labels(dag), obs)
    tracemalloc.start()
    try:
        result = S.identify.identify_selected(proj, query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.kind == "identified"
    assert peak <= 2 * 2**20


def test_identified_sweep_verdicts_verify():
    # the oracle caps the cells a plan makes per model (MAX_PLAN_CELLS), not
    # the observed state space, which verify never builds: every identified
    # identify_sweep verdict verifies, where a cap on the state space
    # refused 22 of the 27 at n = 16-40 (all at n >= 24).  Past identify_sweep
    # 26 more verify, among them 64/1, which planned 263 938 cells per model
    # while a product was planned apart from its sum, and 128/6, which
    # planned past the cap then; the 53 verify in about 1 s on a 2-core box
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    workloads = _load("workloads")
    checked = []
    start = time.perf_counter()
    for n in (16, 24, 32, 40, 48, 64, 96, 128):
        for seed in range(8):
            dag, obs, query = workloads.sweep_case(S, n, seed)
            proj = S.projection.latent_project(S.projection.derive_labels(dag), obs)
            result = S.identify.identify_selected(proj, query)
            if result.kind != "identified":
                continue
            report = S.oracle.verify(proj, query, dag.support, result, trials=3, seed=1, dag=dag)
            assert report.status == "verified", (n, seed, report)
            checked.append((n, seed))
    assert len(checked) == 53 and {(64, 1), (128, 6)} <= set(checked)
    assert sum(n <= 40 for n, _ in checked) == 27
    assert time.perf_counter() - start < 20


def test_oversized_plan_is_refused_while_it_is_made(tmp_path, monkeypatch):
    # no sweep case at n = 128 (seeds 0-399) or n = 256 (seeds 0-99) plans
    # past MAX_PLAN_CELLS, so the cap is lowered below the plan of sweep_case
    # 128/6 (2664 cells per model): the plan is refused before any index list
    # of a step past the cap is built, from the library and from `selid
    # verify` alike
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    dag, obs, query = _load("workloads").sweep_case(S, 128, 6)
    proj = S.projection.latent_project(S.projection.derive_labels(dag), obs)
    result = S.identify.identify_selected(proj, query)
    assert result.kind == "identified"
    monkeypatch.setattr(S.oracle, "MAX_PLAN_CELLS", 2048)
    start = time.perf_counter()
    with pytest.raises(S.oracle.CapError, match="cells per model exceeds the enumeration cap"):
        S.oracle.verify(proj, query, dag.support, result, trials=3, seed=1, dag=dag)
    assert time.perf_counter() - start < 1
    path = tmp_path / "sweep_128_6.lsg"
    path.write_text(S.lsg.render_graph(dag))
    (y,) = query.outcomes
    treats = ", ".join(f"{v}={tok.name}" for v, tok in query.treatments)
    text = f"P({y} | do({treats}), {dag.selector}=empty)"
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = S.cli.main(["verify", "--graph", str(path), "--query", text, "--trials", "3"])
    assert time.perf_counter() - start < 1
    assert (code, out.getvalue()) == (1, "")
    assert json.loads(err.getvalue())["error"] == "cap"


def test_reference_estimands_equal_identify_selected():
    # fixture_verify checks the CLI's estimands against these references
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    workloads = _load("workloads")
    refs = workloads.reference_estimands(S)
    queries = {name: query for name, query, *_ in workloads.FIXTURE_QUERIES}
    assert set(refs) == {"selection_web", "double_bow"}
    for name, ref in refs.items():
        g = all_fixtures()[name].graph
        query, _ = S.lsg.parse_query(queries[name], g.selector)
        result = S.identify.identify_selected(g, query)
        assert S.estimand.normal_form(result.estimand) == ref, name


def test_identify_reexports_the_estimand_helpers():
    # the tracer wraps these two where selid.identify imports them as well,
    # and bench/selftest.py checks them there
    identify, estimand = _module("identify"), _module("estimand")
    assert identify.normal_form is estimand.normal_form
    assert identify.trim_conditioning is estimand.trim_conditioning


def test_selector_assign_is_the_selector_value():
    # bench/workloads.py builds the reference restrictions through this name
    estimand, graph = _module("estimand"), _module("graph")
    assert estimand.SelectorAssign is graph.SelectorValue
    assert selid.SelectorAssign is graph.SelectorValue


# run.load_selid() drops selid from sys.modules, so the traced passes run
# in a process of their own
SMOKE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run
out = {}
for name in run.WORKLOADS:
    result = run.trace(run.make_workload(name, smoke=True), seed=1, probe=False)
    out[name] = {"failures": result["failures"], "metrics": list(result["metrics"])}
print(json.dumps({"per_layer": list(run.PER_LAYER), "workloads": out}))
"""


def test_traced_smoke_pass_of_every_workload():
    # one plain and one traced pass of each workload at its smallest size:
    # a tracer hook that a refactor broke shows as a failure or a missing
    # metric; timing ratios are left to bench/selftest.py
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, "-c", SMOKE, str(ROOT / "src"), str(BENCH)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report["workloads"]) == {"fixture_verify", "identify_sweep", "small_model_sweep"}
    for name, result in report["workloads"].items():
        assert result["failures"] == [], name
        assert result["metrics"] == report["per_layer"], name
