"""The three benchmark workloads: inputs, one timed pass, and output checks.

Every workload is a closed loop with one caller.  ``setup`` builds the
inputs from the workload seed; ``run_pass`` brings each query to a checked
verdict, timing only the calls into ``selid`` (through ``ctx.timed()``) and
checking the outputs outside the timed region.  Every pass of every run does
the same work; the seed sets only the order of the queries, so each query's
time can be taken over several passes.  Modules are reached through the
namespace ``S`` returned by ``run.load_selid`` so that the tracer's
rebinding of module attributes takes effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

VERDICT_KINDS = ("identified", "positivity", "thicket", "hedge", "unknown")

# The oracle's random models are part of each workload's fixed catalogue, like
# its graphs and queries, so every run and every pass does the same work.
ORACLE_SEED = 1


@dataclass
class PassResult:
    times: dict = field(default_factory=dict)  # query id -> seconds, verdict queries
    other_s: float = 0.0  # timed work that is not a verdict query
    attempted: int = 0
    failures: list = field(default_factory=list)  # (query id, reason)
    nodes: int = 0
    text_bytes: int = 0
    digest: str = ""
    leftover_contexts: int = 0  # identified estimands with free non-outcome variables


def count_nodes(e) -> int:
    """Expression-tree nodes of an estimand (shared subtrees count each time)."""
    n, stack = 0, [e]
    while stack:
        x = stack.pop()
        n += 1
        for attr in ("child", "num", "den"):
            sub = getattr(x, attr, None)
            if sub is not None:
                stack.append(sub)
        stack.extend(getattr(x, "children", ()))
    return n


# --------------------------------------------------------------------------
# fixture_verify: the CLI path on the fixture files


# Hand-written expected answers, from README.md and tests/test_acceptance.py:
# (fixture, query, verdict kind, verify status, --algorithm, --dataset files).
FIXTURE_QUERIES = (
    ("selection_web", "P(Y | do(A1=a1, A2=a2), S=empty)", "identified", "verified", "auto", ()),
    ("double_bow", "P(Y | do(A=a), S=empty)", "identified", "verified", "auto", ()),
    ("scar", "P(Y | do(A=a), S=empty)", "identified", "verified", "auto", ()),
    ("backdoor", "P(Y | do(A=a))", "identified", "verified", "auto", ()),
    ("frontdoor", "P(Y | do(A=a))", "identified", "verified", "auto", ()),
    ("chain", "P(Y | do(A=a))", "identified", "verified", "auto", ()),
    ("bow", "P(Y | do(A=a))", "hedge", "verified", "auto", ()),
    ("forced_outcome", "P(Y | do(), S=empty)", "positivity", "verified", "auto", ()),
    ("split_thicket", "P(Y | do(A1=a1, A2=a2), S=empty)", "thicket", "unverified", "auto", ()),
    ("confounded_selector_hedge", "P(Y | do(A=a), S=empty)", "hedge", "verified", "auto", ()),
    (
        "compliance_pair", "P(Y | do(A=a))", "identified", "verified",
        "gid", ("compliance_pair", "compliance_experimental"),
    ),
)

# `selid project` on each hidden-variable DAG must print the hand-written
# projected fixture file byte for byte.
PROJECT_PAIRS = tuple(
    (f"{n}_dag", n)
    for n in (
        "compliance_pair", "confounded_selector_hedge", "double_bow",
        "parallel_paths", "selection_web", "split_thicket",
    )
)


def reference_estimands(S) -> dict:
    """Reference functionals of acceptance criteria 1 and 2, in normal form."""
    E = S.estimand

    def sval(**kids):
        return E.SelectorAssign(frozenset(kids), tuple((k, E.Sym(v)) for k, v in kids.items()))

    inner = E.SumOver(
        E.Product((
            E.BaseKernel("p", frozenset({"W2", "A3"})),
            E.restrict(
                E.BaseKernel("p", frozenset("Y"), frozenset({"M", "W2", "W1", "C", "S", "A3"})),
                {"S": sval(A1="a1", A2="a2")},
            ),
        )),
        frozenset({"A3"}),
    )
    selection_web = E.SumOver(
        E.Product((
            E.BaseKernel("p", frozenset("C")),
            E.restrict(
                E.BaseKernel("p", frozenset("M"), frozenset({"A1", "S"})),
                {"A1": E.Sym("a1"), "S": sval(A1="a1")},
            ),
            E.restrict(
                E.BaseKernel("p", frozenset({"W1"}), frozenset({"W2", "A2", "S"})),
                {"A2": E.Sym("a2"), "S": sval(A2="a2")},
            ),
            inner,
        )),
        frozenset({"M", "W1", "W2", "C"}),
    )
    double_bow = E.restrict(
        E.BaseKernel("p", frozenset("Y"), frozenset({"A", "S"})),
        {"A": E.Sym("a"), "S": sval(A="a")},
    )
    return {
        "selection_web": E.normal_form(selection_web),
        "double_bow": E.normal_form(double_bow),
    }


# A pass repeats a verdict query until it has been timed for this long and
# counts the median: most fixture queries take tens of milliseconds, where one
# timing of each is at the mercy of the host's speed in that instant.
MIN_QUERY_S = 0.1


def _cli(S, argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = S.cli.main(list(argv))
    return code, out.getvalue()


class FixtureVerify:
    name = "fixture_verify"
    min_passes = 3
    queries_per_pass = len(FIXTURE_QUERIES)

    def __init__(self, root: Path, trials: int = 100):
        self.root = root
        self.trials = trials
        self._refs = None

    def setup(self, S, seed: int):
        names = {n for n, *_ in FIXTURE_QUERIES} | {"compliance_experimental"}
        names |= {n for pair in PROJECT_PAIRS for n in pair}
        texts = {n: self._path(n).read_text() for n in sorted(names)}
        order = list(range(len(FIXTURE_QUERIES)))
        random.Random(seed).shuffle(order)
        return {"texts": texts, "order": order}

    def _path(self, name: str) -> Path:
        return self.root / "fixtures" / f"{name}.lsg"

    def run_pass(self, S, inputs, ctx) -> PassResult:
        res = PassResult()
        if self._refs is None:
            self._refs = reference_estimands(S)
        digest = hashlib.sha256()
        for i in inputs["order"]:
            name, query, kind, status, algorithm, datasets = FIXTURE_QUERIES[i]
            base = ["--graph", str(self._path(name)), "--query", query, "--algorithm", algorithm]
            for d in datasets:
                base += ["--dataset", str(self._path(d))]
            verify = ["verify", *base, "--trials", str(self.trials), "--seed", str(ORACLE_SEED)]
            res.attempted += 1
            out1 = ""
            try:
                times, outputs = [], set()
                while sum(times) < MIN_QUERY_S:
                    with ctx.timed() as t:
                        c1, out1 = _cli(S, ["identify", *base])
                        c2, out2 = _cli(S, verify)
                    times.append(t.seconds)
                    outputs.add((c1, out1, c2, out2))
                res.times[name] = statistics.median(times)
                if len(outputs) > 1:
                    why = "a repeated query gave another output"
                else:
                    why = self._check(S, self._refs.get(name), res, base, kind, status, c1, out1, c2, out2)
            except Exception as exc:  # noqa: BLE001 - a failed query is counted, not fatal
                why = f"raised {type(exc).__name__}: {exc}"
            if why:
                res.failures.append((name, why))
            digest.update(f"{name}\n{why or out1}\n".encode())
        for dag_name, proj_name in PROJECT_PAIRS:
            res.attempted += 1
            try:
                with ctx.timed() as t:
                    code, out = _cli(S, ["project", "--graph", str(self._path(dag_name))])
                res.other_s += t.seconds
                ok = code == 0 and out == inputs["texts"][proj_name]
                why = None if ok else "projection differs from the fixture file"
            except Exception as exc:  # noqa: BLE001
                why = f"raised {type(exc).__name__}: {exc}"
            if why:
                res.failures.append((dag_name, why))
        res.digest = digest.hexdigest()
        return res

    @staticmethod
    def _check(S, ref, res, base, kind, status, c1, out1, c2, out2):
        if c1 != 0 or c2 != 0:
            return f"exit codes {c1}/{c2}"
        got_kind = "identified" if not out1.startswith("{") else json.loads(out1)["failure"]
        if got_kind != kind:
            return f"verdict {got_kind}, expected {kind}"
        report = json.loads(out2)
        if report["kind"] != kind or report["status"] != status:
            return f"verify {report['kind']}/{report['status']}, expected {kind}/{status}"
        if kind != "identified":
            return None
        # the estimand behind the text: the CLI's own JSON rendering
        code, js = _cli(S, ["identify", *base, "--format", "json"])
        e = S.estimand.from_jsonable(json.loads(js)["estimand"])
        text = out1.rstrip("\n")
        if code != 0 or S.estimand.render(e) != text:
            return "text and JSON renderings disagree"
        if ref is not None and S.estimand.normal_form(e) != ref:
            return "estimand differs from the reference functional"
        res.nodes += count_nodes(e)
        res.text_bytes += len(text.encode())
        return None


# --------------------------------------------------------------------------
# identify_sweep: identification alone on random selection DAGs of growing size

SWEEP_SIZES = (16, 24, 32, 40)
SWEEP_SEEDS_PER_SIZE = 8


def sweep_case(S, n: int, seed: int):
    """A random hidden-variable selection DAG with ``n`` observed vertices.

    n // 4 latents with 2 random observed children each; edges Vi -> Vj
    (i < j) with probability min(0.4, 2.5 / n); the selector from the first
    half of the order with 1-3 support patterns over its children; outcome
    the last vertex, 1-2 treatments.
    """
    G, E = S.graph, S.estimand
    rng = random.Random(seed * 1000 + n)
    obs = [f"V{i}" for i in range(n)]
    lat = [f"U{i}" for i in range(n // 4)]
    edges = set()
    for u in lat:
        for c in rng.sample(obs, 2):
            edges.add(G.directed(u, c))
    p = min(0.4, 2.5 / n)
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges.add(G.directed(obs[i], obs[j]))
    sel_idx = rng.randrange(n // 2)
    sel = obs[sel_idx]
    children = sorted(e.head for e in edges if e.tail == sel)
    if not children:
        target = obs[rng.randrange(sel_idx + 1, n)]
        edges.add(G.directed(sel, target))
        children = [target]
    patterns = {
        frozenset(rng.sample(children, rng.randint(0, len(children))))
        for _ in range(rng.randint(1, 3))
    }
    dag = G.Graph(
        random=frozenset(obs + lat),
        latent=frozenset(lat),
        selector=sel,
        support=G.SelectorSupport(frozenset(patterns)),
        edges=frozenset(edges),
    )
    treatable = sorted(set(obs) - {obs[-1], sel})
    treats = tuple((v, E.Sym(v.lower())) for v in rng.sample(treatable, rng.randint(1, 2)))
    return dag, frozenset(obs), S.identify.Query(frozenset({obs[-1]}), treats)


class IdentifySweep:
    name = "identify_sweep"
    min_passes = 2

    def __init__(self, sizes=SWEEP_SIZES, seeds_per_size=SWEEP_SEEDS_PER_SIZE):
        self.sizes = sizes
        self.seeds = range(seeds_per_size)
        self.queries_per_pass = len(sizes) * seeds_per_size

    def setup(self, S, seed: int):
        cases = [(n, s, *sweep_case(S, n, s)) for n in self.sizes for s in self.seeds]
        random.Random(seed).shuffle(cases)
        return cases

    def run_pass(self, S, cases, ctx) -> PassResult:
        res = PassResult()
        lines = []
        for n, gseed, dag, obs, query in cases:
            res.attempted += 1
            try:
                with ctx.timed() as t:
                    proj = S.projection.latent_project(S.projection.derive_labels(dag), obs)
                    r = S.identify.identify_selected(proj, query)
                    text = S.estimand.render(r.estimand) if r.kind == "identified" else ""
                res.times[(n, gseed)] = t.seconds
                why = self._check(S, res, r, obs, query, text)
                lines.append(f"{n}:{gseed}:{r.kind}:{text}")
            except Exception as exc:  # noqa: BLE001
                why = f"raised {type(exc).__name__}: {exc}"
                lines.append(f"{n}:{gseed}:error")
            if why:
                res.failures.append((f"n={n} seed={gseed}", why))
        # digest in catalogue order, independent of the run's shuffle
        res.digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
        return res

    @staticmethod
    def _check(S, res, r, obs, query, text):
        if r.kind not in VERDICT_KINDS:
            return f"unknown verdict {r.kind!r}"
        if r.kind != "identified":
            return None
        e = r.estimand
        if S.estimand.parse(S.estimand.render(e, "json")) != e:
            return "JSON rendering does not round-trip"
        if e.outcomes() != query.outcomes:
            return f"estimand outcomes {sorted(e.outcomes())} != query outcomes {sorted(query.outcomes)}"
        if not e.free_vars() <= obs:
            return f"free variables {sorted(e.free_vars() - obs)} are not observed vertices"
        if e.free_vars() != query.outcomes:
            # leftover context variables: allowed when constant (the oracle's
            # contract), which only enumeration could check at these sizes
            res.leftover_contexts += 1
        res.nodes += count_nodes(e)
        res.text_bytes += len(text.encode())
        return None


# --------------------------------------------------------------------------
# small_model_sweep: soundness sweep over tiny models, oracle included

SMALL_SEEDS = range(200)


def random_selection_model(S, seed: int):
    """The 3-5 vertex generator of tests/test_random_models.py.

    Returns (dag, observed vertices, query) or None; the projection is left
    to the timed query.  Draws the same random stream as the test, so a
    generator seed names the same case in both.
    """
    G, E = S.graph, S.estimand
    rng = random.Random(seed)
    n_obs = rng.randint(3, 5)
    n_lat = rng.randint(0, 2)
    obs = [f"V{i}" for i in range(n_obs)]
    lat = [f"U{i}" for i in range(n_lat)]
    sel_idx = rng.randrange(n_obs - 1)
    sel = obs[sel_idx]
    order = lat + obs
    edges = set()
    for i, j in itertools.combinations(range(len(order)), 2):
        a, b = order[i], order[j]
        if b in lat:
            continue
        prob = 0.5 if a in lat else 0.4
        if rng.random() < prob:
            edges.add(G.directed(a, b))
    edges = {e for e in edges if e.head != sel or e.tail not in lat or rng.random() < 0.5}
    children = sorted({e.head for e in edges if e.tail == sel})
    if not children:
        if sel_idx + 1 >= n_obs:
            return None
        target = obs[rng.randrange(sel_idx + 1, n_obs)]
        edges.add(G.directed(sel, target))
        children = [target]
    patterns = set()
    for _ in range(rng.randint(1, 3)):
        patterns.add(frozenset(rng.sample(children, rng.randint(0, len(children)))))
    dag = G.Graph(
        random=frozenset(order),
        latent=frozenset(lat),
        selector=sel,
        support=G.SelectorSupport(frozenset(patterns)),
        edges=frozenset(edges),
    )
    outs = frozenset({obs[-1]})
    treatable = sorted(set(obs) - outs - {sel})
    treats = tuple(
        (v, E.Sym(v.lower()))
        for v in rng.sample(treatable, rng.randint(0, min(2, len(treatable))))
    )
    return dag, frozenset(obs), S.identify.Query(outs, treats)


def small_cases(S, seeds) -> list:
    cases = []
    for s in seeds:
        case = random_selection_model(S, s)
        if case is not None:
            cases.append((s, *case))
    return cases


class SmallModelSweep:
    name = "small_model_sweep"
    min_passes = 3

    def __init__(self, seeds=SMALL_SEEDS):
        self.seeds = seeds
        self.queries_per_pass = None  # known after setup: some seeds draw no case

    def setup(self, S, seed: int):
        cases = small_cases(S, self.seeds)
        self.queries_per_pass = len(cases)
        random.Random(seed).shuffle(cases)
        return cases

    def run_pass(self, S, cases, ctx) -> PassResult:
        res = PassResult()
        lines = []
        I, O = S.identify, S.oracle
        for gseed, dag, obs, query in cases:
            vseed = ORACLE_SEED * 1000 + gseed
            res.attempted += 1
            try:
                with ctx.timed() as t:
                    proj = S.projection.latent_project(S.projection.derive_labels(dag), obs)
                    r = I.identify_selected(proj, query)
                    rep = None
                    if r.kind == "identified":
                        rep = O.verify(proj, query, proj.support, r, trials=2, seed=vseed, dag=dag)
                    elif r.kind in ("hedge", "positivity"):
                        rep = O.verify(proj, query, proj.support, r, trials=1, seed=vseed, dag=dag)
                    b = I.sequential_baseline(proj, query)
                    brep = None
                    if b.kind == "identified":
                        brep = O.verify(proj, query, proj.support, b, trials=1, seed=vseed + 500, dag=dag)
                    text = S.estimand.render(r.estimand) if r.kind == "identified" else ""
                res.times[gseed] = t.seconds
                why = None
                if r.kind not in VERDICT_KINDS:
                    why = f"unknown verdict {r.kind!r}"
                elif rep is not None and rep.status == "refuted":
                    why = f"{r.kind} verdict refuted by the oracle"
                elif r.kind == "identified" and not rep.passed:
                    why = f"identified verdict {rep.status}"
                elif b.kind == "identified" and r.kind != "identified":
                    why = "baseline identifies what identify_selected does not"
                elif brep is not None and not brep.passed:
                    why = "baseline verdict refuted"
                if r.kind == "identified":
                    res.leftover_contexts += r.estimand.free_vars() != query.outcomes
                    res.nodes += count_nodes(r.estimand)
                    res.text_bytes += len(text.encode())
                lines.append(f"{gseed}:{r.kind}:{rep.status if rep else '-'}:{b.kind}:{text}")
            except Exception as exc:  # noqa: BLE001
                why = f"raised {type(exc).__name__}: {exc}"
                lines.append(f"{gseed}:error")
            if why:
                res.failures.append((f"seed={gseed}", why))
        res.digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
        return res


def probe_verdicts(S, seeds=SMALL_SEEDS) -> dict:
    """Verdict kind per generator seed of the small-model catalogue."""
    out = {}
    for s, dag, obs, query in small_cases(S, seeds):
        proj = S.projection.latent_project(S.projection.derive_labels(dag), obs)
        out[str(s)] = S.identify.identify_selected(proj, query).kind
    return out
