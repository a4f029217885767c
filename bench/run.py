"""selid benchmark: certified-verdict throughput and per-module spans.

Run from the root of a checkout (stdlib only; builds nothing):

    python3 bench/run.py --workload fixture_verify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload identify_sweep --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with tracing off, with times
corrected for the host's speed (see speed.py); ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# Timed runs use one fixed hash seed, so set iteration order (and with it
# every count) repeats exactly; the probe below varies it on purpose.
HASH_SEED = "0"
PROBE_HASH_SEEDS = (0, 1, 2, 3, 4, 5)
SETUP_REPEATS = 15
SELID_MODULES = ("graph", "estimand", "identify", "projection", "lsg", "oracle", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("verdict_p50_s", "s"),
    ("verdict_tail_s", "s"),
    ("estimand_nodes", "count"),
    ("estimand_bytes", "B"),
    ("peak_rss_mib", "MiB"),
)

LAYERS = ("lsg", "cli", "projection", "graph", "estimand", "identify", "oracle")
PER_LAYER = (
    "lsg.parse_graph.calls", "lsg.parse_graph.self_s", "lsg.parse_query.self_s",
    "cli.main.calls", "cli.main.self_s",
    "projection.derive_labels.self_s", "projection.latent_project.self_s",
    "projection.canonical_hidden_dag.self_s",
    "projection.context_graph.calls", "projection.context_graph.self_s",
    "projection.swig.calls", "projection.swig.self_s",
    "graph.m_separated.calls", "graph.m_separated.self_s",
    "graph.fix.calls", "graph.fix.self_s",
    "graph.reachable.self_s", "graph.reachable_closure.self_s", "graph.districts.self_s",
    "graph.ancestors.calls", "graph.ancestors.self_s", "graph.construct.calls",
    "estimand.normal_form.calls", "estimand.normal_form.self_s", "estimand.outcomes.calls",
    "estimand.chain_from_joint.self_s",
    "estimand.trim_conditioning.calls", "estimand.trim_conditioning.self_s",
    "estimand.chain_fix.calls", "estimand.chain_fix.self_s", "estimand.chain_degraded",
    "estimand.render.self_s",
    "identify.identify_selected.self_s", "identify.identify.self_s",
    "identify.identify_fused.self_s", "identify.sequential_baseline.self_s",
    *(f"identify.verdicts.{k}" for k in wl.VERDICT_KINDS),
    "identify.order_dependent_verdicts",
    "oracle.random_cs_scm.calls", "oracle.random_cs_scm.self_s",
    "oracle.joint.calls", "oracle.joint.self_s",
    "oracle.interventional.calls", "oracle.interventional.self_s",
    "oracle.dataset_table.self_s", "oracle.eval_estimand.self_s",
    "oracle.table_multiply.calls", "oracle.table_multiply.self_s",
    "oracle.table_sum_out.calls", "oracle.table_sum_out.self_s",
    "oracle.table_conditional.calls", "oracle.table_conditional.self_s",
    "oracle.cells_out", "oracle.max_table_cells",
    "oracle.parity_witness.calls", "oracle.parity_witness.self_s",
    "oracle.verify.self_s", "oracle.trials",
    *(f"{layer}.self_s" for layer in LAYERS),
    "trace.overhead_frac", "trace.coverage_frac",
)


def make_workload(name: str, smoke: bool = False):
    if name == "fixture_verify":
        return wl.FixtureVerify(ROOT, trials=2 if smoke else 100)
    if name == "identify_sweep":
        return wl.IdentifySweep(sizes=(16,), seeds_per_size=2) if smoke else wl.IdentifySweep()
    if name == "small_model_sweep":
        return wl.SmallModelSweep(seeds=range(20)) if smoke else wl.SmallModelSweep()
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("fixture_verify", "identify_sweep", "small_model_sweep")


def load_selid():
    """Import selid afresh from this checkout's src/ and return its modules."""
    for name in [n for n in sys.modules if n == "selid" or n.startswith("selid.")]:
        del sys.modules[name]
    pkg = importlib.import_module("selid")
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"selid imported from {pkg.__file__}, not from {ROOT / 'src'}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"selid.{m}") for m in SELID_MODULES}
    )


class Timing:
    seconds = 0.0


class Context:
    """What a pass needs from the runner: the timer and optional tracing.

    With a ``speed.SpeedProbe`` the timer gives each region's duration less
    the probe time inside it, scaled to the probe's reference speed.
    """

    def __init__(self, rebinding=None, probe=None):
        self.rebinding = rebinding
        self.probe = probe
        self.wall = 0.0  # summed timed regions

    @contextlib.contextmanager
    def timed(self):
        # Each region starts from a collected heap, so it pays for its own
        # garbage and not for what the regions before it left behind.
        gc.collect()
        t = Timing()
        probe = self.probe
        if self.rebinding is not None:
            self.rebinding.enable()
        stolen = probe.stolen if probe is not None else 0.0
        start = time.perf_counter()
        try:
            yield t
        finally:
            end = time.perf_counter()
            t.seconds = end - start
            if probe is not None:
                t.seconds = (t.seconds - (probe.stolen - stolen)) * probe.scale(start, end)
            if self.rebinding is not None:
                self.rebinding.disable()
            self.wall += t.seconds


def tail_level(workload) -> int:
    """The fixed tail percentile of the per-query times.

    It is the highest whole percentile with at least ten timed samples
    beyond it: each query is timed in at least ``min_passes`` passes, so
    ceil(10 / min_passes) queries must lie beyond it.
    """
    n = workload.queries_per_pass
    return math.floor(100 * (n - math.ceil(10 / workload.min_passes)) / n)


def nearest_rank(values, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def setup_seconds(workload, seed: int, probe) -> float:
    """Median time of ``SETUP_REPEATS`` set-ups, each from a fresh import,
    corrected for host speed like the queries."""
    ctx = Context(probe=probe)
    times = []
    for _ in range(SETUP_REPEATS):
        with ctx.timed() as t:
            workload.setup(load_selid(), seed)
        times.append(t.seconds)
    return statistics.median(times)


def consistency_failures(passes) -> list:
    """Every pass runs the same inputs, so its outputs must be identical."""
    first = passes[0]
    return [
        (f"pass {i}", "output differs from the first pass")
        for i, p in enumerate(passes[1:], start=1)
        if (p.digest, p.nodes, p.text_bytes) != (first.digest, first.nodes, first.text_bytes)
    ]


def query_times(passes, pick) -> list:
    """Each verdict query's time: ``pick`` of its times over the passes."""
    ids = dict.fromkeys(q for p in passes for q in p.times)
    return [pick([p.times[q] for p in passes if q in p.times]) for q in ids]


def measure(workload, seed: int, seconds: float) -> dict:
    S = load_selid()
    inputs = workload.setup(S, seed)
    with speed.SpeedProbe() as probe:
        ctx = Context(probe=probe)
        passes = []
        start = time.perf_counter()
        while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
            passes.append(workload.run_pass(S, inputs, ctx))
        setup_s = setup_seconds(workload, seed, probe)
    # Every pass does the same work, so each query counts with its median
    # over the passes, and a pass that met a burst of host load is outvoted.
    times = query_times(passes, statistics.median)
    other_s = statistics.median(p.other_s for p in passes)
    pass_walls = [sum(p.times.values()) + p.other_s for p in passes]
    level = tail_level(workload)
    failures = [f for p in passes for f in p.failures] + consistency_failures(passes)
    attempted = sum(p.attempted for p in passes)
    values = {
        "setup_s": setup_s,
        "queries_per_s": len(times) / (sum(times) + other_s),
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": nearest_rank(times, level),
        "estimand_nodes": passes[0].nodes,
        "estimand_bytes": passes[0].text_bytes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"passes {len(passes)}, verdict queries {len(times)}, timed {ctx.wall:.3f} s "
        f"(per pass: {', '.join(f'{w:.3f}' for w in pass_walls)})",
        f"verdict_tail_s is p{level} of {len(times)} per-query times, each the median of "
        f"{len(passes)} passes",
        probe.summary(),
        f"failed_frac {len(failures) / attempted:.6f} ({len(failures)} of {attempted})",
        f"output digest {passes[0].digest}",
        f"identified estimands with leftover context variables {passes[0].leftover_contexts}",
    ]
    return {
        "metrics": {name: (values[name], unit) for name, unit in END_TO_END},
        "attempted": attempted,
        "failures": failures,
        "notes": notes,
    }


def hash_order_probe() -> tuple:
    """Re-run the small-model identification step under several hash seeds.

    Returns (number of generator seeds whose verdict kind differs, details).
    """
    runs = {}
    for hs in PROBE_HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=str(hs))
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-child"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        runs[hs] = json.loads(proc.stdout.splitlines()[-1])
    seeds = runs[PROBE_HASH_SEEDS[0]]
    differing = [s for s in seeds if len({r[s] for r in runs.values()}) > 1]
    details = [
        f"generator seed {s}: " + ", ".join(f"PYTHONHASHSEED={hs} {r[s]}" for hs, r in runs.items())
        for s in differing
    ]
    return len(differing), details


def trace(workload, seed: int, probe: bool = True) -> dict:
    S = load_selid()
    inputs = workload.setup(S, seed)
    plain = Context()
    passes = [workload.run_pass(S, inputs, plain)]
    t = tr.Tracer()
    traced = Context(tr.instrument(t, vars(S)))
    passes.append(workload.run_pass(S, inputs, traced))
    failures = [f for p in passes for f in p.failures] + consistency_failures(passes)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in t.spans.items():
        layer_self[name.split(".")[0]] += self_s
    order_dependent, probe_notes = hash_order_probe() if probe else (0, [])
    values = {
        "oracle.max_table_cells": t.max_cells,
        "identify.order_dependent_verdicts": order_dependent,
        "trace.overhead_frac": traced.wall / plain.wall - 1,
        "trace.coverage_frac": t.total_self_s() / traced.wall,
        **{f"{layer}.self_s": v for layer, v in layer_self.items()},
    }
    metrics = {}
    for name in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = t.calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            value = t.self_s(name[: -len(".self_s")])
        else:
            value = t.counts[name]
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_frac") else "count"
        metrics[name] = (value, unit)
    notes = [
        f"untraced wall {plain.wall:.3f} s, traced wall {traced.wall:.3f} s, "
        f"self time accounted {t.total_self_s():.3f} s",
    ]
    if order_dependent:
        notes.append(
            f"OPEN DEFECT: identify.order_dependent_verdicts = {order_dependent}: the verdict "
            "of these small-model cases depends on PYTHONHASHSEED (timed runs pin it to "
            f"{HASH_SEED})"
        )
        notes += ["  " + d for d in probe_notes]
    top = sorted(t.spans.items(), key=lambda kv: -kv[1][2])[:12]
    notes += [f"  {name:40s} calls {c:9d}  self {s:9.4f} s" for name, (c, _, s) in top]
    return {
        "metrics": metrics,
        "attempted": sum(p.attempted for p in passes),
        "failures": failures,
        "notes": notes,
        "walls": (plain.wall, traced.wall),
    }


def report(workload_name: str, result: dict):
    for note in result["notes"]:
        print(f"{workload_name}: {note}")
    for name, why in result["failures"][:20]:
        print(f"{workload_name}: FAILED {name}: {why}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload_name} {name} = {value} {unit}")
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()},
    }))


def smoke() -> int:
    """Each workload at its smallest size: one plain and one traced pass.

    Checks the outputs, that every per-layer metric is reported, that the
    layer self times account for the traced wall time, and that the oracle
    is idle on identify_sweep.
    """
    ok = True
    for name in WORKLOADS:
        start = time.perf_counter()
        result = trace(make_workload(name, smoke=True), seed=1, probe=False)
        metrics = {k: v for k, (v, _) in result["metrics"].items()}
        layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        coverage = layers / result["walls"][1]
        problems = [f"{q}: {why}" for q, why in result["failures"]]
        if set(metrics) != set(PER_LAYER):
            problems.append("per-layer metrics missing")
        if not 0.9 <= coverage <= 1.0:
            problems.append(f"layer self times cover {coverage:.3f} of the traced wall")
        if name == "identify_sweep" and metrics["oracle.self_s"] != 0:
            problems.append("the oracle ran")
        ok = ok and not problems
        print(
            f"smoke {name}: {'FAILED' if problems else 'ok'} attempted {result['attempted']} "
            f"coverage {coverage:.3f} ({time.perf_counter() - start:.1f} s)"
        )
        for p in problems:
            print(f"  {p}")
    return 0 if ok else 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="all workloads at their smallest size")
    ap.add_argument("--probe-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (args.smoke or args.probe_child or args.workload):
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "selid" / "__init__.py").is_file():
        print(f"error: no selid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.probe_child and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe_child:
        print(json.dumps(wl.probe_verdicts(load_selid())))
        return 0
    if args.smoke:
        return smoke()
    workload = make_workload(args.workload)
    if args.trace:
        result = trace(workload, args.seed)
    else:
        result = measure(workload, args.seed, args.seconds)
    report(args.workload, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
