"""Command-line front end: project graphs, identify queries, verify verdicts,
generate witnesses.

Exit codes: 0 an answer was produced (identification failures are answers),
1 usage error or a problem past the oracle's enumeration cap or the
projection's state cap, 2 internal error.  The environment variable
``SSID_SEED`` overrides ``--seed``.  Output is byte-identical for
identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import oracle
from .estimand import render as render_estimand, to_jsonable as estimand_jsonable
from .graph import Graph, GraphError
from .identify import (
    DatasetSpec,
    Identified,
    QueryError,
    identify,
    identify_fused,
    identify_selected,
    sequential_baseline,
)
from .lsg import ParseError, parse_graph, parse_query, render_graph
from .projection import ProjectionCapError, derive_labels, latent_project


class UsageError(ValueError):
    pass


def _load_graph(path: str) -> Graph:
    """The graph in the ``.lsg`` file at ``path``: a missing file is a
    usage error, and a malformed one a ``ParseError`` that names it."""
    try:
        return parse_graph(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _failure_payload(result) -> dict:
    payload = {"identified": False, "failure": result.kind}
    for field in ("district", "closure"):
        if hasattr(result, field):
            payload[field] = sorted(getattr(result, field))
    if getattr(result, "tried", None):
        payload["tried"] = [list(t) if not isinstance(t, str) else t for t in result.tried]
    return payload


def _run_algorithm(name: str, g: Graph, query, datasets):
    if name == "id":
        return identify(g, query)
    if name == "gid":
        if not datasets:
            raise UsageError("--algorithm gid needs at least one --dataset")
        return identify_fused(g, datasets, query)
    if name == "csg":
        # the selected g-formula: identify_selected on a fully observed
        # selection model, whose districts are single vertices
        if g.latent or any(e.kind == "bidirected" for e in g.edges):
            raise QueryError("the selected g-formula needs a fully observed model")
        if g.selector is None:
            raise QueryError("no selector; use identify instead")
        return identify_selected(g, query)
    if name == "ssid":
        return identify_selected(g, query)
    if name == "baseline":
        return sequential_baseline(g, query)
    raise UsageError(f"unknown algorithm {name!r}")


def _pick_algorithm(args, g: Graph) -> str:
    if args.algorithm != "auto":
        return args.algorithm
    if getattr(args, "dataset", None):
        return "gid"
    return "ssid" if g.selector is not None else "id"


def _datasets(args) -> list:
    out = []
    for i, path in enumerate(getattr(args, "dataset", None) or (), start=1):
        g = _load_graph(path)
        out.append(DatasetSpec(f"p{i}", g.fixed, g))
    return out


def _frac(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _value_key(v) -> str:
    if isinstance(v, tuple):  # composite selector value
        pattern, vals = v
        inner = ", ".join(f"{c}={x}" for c, x in zip(pattern, vals))
        return f"({inner})"
    return str(v)


def _model_payload(m: oracle.DiscreteCsScm) -> dict:
    cpts = {}
    for v in sorted(m.cpts):
        parents, rows = m.rows(v)
        denom, domain = m.cpts[v].denom, m.domain(v)
        entries = []
        for pa_vals, nums in sorted(rows, key=lambda row: repr(row[0])):
            dist = sorted(zip(domain, nums), key=lambda kv: repr(kv[0]))
            entries.append(
                {
                    "given": {p: _value_key(x) for p, x in zip(parents, pa_vals)},
                    "dist": {_value_key(k): _frac(Fraction(n, denom)) for k, n in dist},
                }
            )
        cpts[v] = {"parents": list(parents), "rows": entries}
    return {
        "vertices": sorted(m.graph.vertices),
        "latent": sorted(m.graph.latent),
        "selector": m.selector,
        "cpts": cpts,
    }


def _projected(g: Graph, keep=None) -> Graph:
    """``g`` latent-projected onto ``keep`` (by default every vertex that is
    not latent), with edge labels derived first for a selection graph that
    carries none."""
    if keep is None:
        keep = g.vertices - g.latent
    if not any(e.label for e in g.edges) and g.selector is not None:
        g = derive_labels(g)
    return latent_project(g, keep)


def _query_graph(path: str) -> tuple:
    """The graph in ``path`` and the graph queries on it are asked of: its
    latent projection when it has latent vertices, else itself."""
    g = _load_graph(path)
    return g, (_projected(g) if g.latent else g)


def _read_query(args, g: Graph):
    """``--query`` on ``g``.  The selection procedures answer a query in the
    observational context only, so on a graph with a selector they need it
    named (``S=empty``)."""
    query, wants_empty = parse_query(args.query, g.selector)
    if g.selector is not None and not wants_empty and args.algorithm in ("auto", "ssid", "csg", "baseline"):
        raise UsageError("selection queries must name the observational context: S=empty")
    return query


def cmd_project(args) -> int:
    g = _load_graph(args.graph)
    keep = frozenset(args.keep.split(",")) if args.keep else None
    sys.stdout.write(render_graph(_projected(g, keep)))
    return 0


def _verdict(args) -> tuple:
    """The verdict ``identify``, ``verify`` and ``witness`` report: ``(dag,
    g, query, datasets, algorithm, result)``, ``dag, g`` from ``_query_graph``."""
    dag, g = _query_graph(args.graph)
    query = _read_query(args, g)
    datasets = _datasets(args)
    algorithm = _pick_algorithm(args, g)
    return dag, g, query, datasets, algorithm, _run_algorithm(algorithm, g, query, datasets)


def cmd_identify(args) -> int:
    *_, algorithm, result = _verdict(args)
    if isinstance(result, Identified):
        if args.format == "json":
            payload = {
                "identified": True,
                "algorithm": algorithm,
                "estimand": estimand_jsonable(result.estimand),
            }
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print(render_estimand(result.estimand, args.format))
    else:
        payload = _failure_payload(result)
        payload["algorithm"] = algorithm
        print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    dag, g, query, datasets, algorithm, result = _verdict(args)
    report = oracle.verify(
        g,
        query,
        None,
        result,
        trials=args.trials,
        seed=args.seed,
        dag=dag if dag.latent else None,
        datasets=[(d.name, d.intervened) for d in datasets] or None,
    )
    payload = report.to_jsonable()
    payload["algorithm"] = algorithm
    if not isinstance(result, Identified):
        payload["verdict"] = _failure_payload(result)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_witness(args) -> int:
    _, g, query, _, _, result = _verdict(args)
    if isinstance(result, Identified):
        print(json.dumps({"identified": True, "witness": None}, sort_keys=True, indent=2))
        return 0
    payload = {"identified": False, "failure": result.kind}
    try:
        m1, m2 = oracle.parity_witness(g, query, result)
        payload["models"] = [_model_payload(m1), _model_payload(m2)]
    except oracle.OracleError as exc:
        # some failure kinds carry no constructible certificate by design
        payload["models"] = None
        payload["reason"] = str(exc)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _env_seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"SSID_SEED must be an integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="selid",
        description="identification of interventional queries under systematic selection",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, query=True):
        p.add_argument("--graph", required=True, help=".lsg graph file")
        if query:
            p.add_argument("--query", required=True, help='e.g. "P(Y | do(A=a), S=empty)"')
            p.add_argument(
                "--algorithm",
                default="auto",
                choices=["auto", "id", "gid", "csg", "ssid", "baseline"],
            )
            p.add_argument("--dataset", action="append", help=".lsg CADMG per dataset (gid)")

    p = sub.add_parser("project", help="latent-project an LS-DAG")
    p.add_argument("--graph", required=True)
    p.add_argument("--keep", help="comma-separated vertices to keep")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("identify", help="compute the identifying estimand")
    common(p)
    p.add_argument("--format", default="text", choices=["text", "latex", "json"])
    p.set_defaults(fn=cmd_identify)

    p = sub.add_parser("verify", help="check a verdict against the oracle")
    common(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("witness", help="dump an agreement pair for a failure")
    common(p)
    p.set_defaults(fn=cmd_witness)
    return ap


# built on first use and reused by every main() call in the process:
# parse_args leaves the parser unchanged, and a build costs more than ten
# parses
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        if "SSID_SEED" in os.environ and hasattr(args, "seed"):
            args.seed = _env_seed(os.environ["SSID_SEED"])
        return args.fn(args)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 1
    except ParseError as exc:
        print(json.dumps({"error": "parse", "message": str(exc)}), file=sys.stderr)
        return 1
    except (oracle.CapError, ProjectionCapError) as exc:
        # an input too large to enumerate or project is refused, not an
        # internal error
        print(json.dumps({"error": "cap", "message": str(exc)}), file=sys.stderr)
        return 1
    except GraphError as exc:
        # violated input contracts (bad query/graph/algorithm combination)
        print(json.dumps({"error": "input", "message": str(exc)}), file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
