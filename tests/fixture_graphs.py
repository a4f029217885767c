"""Shared example graphs used by the tests and the docs, read from the
``.lsg`` files of the repository's ``fixtures`` directory.

A fixture named ``<name>`` is the graph handed to the identifiers,
``fixtures/<name>.lsg`` (the projection when there are hidden variables),
with the hidden-variable DAG generating it in ``fixtures/<name>_dag.lsg``
when that file exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from selid.graph import Graph
from selid.lsg import parse_graph

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"

QUERIES = {
    "chain": "P(Y | do(A=a))",
    "bow": "P(Y | do(A=a))",
    "frontdoor": "P(Y | do(A=a))",
    "backdoor": "P(Y | do(A=a))",
    # the selector as a perfect instrument: S -> A -> Y, S and A each confounded
    "double_bow": "P(Y | do(A=a), S=empty)",
    # two selector children, one free treatment, confounding webs around Y
    "selection_web": "P(Y | do(A1=a1, A2=a2), S=empty)",
    # a projection that needs parallel labelled edges (a true multigraph)
    "parallel_paths": "P(B | do(A=a), S=empty)",
    # Y is always selector-forced: its natural law is never observed
    "forced_outcome": "P(Y | do(), S=empty)",
    # two confounded treatments, each selector-forceable but never jointly
    "split_thicket": "P(Y | do(A1=a1, A2=a2), S=empty)",
    # the selector confounded with Y, no usable child outside Y's district
    "confounded_selector_hedge": "P(Y | do(A=a), S=empty)",
    # a fully observed selection-completely-at-random compliance model
    "scar": "P(Y | do(A=a), S=empty)",
    # an observational study; compliance_experimental.lsg is its experiment
    "compliance_pair": "P(Y | do(A=a))",
}


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph  # the graph handed to the identifiers (projection if hidden vars)
    dag: Optional[Graph] = None  # hidden-variable DAG generating it, when distinct
    query: str = ""


def _read(name: str) -> Optional[Graph]:
    path = FIXTURE_DIR / f"{name}.lsg"
    return parse_graph(path.read_text()) if path.exists() else None


def _fixture(name: str) -> Fixture:
    return Fixture(name, _read(name), _read(f"{name}_dag"), QUERIES[name])


def compliance_pair():
    """Observational study plus a compliance-controlled experiment on the same
    population.  Returns (model fixture, experimental CADMG)."""
    return _fixture("compliance_pair"), _read("compliance_experimental")


def all_fixtures() -> dict:
    return {name: _fixture(name) for name in QUERIES}
