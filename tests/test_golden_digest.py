"""A golden digest of identification results over random selection models.

One line per result, hashed: the benchmark's ``sweep_case`` graphs at eight
sizes through ``identify_selected``, and the 1000-seed run of
``random_selection_model`` through ``identify_selected`` and
``sequential_baseline``.  A change to how identification computes its
results must leave every verdict and every rendered estimand as it was.
The digest was recorded before fixing moved to one working state per walk,
and again when a step that is not clean came to rewrite its district's
block alone: 49 lines changed then, no verdict kind among them, and every
changed estimand the oracle can enumerate verified (CHANGES.md lists them).
"""

import hashlib
import types
from dataclasses import fields

from selid.estimand import render
from selid.identify import identify_selected, sequential_baseline
from selid.projection import derive_labels, latent_project

from test_bench_contract import MODULES, _load, _module
from test_random_models import random_selection_model

GOLDEN_SIZES = (16, 24, 32, 40, 48, 64, 96, 128)
GOLDEN_SWEEP_SEEDS = 32
GOLDEN_MODEL_SEEDS = 1000
GOLDEN_SHA256 = "f7e2879fc2cf3a65337326ed044163a4dd2d1a1e0cedf7b207fe8603c345395b"


def describe(result) -> str:
    """The kind of ``result`` and its rendered estimand, or its failure
    fields with every set sorted, so the line does not depend on the hash
    seed."""
    if result.kind == "identified":
        return f"identified {render(result.estimand)}"
    parts = [result.kind]
    for f in fields(result):
        if f.name != "kind":
            value = getattr(result, f.name)
            parts.append(f"{f.name}={sorted(value) if isinstance(value, frozenset) else value}")
    return " ".join(parts)


def golden_lines() -> list:
    S = types.SimpleNamespace(**{m: _module(m) for m in MODULES})
    workloads = _load("workloads")
    lines = []
    for n in GOLDEN_SIZES:
        for seed in range(GOLDEN_SWEEP_SEEDS):
            dag, obs, query = workloads.sweep_case(S, n, seed)
            proj = latent_project(derive_labels(dag), obs)
            lines.append(f"sweep_case {n}/{seed}: {describe(identify_selected(proj, query))}")
    for seed in range(GOLDEN_MODEL_SEEDS):
        case = random_selection_model(seed)
        if case is None:
            lines.append(f"model {seed}: none")
            continue
        _, proj, query = case
        lines.append(f"model {seed} one-shot: {describe(identify_selected(proj, query))}")
        lines.append(f"model {seed} baseline: {describe(sequential_baseline(proj, query))}")
    return lines


def test_identification_results_match_the_golden_digest():
    lines = golden_lines()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 2256
    assert digest == GOLDEN_SHA256
