"""Identification of interventional queries under systematic selection.

A library and CLI that decides identifiability of queries of the form
p(outcomes(treatments, selector=observational)) in hidden-variable causal
models with a selection variable, emits the identifying estimand as a
symbolic expression, and verifies verdicts against an exact-enumeration
oracle over discrete rational models.
"""

from .estimand import (
    BaseKernel,
    Estimand,
    Product,
    Ratio,
    Restrict,
    SelectorAssign,
    SumOver,
    Sym,
    Var,
    condition,
    fix_kernel,
    marginalize,
    normal_form,
    render,
    restrict,
    structurally_equal,
)
from .graph import (
    Edge,
    Graph,
    GraphError,
    NotFixableError,
    SelectorSupport,
    SelectorValue,
    bidirected,
    directed,
    laidback,
)
from .identify import (
    DatasetSpec,
    FailHedge,
    FailPositivity,
    FailThicket,
    FailUnknown,
    Identified,
    Query,
    identify,
    identify_fused,
    identify_selected,
    sequential_baseline,
)
from .lsg import parse_graph, parse_query, render_graph
from .oracle import (
    DiscreteCsScm,
    Table,
    dataset_table,
    eval_estimand,
    interventional,
    joint,
    parity_witness,
    random_cs_scm,
    verify,
)
from .projection import (
    canonical_hidden_dag,
    context_graph,
    derive_labels,
    latent_project,
    swig,
)

__version__ = "0.1.0"
