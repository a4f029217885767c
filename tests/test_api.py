"""The public surface of the package: the names ``import selid`` exports.

A name added to or removed from ``selid/__init__.py`` must show up here as
a test diff, not silently.
"""

import types

import selid

PUBLIC = {
    # graphs
    "Edge", "Graph", "GraphError", "NotFixableError", "SelectorSupport",
    "SelectorValue", "bidirected", "directed", "laidback",
    # projection
    "canonical_hidden_dag", "context_graph", "derive_labels", "latent_project",
    "swig",
    # estimands
    "BaseKernel", "Estimand", "Product", "Ratio", "Restrict", "SelectorAssign",
    "SumOver", "Sym", "Var", "condition", "fix_kernel", "marginalize",
    "normal_form", "render", "restrict", "structurally_equal",
    # identification
    "DatasetSpec", "FailHedge", "FailPositivity", "FailThicket", "FailUnknown",
    "Identified", "Query", "identify", "identify_fused", "identify_selected",
    "selected_g_formula", "sequential_baseline",
    # the .lsg grammar
    "parse_graph", "parse_query", "render_graph",
    # the oracle
    "DiscreteCsScm", "Table", "dataset_table", "eval_estimand",
    "interventional", "joint", "parity_witness", "random_cs_scm", "verify",
}


def test_public_names():
    # submodules become attributes of the package as they are imported, so
    # only the names __init__ binds itself are counted
    exported = {
        name for name, value in vars(selid).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC

