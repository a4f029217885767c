"""The public surface of the package: the names ``import selid`` exports.

A name added to or removed from ``selid/__init__.py`` must show up here as
a test diff, not silently.
"""

import ast
import re
import types
from pathlib import Path

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
    "sequential_baseline",
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



def test_every_function_has_a_reader_in_the_package():
    # a top-level function that nothing else in src/selid names is dead code
    # or a test helper, which belongs under tests/ (tests/reference.py); a
    # public name is named where selid/__init__.py binds it.  fixtures.py is
    # exempt: it builds the example graphs of the tests and the README, and
    # the package never calls it
    texts = {p.name: p.read_text() for p in sorted(Path(selid.__file__).parent.glob("*.py"))}
    unread = []
    for name, text in texts.items():
        if name == "fixtures.py":
            continue
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            elsewhere = [t for other, t in texts.items() if other != name]
            elsewhere.append("".join(lines[:start] + lines[node.end_lineno:]))
            if not any(re.search(rf"\b{node.name}\b", t) for t in elsewhere):
                unread.append(f"{name}:{node.name}")
    assert unread == []
