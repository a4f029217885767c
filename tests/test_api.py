"""The public surface of the package: the names ``import selid`` exports.

A name added to or removed from ``selid/__init__.py`` must show up here as
a test diff, not silently.
"""

import ast
import collections
import inspect
import re
import types
from pathlib import Path

import selid

PUBLIC = {
    # graphs
    "Edge", "Graph", "GraphError", "NotFixableError", "SelectorSupport",
    "SelectorValue", "bidirected", "directed",
    # projection
    "canonical_hidden_dag", "context_graph", "derive_labels", "latent_project",
    "swig",
    # estimands
    "BaseKernel", "Estimand", "Product", "Ratio", "Restrict", "SelectorAssign",
    "SumOver", "Sym", "Var", "marginalize", "normal_form", "render",
    "restrict",
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


def test_the_graph_is_the_one_source_of_the_support():
    # the selection procedures and the model generator read the selector
    # support from the graph and take no other; ``identify`` reads its law
    # as ``p`` and takes no base name (the baseline substitutes its law)
    params = {
        f.__name__: list(inspect.signature(f).parameters)
        for f in (selid.identify, selid.identify_selected, selid.sequential_baseline, selid.random_cs_scm)
    }
    assert params == {
        "identify": ["g", "query"],
        "identify_selected": ["g", "query"],
        "sequential_baseline": ["g", "query"],
        "random_cs_scm": ["g", "seed", "domain_size"],
    }


def _reads(tree) -> collections.Counter:
    """The names ``tree`` reads in code: each ``ast.Name`` and the attribute
    of each ``ast.Attribute``, f-string fields included.  Docstrings,
    comments, messages and import lists are not code that reads a name."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_function_has_a_reader_in_the_package():
    # a function or method that no code in src/selid reads, outside its own
    # body, is dead code or a test helper, which belongs under tests/
    # (tests/reference.py).  bench/ wraps some names by string, so a name
    # anywhere in its text counts as read.  Dunder methods are called by
    # the language
    package = Path(selid.__file__).parent
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    reads = sum(map(_reads, trees.values()), collections.Counter())
    bench = "\n".join(p.read_text() for p in sorted((package.parents[1] / "bench").glob("*.py")))
    unread = []
    for name, tree in trees.items():
        for top in tree.body:
            defs = [top] if not isinstance(top, ast.ClassDef) else top.body
            for node in defs:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                    continue
                if reads[node.name] == _reads(node)[node.name] and not re.search(rf"\b{node.name}\b", bench):
                    unread.append(f"{name}:{node.name}")
    assert unread == []
