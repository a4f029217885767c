"""Reference procedures that the tests compare the package against.

None of these runs in the package itself:

* ``selected_g_formula`` identifies in a fully observed selection model (a
  labelled DAG) by a product of one parent conditional per vertex of the
  ancestral set.  It is the special case of ``identify_selected`` with
  singleton districts, and the tests hold the two to the same answer
  (``same_answer``).
* ``exact_ci`` decides a conditional independence in an exact joint table.
"""

from typing import Optional

from selid.estimand import BaseKernel, Estimand, restrict
from selid.graph import Graph, SelectorSupport
from selid.identify import (
    FailPositivity,
    Identified,
    Query,
    QueryError,
    _ancestral_set,
    _assemble,
    _candidate_patterns,
    _selector_assign,
    _selector_children,
    _validate_query,
)
from selid.oracle import Table


def selected_g_formula(g: Graph, query: Query, support: Optional[SelectorSupport] = None):
    """Product of parent conditionals over the SWIG-ancestral set, each factor
    at a selector value that leaves its vertex natural; identified exactly
    when such a value exists for every factor."""
    if g.latent or any(e.kind == "bidirected" for e in g.edges):
        raise QueryError("the selected g-formula needs a fully observed model")
    if g.selector is None:
        raise QueryError("no selector; use identify instead")
    support = support or g.support
    if support is None:
        raise QueryError("a selector support is required")
    _validate_query(g, query)
    sel = g.selector
    children = _selector_children(g)
    ystar = _ancestral_set(g, query)
    factors = []
    for v in sorted(ystar):
        required = children & query.treated & g.ancestors({v})
        patterns = _candidate_patterns(support, frozenset({v}), required)
        if not patterns:
            return FailPositivity(frozenset({v}))
        pattern = patterns[0]
        pa = g.parents(v)
        e: Estimand = BaseKernel("p", frozenset({v}), pa)
        asg = {w: tok for w, tok in query.treatments if w in pa}
        if sel in pa:
            asg[sel] = _selector_assign(pattern, query, pa | {v})
        if asg:
            e = restrict(e, asg)
        factors.append(e)
    return Identified(_assemble(factors, ystar, query))


def same_answer(a, b) -> bool:
    """The two verdicts agree in kind, and in their estimands (``==``) or
    the districts they name."""
    if a.kind != b.kind:
        return False
    return a.estimand == b.estimand if a.kind == "identified" else a.district == b.district


def exact_ci(t: Table, x, y, z) -> bool:
    """Exact conditional independence X indep Y | Z in the joint table ``t``,
    decided by cross-multiplication (no divisions)."""
    x, y, z = frozenset(x), frozenset(y), frozenset(z)
    pxyz = t.sum_out(frozenset(t.axes) - x - y - z)
    pz, pxz, pyz = (pxyz.sum_out(w) for w in (x | y, y, x))
    return pxyz.multiply(pz).equals(pxz.multiply(pyz))
