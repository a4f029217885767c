"""Reference procedures that the tests compare the package against.

None of these runs in the package itself:

* ``selected_g_formula`` identifies in a fully observed selection model (a
  labelled DAG) by a product of one parent conditional per vertex of the
  ancestral set.  It is the special case of ``identify_selected`` with
  singleton districts, and the tests hold the two to the same answer
  (``same_answer``).
* ``fix_kernel`` fixes a whole expression at once: along a fixing sequence
  it is the generic reference for ``ChainKernel.fix_to``, which fixes one
  factor per step.  ``condition`` conditions an expression on some of its
  outcomes.
* ``exact_ci`` decides a conditional independence in an exact joint table,
  and ``equals``, ``project_constant`` and ``defined_everywhere`` compare
  and trim oracle tables.
"""

from typing import Iterable

from selid.estimand import BaseKernel, Estimand, EstimandError, Ratio, SumOver, marginalize, restrict
from selid.graph import FixState, Graph
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
from selid.oracle import _SAME, UNDEF, Table, _equal_rows, _once


def selected_g_formula(g: Graph, query: Query):
    """Product of parent conditionals over the SWIG-ancestral set, each factor
    at a selector value that leaves its vertex natural; identified exactly
    when such a value exists for every factor."""
    if g.latent or any(e.kind == "bidirected" for e in g.edges):
        raise QueryError("the selected g-formula needs a fully observed model")
    if g.selector is None:
        raise QueryError("no selector; use identify instead")
    _validate_query(g, query)
    sel = g.selector
    children = _selector_children(g)
    ystar = _ancestral_set(g, query)
    factors = []
    for v in sorted(ystar):
        required = children & query.treated & g.ancestors({v})
        patterns = _candidate_patterns(g.support, frozenset({v}), required)
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
    return equals(pxyz.multiply(pz), pxz.multiply(pyz))


def fix_kernel(e: Estimand, g: Graph | FixState, v: str) -> Estimand:
    """Divide out the kernel factor of ``v``; pair with ``g.fix(v)``.

    For a childless vertex this is marginalization; otherwise the kernel is
    divided by the conditional of ``v`` given its nondescendants.
    """
    g.check_fixable(v)
    if v not in e.outcomes():
        raise EstimandError(f"{v!r} is not an outcome variable of the kernel")
    de = g.descendants(v) & e.outcomes()
    if de == {v}:
        return SumOver(e, de)
    if de == e.outcomes():
        # no nondescendants among the outcomes: divide by the plain margin
        return Ratio(e, SumOver(e, de - {v}))
    num_keep = SumOver(e, de - {v})  # kernel over nd(v) + v
    den_keep = SumOver(e, de)  # kernel over nd(v)
    return Ratio(e, Ratio(num_keep, den_keep))


def condition(e: Estimand, b: Iterable[str]) -> Estimand:
    """Condition ``e`` on its outcome variables ``b``."""
    b = frozenset(b)
    if not b:
        return e
    extra = b - e.outcomes()
    if extra:
        raise EstimandError(f"cannot condition on non-outcome variables {sorted(extra)}")
    return Ratio(e, marginalize(e, e.outcomes() - b))


def equals(a: Table, b: Table) -> bool:
    """Whether ``a`` and ``b`` have the same axes and equal values at every
    row; ``UNDEF`` equals ``UNDEF`` alone."""
    if set(a.axes) != set(b.axes):
        return False
    return _equal_rows((a._read_as(b), a.denom), (b.values, b.denom))


def project_constant(t: Table, axes: Iterable[str]) -> Table:
    """``t`` without ``axes``, which it is checked, exactly, not to vary over."""
    return _once([t], lambda plan, a: plan.sum_out(a, axes, _SAME))


def defined_everywhere(t: Table) -> bool:
    return not any(v is UNDEF for v in t.values)
