"""Latent projection, edge-label derivation, context graphs and SWIGs."""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .graph import (
    BIDIRECTED,
    DIRECTED,
    Edge,
    Graph,
    GraphError,
    SelectorValue,
    bidirected,
    directed,
)


def derive_labels(g: Graph) -> Graph:
    """Attach the label {B} to every edge A -> B with the selector among B's
    parents and A not the selector itself; all other edges stay unlabelled."""
    if any(e.kind == BIDIRECTED for e in g.edges):
        raise GraphError("label derivation requires a DAG")
    if g.selector is None:
        raise GraphError("label derivation requires a selector")
    sel_children = g.children(g.selector)
    out = []
    for e in g.edges:
        if e.head in sel_children and e.tail != g.selector:
            out.append(directed(e.tail, e.head, {e.head}))
        else:
            out.append(directed(e.tail, e.head))
    # the same directed edges, labelled only in a graph with a selector
    return g._derive(edges=frozenset(out))


def _prune_label_sets(label_sets: set) -> list:
    """Drop any label set that is a superset of another: the edge it labels is
    removed only if the smaller-labelled parallel edge is removed too."""
    keep = []
    for ls in sorted(label_sets, key=lambda s: (len(s), sorted(s))):
        if not any(k < ls or k == ls for k in keep):
            keep.append(ls)
    return keep


def latent_project(g: Graph, keep: Iterable[str]) -> Graph:
    """Project the labelled DAG (or SWIG) ``g`` onto ``keep``.

    Hidden vertices are everything outside ``keep``.  Directed paths through
    hidden vertices become directed edges labelled by the union of the path
    labels; hidden treks with arrowheads into both endpoints become labelled
    bidirected edges.  Parallel edges with incomparable label sets are kept,
    so the result is in general a multigraph.
    """
    keep = frozenset(keep)
    unknown = keep - g.vertices
    if unknown:
        raise GraphError(f"unknown vertices {sorted(unknown)}")
    if any(e.kind == BIDIRECTED for e in g.edges):
        raise GraphError("latent projection expects a directed (labelled) graph")
    if g.selector is not None and g.selector not in keep:
        raise GraphError("the selector cannot be projected out")
    hidden = g.vertices - keep
    if hidden & g.fixed:
        raise GraphError("cannot project out fixed vertices")

    children = {v: sorted(g.children(v)) for v in g.vertices}
    labels: dict = {}  # (tail, head) -> the labels of its parallel edges
    for e in g.edges:
        labels.setdefault((e.tail, e.head), []).append(e.label)

    # directed: simple hidden-interior paths between kept vertices
    directed_sets: dict = {}
    for x in sorted(keep):
        for w, lab, _ in _hidden_paths(x, children, labels, keep):
            directed_sets.setdefault((x, w), set()).add(lab)

    # bidirected: hidden treks x <- ... <- h -> ... -> y
    bidirected_sets: dict = {}
    for h in sorted(hidden):
        branches = [(w, lab, frozenset(path)) for w, lab, path in _hidden_paths(h, children, labels, keep)]
        for x, lx, px in branches:
            for y, ly, py in branches:
                if y <= x:
                    continue
                if (px & py) - {h}:
                    continue
                bidirected_sets.setdefault((x, y), set()).add(lx | ly)

    edges = []
    for (x, y), sets in directed_sets.items():
        for lab in _prune_label_sets(sets):
            edges.append(directed(x, y, lab))
    for (x, y), sets in bidirected_sets.items():
        for lab in _prune_label_sets(sets):
            edges.append(bidirected(x, y, lab))

    # a directed edge stands for a path of the acyclic g, and both kinds end
    # with an arrowhead at a vertex that has a parent in g, so is not fixed;
    # labels come from g, whose selector is kept
    return g._derive(
        random=g.random & keep,
        fixed=g.fixed & keep,
        latent=g.latent & keep,
        edges=frozenset(edges),
    )


def _hidden_paths(start: str, children: dict, labels: dict, keep: frozenset) -> list:
    """Every directed path from ``start`` that ends at its first kept vertex
    after ``start``, depth first: (end, union of the edge labels, the
    vertices before the end).  The graph is acyclic (``latent_project``
    takes only directed graphs, which are validated acyclic), so every such
    path is simple."""
    found = []
    stack = [(start, frozenset(), (start,))]
    while stack:
        v, lab, path = stack.pop()
        for w in children[v]:
            for edge_lab in labels[(v, w)]:
                lab2 = lab | edge_lab
                if w in keep:
                    found.append((w, lab2, path))
                else:
                    stack.append((w, lab2, path + (w,)))
    return found


def context_graph(g: Graph, s: SelectorValue) -> Graph:
    """Resolve edge labels at the selector value ``s``: every edge whose label
    names a vertex ``s`` intervenes on is removed, remaining labels are
    stripped, and newly identical parallel edges merge.  The result is a plain
    (C)ADMG."""
    # both branches keep a subset of g's edges, unlabelled
    if g.selector is None:
        if s.pattern:
            raise GraphError("serious selector value for a graph without selector")
        return g._derive(edges=frozenset(Edge(e.kind, e.tail, e.head) for e in g.edges))
    if g.support is not None and s.pattern not in g.support:
        raise GraphError(
            f"selector pattern {sorted(s.pattern)} outside the declared support"
        )
    out = []
    for e in g.edges:
        if e.label & s.pattern:
            continue
        out.append(Edge(e.kind, e.tail, e.head))
    return g._derive(edges=frozenset(out))


def fixed_name(v: str) -> str:
    return f"{v}__do"


def swig(
    g: Graph,
    a: Mapping[str, object],
    s: Optional[SelectorValue] = None,
) -> Graph:
    """Single-world intervention graph for intervening on the keys of ``a``.

    Each intervened vertex splits into a random half (keeping its name and
    its incoming edges) and a fixed half (named via ``fixed_name``, taking
    the outgoing edges).  When the selector is intervened at ``s``, every
    random child the value is serious for is deleted with its edges and the
    remaining labels are resolved; otherwise labels are kept.
    """
    targets = dict(a)
    if s is not None:
        if g.selector is None:
            raise GraphError("selector value given for a graph without selector")
        if g.selector in targets:
            if targets[g.selector] is not s and targets[g.selector] != s:
                raise GraphError("selector value inconsistent with the intervention")
        targets[g.selector] = s
    if g.selector is not None and g.selector in targets and s is None:
        raise GraphError("intervening on the selector requires its value")
    unknown = frozenset(targets) - g.random
    if unknown:
        raise GraphError(f"cannot intervene on {sorted(unknown)}")
    halves = frozenset(fixed_name(t) for t in targets)
    clash = halves & g.vertices
    if clash:
        raise GraphError(f"fixed halves already vertices: {sorted(clash)}")

    # random vertices deleted outright: serious children of the selector
    serious = frozenset()
    if s is not None:
        serious = g.children(g.selector) & g.random & s.pattern

    edges = []
    for e in g.edges:
        label = e.label
        if s is not None:
            if label & s.pattern:
                continue
            label = frozenset()
        if e.kind == DIRECTED:
            tail = fixed_name(e.tail) if e.tail in targets else e.tail
            head = e.head
        else:
            tail, head = e.tail, e.head
        if tail in serious or head in serious:
            continue
        edges.append(Edge(e.kind, tail, head, label))

    # the fixed halves are new vertices and only tails; the rest loses
    # vertices and edges, and labels go only with a given value
    return g._derive(
        random=g.random - serious,
        fixed=g.fixed | halves,
        latent=g.latent - serious,
        edges=frozenset(edges),
    )


def bidirected_latents(g: Graph) -> dict:
    """Deterministic fresh latent name for every bidirected edge of ``g``."""
    names = {}
    taken = set(g.vertices)
    for e in sorted(g.edges, key=Edge.sort_key):
        if e.kind != BIDIRECTED:
            continue
        u = f"U_{e.tail}_{e.head}"
        while u in taken:
            u += "x"
        taken.add(u)
        names[e] = u
    return names


def canonical_hidden_dag(g: Graph) -> Graph:
    """A hidden-variable DAG whose latent projection is the ADMG ``g``: every
    bidirected edge is replaced by a fresh latent common parent.  Labels are
    dropped (they are re-derivable for selection graphs)."""
    names = bidirected_latents(g)
    edges = []
    for e in sorted(g.edges, key=Edge.sort_key):
        if e.kind == DIRECTED:
            edges.append(directed(e.tail, e.head))
        else:
            u = names[e]
            edges.append(directed(u, e.tail))
            edges.append(directed(u, e.head))
    # the fresh latents are new names and sources, each a parent of two
    # random vertices (bidirected edges meet no fixed vertex)
    return g._derive(
        random=g.random | frozenset(names.values()),
        latent=g.latent | frozenset(names.values()),
        edges=frozenset(edges),
    )
