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
            out.append(directed(e.tail, e.head) if e.label else e)
    # the same directed edges, labelled only in a graph with a selector
    return g._derive(edges=frozenset(out))


def _prune_label_sets(label_sets) -> list:
    """Drop any label set that is a superset of another: the edge it labels is
    removed only if the smaller-labelled parallel edge is removed too."""
    if len(label_sets) < 2:
        return list(label_sets)
    keep = []
    for ls in sorted(label_sets, key=lambda s: (len(s), sorted(s))):
        if not any(k <= ls for k in keep):
            keep.append(ls)
    return keep


MAX_PROJECTION_STATES = 1 << 22  # the largest state bound latent_project searches


class ProjectionCapError(GraphError):
    """A latent projection whose state bound exceeds ``MAX_PROJECTION_STATES``."""


def latent_project(g: Graph, keep: Iterable[str]) -> Graph:
    """Project the labelled DAG (or SWIG) ``g`` onto ``keep`` (Verma & Pearl,
    1990; Evans, *Graphs for margins of Bayesian networks*, 2016).

    Hidden vertices are everything outside ``keep``.  A directed path between
    kept vertices through hidden ones becomes a directed edge, a hidden trek
    x <- ... <- h -> ... -> y a bidirected edge, each labelled by the union
    of its edge labels; of parallel edges only minimal label sets are kept,
    so the result is in general a multigraph.  No path is listed: a search
    from each vertex visits each state (hidden vertex, labels so far) once
    and records (kept end, labels).  A kept vertex's ends are its directed
    edges; a hidden h's ends x < y pair into x <-> y.  Branches sharing a
    hidden vertex need no exclusion: their suffixes from the last shared
    vertex form a trek with a subset of their labels, so the minimal sets
    are the same.  A kept-to-kept edge that survives is the same ``Edge``.

    The labels of a state at hidden h are a subset of the names C(h) on the
    edges into h and into its ancestors through hidden vertices, so a search
    visits at most sum_h 2^|C(h)| states (|H| without labels) and the |V|
    searches |V| times that.  A bound past ``MAX_PROJECTION_STATES`` raises
    ``ProjectionCapError`` before any search.
    """
    keep = frozenset(keep)
    unknown = keep - g.vertices
    if unknown:
        raise GraphError(f"unknown vertices {sorted(unknown)}")
    if g.selector is not None and g.selector not in keep:
        raise GraphError("the selector cannot be projected out")
    hidden = g.vertices - keep
    if hidden & g.fixed:
        raise GraphError("cannot project out fixed vertices")

    out: dict = {}  # tail -> its out-edges
    into: dict = {}  # hidden head -> its in-edges
    for e in g.edges:
        if e.kind == BIDIRECTED:
            raise GraphError("latent projection expects a directed (labelled) graph")
        out.setdefault(e.tail, []).append(e)
        if e.head in hidden:
            into.setdefault(e.head, []).append(e)
    states = len(hidden)  # per search
    if any(e.label for es in into.values() for e in es):
        carried: dict = {}  # hidden h -> C(h)
        for h in g.topological_order():
            if h in hidden:
                carried[h] = frozenset().union(*(e.label | carried.get(e.tail, frozenset()) for e in into.get(h, ())))
        states = sum(1 << len(c) for c in carried.values())
    bound = len(g.vertices) * states
    if bound > MAX_PROJECTION_STATES:
        raise ProjectionCapError(f"projection may visit {bound} search states, past {MAX_PROJECTION_STATES}")

    edges = []
    for x in keep.intersection(out):
        for y, found in _hidden_ends(x, out, keep).items():
            for lab in _prune_label_sets(found):
                edges.append(found[lab] or directed(x, y, lab))
    treks: dict = {}  # (x, y) -> the label sets of hidden treks x <-> y
    for h in hidden.intersection(out):
        ends = sorted((y, _prune_label_sets(found)) for y, found in _hidden_ends(h, out, keep).items())
        for i, (x, lxs) in enumerate(ends):
            for y, lys in ends[i + 1 :]:
                treks.setdefault((x, y), set()).update(lx | ly for lx in lxs for ly in lys)
    for (x, y), sets in treks.items():
        edges.extend(Edge(BIDIRECTED, x, y, lab) for lab in _prune_label_sets(sets))

    # a directed edge stands for a path of the acyclic g, and both kinds end
    # with an arrowhead at a vertex that has a parent in g, so is not fixed;
    # labels come from g, whose selector is kept
    return g._derive(
        random=g.random & keep,
        fixed=g.fixed & keep,
        latent=g.latent & keep,
        edges=frozenset(edges),
    )


def _hidden_ends(start: str, out: dict, keep: frozenset) -> dict:
    """The kept ends of the directed paths from ``start`` with a hidden
    interior: end -> {label union: the edge start -> end so labelled, or
    None}.  Each state (hidden vertex, labels so far) is visited once.  This
    is the walk of ``_Adjacency._closure`` over labelled states; a walk
    shared through a per-state step callback was slower for both."""
    ends: dict = {}
    seen = set()
    stack = [(start, frozenset())]
    while stack:
        v, lab = stack.pop()
        for e in out.get(v, ()):
            w, lab2 = e.head, (lab | e.label if e.label else lab)
            if w in keep:
                found = ends.setdefault(w, {})
                if v == start:
                    found[lab2] = e
                else:
                    found.setdefault(lab2, None)
            elif (w, lab2) not in seen:
                seen.add((w, lab2))
                stack.append((w, lab2))
    return ends


def context_graph(g: Graph, s: SelectorValue) -> Graph:
    """Resolve edge labels at the selector value ``s``: every edge whose label
    names a vertex ``s`` intervenes on is removed, remaining labels are
    stripped, and newly identical parallel edges merge.  The result is a plain
    (C)ADMG."""
    if g.selector is None:
        if s.pattern:
            raise GraphError("serious selector value for a graph without selector")
    elif s.pattern not in g.support:
        raise GraphError(f"selector pattern {sorted(s.pattern)} outside the declared support")
    # a subset of g's edges, unlabelled
    out = [Edge(e.kind, e.tail, e.head) if e.label else e for e in g.edges if not e.label & s.pattern]
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
        edges.append(e if (tail, label) == (e.tail, e.label) else Edge(e.kind, tail, head, label))

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
            edges.append(directed(e.tail, e.head) if e.label else e)
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
