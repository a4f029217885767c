"""Labelled mixed multigraphs: DAGs, ADMGs, CADMGs and their selection-labelled variants.

One immutable ``Graph`` class covers every graph family used by the
identification machinery.  Vertices are plain strings.  Random vertices may
carry a ``latent`` mark (pre-projection only) and at most one vertex is the
selector.  Edges are directed or bidirected and may carry a label naming
selector children; two parallel edges of the same kind must differ in label.

All operations are pure functions over immutable data and are safe to share
across threads; the one mutable class, ``FixState``, is the private working
state of a single fixing walk.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Optional

DIRECTED = "directed"
BIDIRECTED = "bidirected"


class GraphError(ValueError):
    """Raised when a graph invariant or operation precondition is violated."""


class NotFixableError(GraphError):
    """Fixing was attempted on a vertex that is not fixable.

    ``witness`` is the set dis(v) & de(v), which has more than one element
    exactly when the vertex is not fixable.
    """

    def __init__(self, vertex: str, witness: frozenset):
        self.vertex = vertex
        self.witness = witness
        super().__init__(f"{vertex} is not fixable; dis & de = {sorted(witness)}")


@dataclass(frozen=True)
class Edge:
    kind: str
    tail: str
    head: str
    label: frozenset = frozenset()

    def sort_key(self):
        return (self.kind, self.tail, self.head, sorted(self.label))

    def __post_init__(self):
        if self.kind not in (DIRECTED, BIDIRECTED):
            raise GraphError(f"unknown edge kind {self.kind!r}")
        if self.tail == self.head:
            raise GraphError(f"self loop on {self.tail}")
        if self.kind == BIDIRECTED and self.tail > self.head:
            # canonical endpoint order for bidirected edges
            lo, hi = self.head, self.tail
            object.__setattr__(self, "tail", lo)
            object.__setattr__(self, "head", hi)

    def endpoints(self) -> frozenset:
        return frozenset((self.tail, self.head))


def directed(tail: str, head: str, label: Iterable[str] = ()) -> Edge:
    return Edge(DIRECTED, tail, head, frozenset(label))


def bidirected(a: str, b: str, label: Iterable[str] = ()) -> Edge:
    a, b = sorted((a, b))
    return Edge(BIDIRECTED, a, b, frozenset(label))


@dataclass(frozen=True)
class SelectorValue:
    """A value of the selector: which children are intervened, at what values.

    ``pattern`` is the set of children with intervene-flag 1; ``values`` maps
    each of them to a value: a symbolic token in an estimand, a domain value
    in a model.  The observational value ``OBSERVATIONAL`` has an empty
    pattern.
    """

    pattern: frozenset = frozenset()
    values: tuple = ()  # sorted tuple of (child, value) pairs

    def __post_init__(self):
        object.__setattr__(self, "pattern", frozenset(self.pattern))
        vals = dict(self.values)
        if set(vals) != self.pattern:
            raise GraphError("selector value present iff flag is 1")
        object.__setattr__(self, "values", tuple(sorted(vals.items())))

    def sort_key(self):
        return (sorted(self.pattern), [(c, repr(v)) for c, v in self.values])


OBSERVATIONAL = SelectorValue()


@dataclass(frozen=True)
class SelectorSupport:
    """The allowed seriousness patterns of the selector.

    Each pattern names the set of children jointly intervened on; value
    components are symbolic and unconstrained.  The empty pattern is the
    observational context.
    """

    patterns: frozenset  # frozenset of frozensets of child names

    def __post_init__(self):
        if not self.patterns:
            raise GraphError("selector support must be non-empty")
        object.__setattr__(
            self, "patterns", frozenset(frozenset(p) for p in self.patterns)
        )

    def __iter__(self):
        return iter(sorted(self.patterns, key=lambda p: (len(p), sorted(p))))

    def __contains__(self, pattern) -> bool:
        return frozenset(pattern) in self.patterns

    def laidback_patterns(self, d: Iterable[str]):
        dset = frozenset(d)
        return [p for p in self if not (p & dset)]


class _Adjacency:
    """Genealogy read off adjacency tables: the read-only side that the
    frozen ``Graph`` and the mutable ``FixState`` share.

    A subclass provides ``random``, ``vertices``, ``selector`` and the
    tables ``_parents``, ``_children`` and ``_siblings`` (vertex -> frozenset
    of neighbours).
    """

    __slots__ = ()

    def parents(self, x) -> frozenset:
        return self._relation_over(x, self._parents)

    def children(self, x) -> frozenset:
        return self._relation_over(x, self._children)

    def siblings(self, x) -> frozenset:
        return self._relation_over(x, self._siblings)

    def _relation_over(self, x, table) -> frozenset:
        if isinstance(x, str):
            x = (x,)
        out = set()
        for v in x:
            if v not in table:
                raise GraphError(f"unknown vertex {v!r}")
            out |= table[v]
        return frozenset(out)

    def _closure(self, x, table) -> frozenset:
        """``x`` and everything reachable from it through ``table``."""
        if isinstance(x, str):
            x = (x,)
        seen = set()
        stack = list(x)
        verts = self.vertices
        for v in stack:
            if v not in verts:
                raise GraphError(f"unknown vertex {v!r}")
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(table[v])
        return frozenset(seen)

    def ancestors(self, x) -> frozenset:
        return self._closure(x, self._parents)

    def descendants(self, x) -> frozenset:
        return self._closure(x, self._children)

    def district_of(self, x) -> frozenset:
        """Bidirected-connected component over random vertices."""
        if isinstance(x, str):
            x = (x,)
        for v in x:
            if v not in self.random:
                raise GraphError(f"district defined for random vertices, got {v!r}")
        # no bidirected edge meets a fixed vertex, so siblings are random
        return self._closure(x, self._siblings)

    def is_fixable(self, v: str) -> bool:
        if v not in self.random:
            raise GraphError(f"{v!r} is not a random vertex")
        return self._fix_witness(v) == {v}

    def check_fixable(self, v: str) -> None:
        """Raise unless ``v`` is random and fixable: ``NotFixableError``
        carries the witness ``dis(v) & de(v)``."""
        if v not in self.random:
            raise GraphError(f"{v!r} is not a random vertex")
        witness = self._fix_witness(v)
        if witness != {v}:
            raise NotFixableError(v, witness)

    def _fix_witness(self, v: str) -> frozenset:
        """``dis(v) & de(v)`` for a random ``v``, which is ``{v}`` exactly
        when ``v`` is fixable."""
        if not (self._siblings[v] and self._children[v]):
            return frozenset((v,))  # its district or its descendants are {v}
        return self.district_of(v) & self.descendants(v)

    def topological_order(self) -> tuple:
        """Deterministic topological order (lexicographic Kahn)."""
        # the smallest ready vertex goes next
        pending = {v: len(ps) for v, ps in self._parents.items()}
        ready = [v for v, n in pending.items() if n == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in self._children[v]:
                pending[w] -= 1
                if pending[w] == 0:
                    heapq.heappush(ready, w)
        return tuple(order)


@dataclass(frozen=True)
class Graph(_Adjacency):
    """A mixed multigraph with random, fixed and latent vertices.

    ``fixed`` vertices receive no arrowheads; ``latent`` is a subset of
    ``random`` and only meaningful before latent projection.  ``selector``
    names the selection vertex when present, and ``support`` its allowed
    patterns.
    """

    random: frozenset
    fixed: frozenset = frozenset()
    edges: frozenset = frozenset()
    latent: frozenset = frozenset()
    selector: Optional[str] = None
    support: Optional[SelectorSupport] = None

    def __post_init__(self):
        object.__setattr__(self, "random", frozenset(self.random))
        object.__setattr__(self, "fixed", frozenset(self.fixed))
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "latent", frozenset(self.latent))
        self._validate()

    def _derive(self, **changes) -> "Graph":
        """This graph with ``changes`` applied, built without ``_validate``.

        Unnamed fields are taken from ``self``; a change may also seed a
        cached view (``vertices`` or an adjacency table).  Only derivations
        that keep every invariant by construction build through here, each
        saying why; a graph from outside data goes through ``Graph(...)``.
        """
        g = object.__new__(Graph)
        g.__dict__.update({f: getattr(self, f) for f in _FIELDS}, **changes)
        return g

    def _validate(self):
        if self.random & self.fixed:
            raise GraphError("random and fixed vertices must be disjoint")
        if not self.latent <= self.random:
            raise GraphError("latent vertices must be random")
        verts = self.vertices
        for v in verts:
            if not v:
                raise GraphError("empty vertex name")
        if self.selector is not None and self.selector not in verts:
            raise GraphError("selector must be a vertex of the graph")
        if self.support is not None and any(self.selector in p for p in self.support.patterns):
            raise GraphError("the selector support must not name the selector")
        seen = set()
        for e in self.edges:
            if e.tail not in verts or e.head not in verts:
                raise GraphError(f"edge endpoint not a vertex: {e}")
            if e.kind == DIRECTED and e.head in self.fixed:
                raise GraphError(f"directed edge into fixed vertex {e.head}")
            if e.kind == BIDIRECTED and (e.endpoints() & self.fixed):
                raise GraphError("bidirected edge at a fixed vertex")
            key = (e.kind, e.tail, e.head, e.label)
            if key in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(key)
            if e.label:
                if self.selector is None:
                    raise GraphError("labelled edge in a graph without selector")
                # labels may name selector children that were projected out
                # or fixed along the way; only sanity-check the names
                if any(not c for c in e.label):
                    raise GraphError("empty name in an edge label")
        # Kahn's order leaves out every vertex on a cycle or downstream of one
        if len(self.topological_order()) < len(self.vertices):
            raise GraphError("directed cycle")

    # -- basic views -------------------------------------------------------

    @cached_property
    def vertices(self) -> frozenset:
        return self.random | self.fixed

    @cached_property
    def _parents(self) -> dict:
        out = {v: set() for v in self.vertices}
        for e in self.edges:
            if e.kind == DIRECTED:
                out[e.head].add(e.tail)
        return {v: frozenset(s) for v, s in out.items()}

    @cached_property
    def _children(self) -> dict:
        out = {v: set() for v in self.vertices}
        for e in self.edges:
            if e.kind == DIRECTED:
                out[e.tail].add(e.head)
        return {v: frozenset(s) for v, s in out.items()}

    @cached_property
    def _siblings(self) -> dict:
        out = {v: set() for v in self.vertices}
        for e in self.edges:
            if e.kind == BIDIRECTED:
                out[e.tail].add(e.head)
                out[e.head].add(e.tail)
        return {v: frozenset(s) for v, s in out.items()}

    # bench/tracer.py wraps ancestors in Graph's own namespace
    ancestors = _Adjacency.ancestors

    def districts(self) -> list:
        """Partition of the random vertices into districts, sorted."""
        remaining = set(self.random)
        out = []
        while remaining:
            v = min(remaining)
            d = self.district_of(v)
            out.append(d)
            remaining -= d
        return sorted(out, key=lambda d: sorted(d))

    def topological_order(self) -> tuple:
        """Deterministic topological order (lexicographic Kahn), computed
        once per graph."""
        return self._order

    _order = cached_property(_Adjacency.topological_order)

    # -- structural edits ---------------------------------------------------

    def induced_subgraph(self, keep: Iterable[str]) -> "Graph":
        keep = frozenset(keep)
        unknown = keep - self.vertices
        if unknown:
            raise GraphError(f"unknown vertices {sorted(unknown)}")
        kept = [e for e in self.edges if e.endpoints() <= keep]
        if self.selector not in keep:
            # labels are meaningless without the selector
            kept = [Edge(e.kind, e.tail, e.head) for e in kept]
        # a subset of the vertices and of the edges among them, so no new
        # cycle, arrowhead at a fixed vertex or clash; a label stays only
        # with the selector
        return self._derive(
            random=self.random & keep,
            fixed=self.fixed & keep,
            latent=self.latent & keep,
            edges=frozenset(kept),
            selector=self.selector if self.selector in keep else None,
        )

    # -- separation ---------------------------------------------------------

    def m_separated(self, x, y, z=()) -> bool:
        """m-separation on the mixed graph; fixed vertices are always context.

        A path is blocked if a non-collider on it is conditioned on, or a
        collider on it is not an ancestor of the conditioning set.  Parallel
        edges and labels are irrelevant.
        """
        x = frozenset((x,) if isinstance(x, str) else x)
        y = frozenset((y,) if isinstance(y, str) else y)
        z = frozenset((z,) if isinstance(z, str) else z)
        for side in (x, y, z):
            unknown = side - self.vertices
            if unknown:
                raise GraphError(f"unknown vertices {sorted(unknown)}")
        if (x & y) or (x & z) or (y & z):
            raise GraphError("m-separation arguments must be pairwise disjoint")
        z_eff = z | (self.fixed - x - y)
        anc_z = self.ancestors(z_eff) if z_eff else frozenset()

        # State: (vertex, arrived with an arrowhead at this vertex?).
        start = [(v, False) for v in x]
        seen = set(start)
        stack = list(start)
        while stack:
            v, came_by_head = stack.pop()
            # (neighbours, arrowhead at v?, arrowhead at the neighbour?)
            for nbrs, mark_here, mark_there in (
                (self._children[v], False, True),
                (self._parents[v], True, False),
                (self._siblings[v], True, True),
            ):
                collider = came_by_head and mark_here
                if collider:
                    if v not in anc_z:
                        continue
                else:
                    if v in z_eff:
                        continue
                for w in nbrs:
                    if w in y:
                        return False
                    state = (w, mark_there)
                    if state not in seen:
                        seen.add(state)
                        stack.append(state)
        return True

    # -- fixing -------------------------------------------------------------

    def fix(self, v: str) -> "Graph":
        """Render ``v`` fixed, removing every edge with an arrowhead into it."""
        state = FixState(self)
        state.check_fixable(v)
        state.fix(v)
        return state.graph()

    def reachable(self, r: Iterable[str]) -> Optional[tuple]:
        """A valid fixing sequence for everything outside ``r``, if one exists.

        The sequence is the one ``FixState.fix_to`` takes, the smallest
        fixable name first, so it is deterministic.
        """
        r = frozenset(r)
        state = FixState(self)
        state.fix_to(r)
        return tuple(state.done) if state.random == r else None

    def reachable_closure(self, r: Iterable[str]) -> frozenset:
        """The unique smallest reachable superset of ``r``: the random set
        that ``FixState.fix_to`` ends at."""
        state = FixState(self)
        state.fix_to(r)
        return frozenset(state.random)


_FIELDS = tuple(f.name for f in fields(Graph))


class FixState(_Adjacency):
    """A graph under fixing, changed in place: the working state of a walk
    that fixes one vertex after another.

    It copies the graph's random set and adjacency tables once.  ``fix``
    updates only the entries that fixing one vertex changes, ``fix_to``
    walks toward a target set by such steps, and ``graph``
    builds the graph the walk ends at, sharing the tables; the state is
    spent after that.
    """

    __slots__ = ("start", "random", "vertices", "selector", "done",
                 "_parents", "_children", "_siblings")

    def __init__(self, g: Graph):
        self.start = g
        self.random = set(g.random)
        self.vertices = g.vertices
        self.selector = g.selector
        self.done = []  # the vertices fixed, in order
        self._parents = dict(g._parents)
        self._children = dict(g._children)
        self._siblings = dict(g._siblings)

    def fix(self, v: str) -> None:
        """Fix ``v``, which ``check_fixable`` admits: drop every edge with an
        arrowhead at ``v`` from the tables."""
        self.random.discard(v)
        self.done.append(v)
        children, siblings = self._children, self._siblings
        for p in self._parents[v]:
            children[p] = children[p] - {v}
        for w in siblings[v]:
            siblings[w] = siblings[w] - {v}
        self._parents[v] = siblings[v] = frozenset()

    def fix_to(self, target: Iterable[str], fixable=_Adjacency.is_fixable,
               pick=min, step=None) -> None:
        """Fix every random vertex outside ``target`` that ``fixable(self,
        v)`` admits, one ``step(v)`` at a time (``fix`` by default), until
        none is left; ``pick`` chooses the next vertex from the set of those
        admitted now (the smallest name by default).

        This is the one fixing walk.  The rule's answer for ``w`` must
        depend only on ``w``'s district and descendants, and a vertex it
        admits must stay admitted after other fixes, as the ordinary
        criterion does.  Then every order ends at the same random set, and
        only the *blocked* vertices (random, outside ``target``, not yet
        admitted) are ever tested again: after fixing ``v``, those of
        ``v``'s old district and ``v``'s ancestors, the only vertices whose
        district or descendants that fix changed.  With none blocked, a step
        computes neither closure.  The walk ends with ``random`` the
        reachable closure of ``target`` under the rule, equal to ``target``
        exactly when the target is reachable; an unreachable target is not
        an error.
        """
        target = frozenset(target)
        unknown = target - self.random
        if unknown:
            raise GraphError(f"not random vertices: {sorted(unknown)}")
        step = step or self.fix
        blocked = self.random - target
        ready = {v for v in blocked if fixable(self, v)}
        blocked -= ready
        while ready:
            v = pick(ready)
            touched = blocked & (self.district_of(v) | self.ancestors(v)) if blocked else ()
            step(v)
            ready.discard(v)
            freed = {w for w in touched if fixable(self, w)}
            ready |= freed
            blocked -= freed

    def graph(self) -> Graph:
        """The starting graph with every vertex of ``done`` fixed."""
        g = self.start
        done = frozenset(self.done)
        # the vertices, latent marks and selector stay, the fixed vertices
        # move from random to fixed, and the edges only lose those with an
        # arrowhead at them: the vertex sets stay disjoint, every endpoint is
        # a vertex, no edge points into a fixed vertex, none is duplicated or
        # newly labelled, and no cycle appears
        return g._derive(
            random=frozenset(self.random),
            fixed=g.fixed | done,
            edges=frozenset(
                e for e in g.edges
                if e.head not in done and not (e.kind == BIDIRECTED and e.tail in done)
            ),
            latent=g.latent - done,
            vertices=g.vertices,
            # the tables lost the same edges
            _parents=self._parents,
            _children=self._children,
            _siblings=self._siblings,
        )
