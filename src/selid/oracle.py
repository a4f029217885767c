"""Exact ground-truth engine: discrete selector SCMs with rational tables.

Everything here is exact: probabilities are ``fractions.Fraction`` values,
joints are enumerated (with variable elimination over latents), and every
comparison is equality of rationals, never a tolerance.  The module supplies
random model generation, observational/interventional laws, estimand
evaluation, agreement witnesses for non-identification verdicts, and the
top-level ``verify`` entry point.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import random as _random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional

from .estimand import (
    BaseKernel,
    Estimand,
    FailureNode,
    Lo,
    Marginal,
    Product,
    Ratio,
    Restrict,
    SelectorAssign,
    SumOver,
    Sym,
    Var,
)
from .graph import Graph, SelectorSupport, SelectorValue
from .projection import bidirected_latents, canonical_hidden_dag

MAX_CELLS = 1 << 20


class OracleError(ValueError):
    pass


class Undefined:
    """Marker for kernel values at zero-mass contexts; absorbs arithmetic."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEF"


UNDEF = Undefined()


def _mul(a, b):
    if a is UNDEF:
        return 0 if b == 0 else UNDEF
    if b is UNDEF:
        return 0 if a == 0 else UNDEF
    return a * b


def _div(a, b):
    if a is UNDEF or b is UNDEF or b == 0:
        return UNDEF
    return Fraction(a, b)


def _has_undef(values) -> bool:
    return any(map(operator.is_, values, itertools.repeat(UNDEF)))


def _picker(idx):
    """Key function taking the row positions ``idx``, always as a tuple."""
    if not idx:
        return lambda vals: ()
    if len(idx) == 1:
        i = idx[0]
        return lambda vals: (vals[i],)
    return operator.itemgetter(*idx)


def _scaled(data: dict) -> Optional[tuple]:
    """``(numerators, denominator)``: the rational entries of ``data`` as
    integers over their least common denominator; None if any is UNDEF."""
    if _has_undef(data.values()):
        return None
    denom = math.lcm(*(p.denominator for p in data.values()))
    return {k: p.numerator * (denom // p.denominator) for k, p in data.items()}, denom


def _undef_sum(values):
    return UNDEF if _has_undef(values) else sum(values)


def _sum_rows(data: dict, key: Callable, total: Callable) -> dict:
    """Entries of ``data`` grouped by ``key`` of their rows, each group
    reduced by ``total``."""
    groups = collections.defaultdict(list)
    for k, p in zip(map(key, data), data.values()):
        groups[k].append(p)
    return {k: total(ps) for k, ps in groups.items()}


def _product_cells(tables) -> int:
    domains: dict = {}
    for t in tables:
        domains.update(t.domains)
    return math.prod(map(len, domains.values()))


def _product(tables: list) -> "Table":
    prod = tables[0]
    for t in tables[1:]:
        prod = prod.multiply(t)
    return prod


# --------------------------------------------------------------------------
# tables


class Table:
    """Dense exact-rational factor over named axes.

    ``given`` marks context axes: the table is normalized per assignment of
    those axes (a conditional), or overall when ``given`` is empty.

    Rows are value tuples in ``axes`` order.  Operations map axes to row
    positions once per call, and decide once per table whether UNDEF
    arithmetic is needed.  ``numerators`` is the integer form of ``data``,
    ``(integers keyed like data, common denominator)`` as ``_scaled`` gives
    it.  A table built from numerators alone makes ``data`` on first use;
    ``sum_out`` keeps the integer form, and ``conditional`` computes it
    once per table when it is missing.
    """

    def __init__(self, axes, domains, data=None, given=frozenset(), numerators=None):
        self.axes = tuple(axes)
        self.domains = domains
        self.given = frozenset(given)
        self.numerators = numerators
        self._data = data

    def __repr__(self):
        return f"Table(axes={self.axes!r}, given={sorted(self.given)!r}, data={self.data!r})"

    @property
    def data(self) -> dict:
        if self._data is None:
            nums, denom = self.numerators
            self._data = {k: Fraction(n, denom) for k, n in nums.items()}
        return self._data

    def value(self, assignment: Mapping):
        key = tuple(assignment[a] for a in self.axes)
        return self.data[key]

    def _key(self, axes) -> Callable:
        return _picker([self.axes.index(a) for a in axes])

    def multiply(self, other: "Table") -> "Table":
        shared = [a for a in self.axes if a in other.axes]
        extra = [a for a in other.axes if a not in self.axes]
        domains = dict(self.domains)
        domains.update(other.domains)
        for a in shared:
            if set(self.domains[a]) != set(other.domains[a]):
                # a join over the common values (e.g. supported selector
                # values against the full response domain of a child row)
                common = [v for v in self.domains[a] if v in set(other.domains[a])]
                domains[a] = tuple(common)
        other_key, other_extra = other._key(shared), other._key(extra)
        index: dict = {}
        for vals, q in other.data.items():
            index.setdefault(other_key(vals), []).append((other_extra(vals), q))
        mul = (
            _mul
            if _has_undef(self.data.values()) or _has_undef(other.data.values())
            else operator.mul
        )
        key = self._key(shared)
        data = {
            vals + ext: mul(p, q)
            for vals, p in self.data.items()
            for ext, q in index.get(key(vals), ())
        }
        return Table(self.axes + tuple(extra), domains, data, self.given | other.given)

    def sum_out(self, axes: Iterable[str]) -> "Table":
        drop = frozenset(axes) & frozenset(self.axes)
        if not drop:
            return self
        axes_out = tuple(a for a in self.axes if a not in drop)
        key = self._key(axes_out)
        domains = {a: self.domains[a] for a in axes_out}
        if self.numerators is not None:
            nums, denom = self.numerators
            nums = _sum_rows(nums, key, sum)
            return Table(axes_out, domains, None, self.given - drop, (nums, denom))
        total = _undef_sum if _has_undef(self.data.values()) else sum
        return Table(axes_out, domains, _sum_rows(self.data, key, total), self.given - drop)

    def conditional(self, outcome: Iterable[str], context: Iterable[str]) -> "Table":
        """p(outcome | context) derived from this (conditional) table.

        Context axes of the table (``given``) that the requested kernel omits
        must not matter: the conditional is checked to be exactly constant
        across them and then read at an arbitrary slice.  Margins are taken
        on the integer numerators, whose common denominator cancels.
        """
        outcome = frozenset(outcome)
        context = frozenset(context)
        missing = self.given - context
        keep = outcome | context
        if self.numerators is None:
            self.numerators = _scaled(self.data)
        base = self.sum_out(frozenset(self.axes) - keep - self.given)
        den = base.sum_out(outcome)
        if base.numerators is None:
            num_data, den_data = base.data, den.data
        else:
            num_data, den_data = base.numerators[0], den.numerators[0]
        den_key = base._key(den.axes)
        data = {vals: _div(p, den_data[den_key(vals)]) for vals, p in num_data.items()}
        out = Table(base.axes, dict(base.domains), data, context | missing)
        if missing:
            out = out.project_constant(missing)
        return out

    def project_constant(self, axes: Iterable[str]) -> "Table":
        """Drop axes the table provably does not vary over (exact check)."""
        drop = frozenset(axes) & frozenset(self.axes)
        if not drop:
            return self
        axes_out = tuple(a for a in self.axes if a not in drop)
        axes_drop = [a for a in self.axes if a in drop]
        key, drop_key = self._key(axes_out), self._key(axes_drop)
        ref = tuple(self.domains[a][0] for a in axes_drop)
        data = {key(vals): p for vals, p in self.data.items() if drop_key(vals) == ref}
        get = data.get
        for vals, p in self.data.items():
            if get(key(vals)) != p:
                raise OracleError(
                    f"kernel is not constant over context axes {sorted(drop)}"
                )
        return Table(
            axes_out,
            {a: self.domains[a] for a in axes_out},
            data,
            self.given - drop,
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        axes = tuple(mapping.get(a, a) for a in self.axes)
        if len(set(axes)) != len(axes):
            raise OracleError("axis rename collision")
        domains = {mapping.get(a, a): d for a, d in self.domains.items()}
        given = frozenset(mapping.get(a, a) for a in self.given)
        return Table(axes, domains, dict(self.data), given)

    def select_equal(self, a: str, b: str, drop: str) -> "Table":
        """Keep entries where axes ``a`` and ``b`` agree, dropping ``drop``."""
        ia, ib = self.axes.index(a), self.axes.index(b)
        axes = tuple(x for x in self.axes if x != drop)
        key = self._key(axes)
        data = {key(vals): p for vals, p in self.data.items() if vals[ia] == vals[ib]}
        domains = {x: self.domains[x] for x in axes}
        return Table(axes, domains, data, self.given - {drop})

    def defined_everywhere(self) -> bool:
        return not _has_undef(self.data.values())

    def _aligned(self, other: "Table"):
        """Pairs (own entry, entry of ``other``) over the rows of ``other``."""
        key = other._key(self.axes)
        data = self.data
        return ((data[key(vals)], q) for vals, q in other.data.items())

    def total_variation(self, other: "Table") -> Fraction:
        if set(self.axes) != set(other.axes):
            raise OracleError("total variation over mismatched axes")
        tv = Fraction(0)
        for p, q in self._aligned(other):
            if p is UNDEF or q is UNDEF:
                raise OracleError("total variation over undefined entries")
            tv += abs(p - q)
        return tv / 2

    def equals(self, other: "Table") -> bool:
        if set(self.axes) != set(other.axes):
            return False
        return all(p == q for p, q in self._aligned(other))


def _slice(t: Table, fixed: Mapping) -> Table:
    """The rows of ``t`` at the values ``fixed`` gives, without those axes."""
    at = [a for a in t.axes if a in fixed]
    if not at:
        return t
    axes = tuple(a for a in t.axes if a not in fixed)
    key, pick = t._key(axes), t._key(at)
    want = tuple(fixed[a] for a in at)
    data = {key(vals): p for vals, p in t.data.items() if pick(vals) == want}
    return Table(axes, {a: t.domains[a] for a in axes}, data, t.given - frozenset(fixed))


def selector_domain(support: SelectorSupport, child_sizes: Mapping[str, int]) -> tuple:
    """All concrete selector values: (sorted pattern, matching value tuple)."""
    out = []
    for pattern in support:
        kids = tuple(sorted(pattern))
        for vals in itertools.product(*(range(child_sizes[c]) for c in kids)):
            out.append((kids, vals))
    return tuple(out)


# --------------------------------------------------------------------------
# discrete context-selected SCMs


class _SelectorDomains:
    """Vertex domains of a model with ``graph``, ``sizes`` and ``support``:
    the selector ranges over (sorted pattern, value tuple) pairs."""

    @property
    def selector(self):
        return self.graph.selector

    def domain(self, v) -> tuple:
        if v == self.selector:
            return selector_domain(self.support, self.sizes)
        return tuple(range(self.sizes[v]))

    def response_support(self) -> SelectorSupport:
        """Patterns the mechanisms must respond to: the declared support plus
        the observational value (always a legal intervention)."""
        return SelectorSupport(self.support.patterns | {frozenset()})

    def row_domain(self, v) -> tuple:
        """Domain used when enumerating mechanism rows: children of the
        selector carry rows for every response value, supported or not."""
        if v == self.selector:
            return selector_domain(self.response_support(), self.sizes)
        return tuple(range(self.sizes[v]))


@dataclass
class DiscreteCsScm(_SelectorDomains):
    """Exact-rational SCM over a full DAG with optional selector semantics.

    ``cpts`` maps each vertex to ``(parents, rows)`` where rows map a parent
    assignment (values in ``parents`` order) to a mapping value -> Fraction.
    Children of the selector obey the intervene/natural case split by
    construction of their rows.
    """

    graph: Graph  # full DAG: observed + latent (+ selector)
    sizes: dict  # vertex -> domain size (non-selector vertices)
    cpts: dict  # vertex -> (parents tuple, {pa values: {value: Fraction}})
    support: Optional[SelectorSupport] = None

    def observed(self) -> frozenset:
        return self.graph.random - self.graph.latent

    def validate(self):
        """Check normalization and the selector case split (mechanism
        invariance across laidback values, forced values when serious)."""
        sel = self.selector
        for v, (parents, rows) in sorted(self.cpts.items()):
            dom = self.domain(v)
            for pa_vals, dist in rows.items():
                total = sum(dist.values())
                if total != 1:
                    raise OracleError(f"rows of {v} must sum to 1 exactly")
                if set(dist) != set(dom):
                    raise OracleError(f"row of {v} misses domain values")
            if sel is not None and sel in parents and v != sel:
                si = parents.index(sel)
                base_by_rest: dict = {}
                for pa_vals, dist in rows.items():
                    sval = pa_vals[si]
                    rest = tuple(x for i, x in enumerate(pa_vals) if i != si)
                    pattern, values = sval
                    if v in pattern:
                        forced = values[pattern.index(v)]
                        if dist.get(forced) != 1:
                            raise OracleError(
                                f"{v} must equal its forced value when intervened"
                            )
                    else:
                        if rest in base_by_rest and base_by_rest[rest] != dist:
                            raise OracleError(
                                f"{v} must reuse its natural mechanism across "
                                "laidback selector values"
                            )
                        base_by_rest[rest] = dist
        return True

    # -- laws -----------------------------------------------------------------

    def _factor(self, v) -> Table:
        parents, rows = self.cpts[v]
        axes = parents + (v,)
        domains = {a: self.row_domain(a) for a in axes}
        domains[v] = self.domain(v)
        data = {}
        for pa_vals, dist in rows.items():
            for val, p in dist.items():
                data[pa_vals + (val,)] = p
        return Table(axes, domains, data)

    @staticmethod
    def _eliminate(factors: list, latent: Iterable[str]) -> list:
        """Sum ``latent`` out of the product of ``factors`` one vertex at a
        time, each time the vertex whose product table is smallest; ties go
        to the first name, so the order never depends on set iteration."""
        left = sorted(latent)
        while left:
            h = min(left, key=lambda v: _product_cells(f for f in factors if v in f.axes))
            left.remove(h)
            # smallest first: the large factor is then walked only once
            touching = sorted((f for f in factors if h in f.axes), key=lambda f: len(f.data))
            factors = [f for f in factors if h not in f.axes]
            if touching:
                factors.append(_product(touching).sum_out({h}))
        return factors

    def _cells(self, axes) -> int:
        n = 1
        for a in axes:
            n *= len(self.domain(a))
        return n

    def _law(self, factors: list, latent: Iterable[str], out_axes: frozenset) -> Table:
        """Product of ``factors`` with ``latent`` eliminated and the rest
        summed down to ``out_axes``.  Each factor is scaled to integers
        first, so elimination is plain integer arithmetic, and the result
        keeps those numerators over the product of the factor denominators."""
        if not factors:
            return Table((), {}, {(): Fraction(1)})
        denom = 1
        work = []
        for f in factors:
            nums, d = _scaled(f.data)
            work.append(Table(f.axes, f.domains, nums, f.given))
            denom *= d
        work = self._eliminate(work, latent)
        prod = _product(sorted(work, key=lambda f: len(f.data)))
        prod = prod.sum_out(frozenset(prod.axes) - out_axes)
        return Table(prod.axes, prod.domains, None, prod.given, (prod.data, denom))

    def joint(self) -> Table:
        """Exact observational joint over the observed vertices (selector
        included), latents summed out by variable elimination."""
        obs = self.observed()
        if self._cells(obs) > MAX_CELLS:
            raise OracleError("observed state space exceeds the enumeration cap")
        factors = [self._factor(v) for v in self.graph.topological_order()]
        return self._law(factors, self.graph.latent, obs)

    def interventional(self, a: Mapping, s: Optional[SelectorValue] = None) -> Table:
        """Truncated factorization: intervened factors (and the selector's)
        are dropped and their values substituted; latents summed out."""
        a = dict(a)
        sel = self.selector
        if sel is not None and s is None:
            raise OracleError("models with a selector need a selector value")
        if sel is not None and s.pattern and s.pattern not in self.response_support():
            raise OracleError("selector pattern outside the response domain")
        if self._cells(self.observed()) > MAX_CELLS:
            raise OracleError("observed state space exceeds the enumeration cap")
        fixed_vals = dict(a)
        if sel is not None:
            svals = dict(s.values)
            fixed_vals[sel] = (tuple(sorted(s.pattern)), tuple(
                svals[c] for c in sorted(s.pattern)
            ))
        for v, val in a.items():
            if v == sel:
                raise OracleError("intervene on the selector via its own slot")
            if val not in self.domain(v):
                raise OracleError(f"value {val!r} outside the domain of {v}")
        factors = [
            _slice(self._factor(v), fixed_vals)
            for v in self.graph.topological_order()
            if v not in fixed_vals
        ]
        fixed = frozenset(fixed_vals)
        return self._law(factors, self.graph.latent - fixed, self.observed() - fixed)


# --------------------------------------------------------------------------
# random model generation


def _rational_dist(rng: _random.Random, n: int) -> dict:
    weights = [rng.randint(1, 16) for _ in range(n)]
    total = sum(weights)
    return {i: Fraction(w, total) for i, w in enumerate(weights)}


def _point(n: int, value) -> dict:
    return {k: Fraction(1 if k == value else 0) for k in range(n)}


def _build_model(dag: Graph, support, mechanism, domain_size: int = 2) -> DiscreteCsScm:
    """Assemble a CS-SCM from per-vertex laidback mechanisms.

    ``mechanism(v, parents, pa_vals)`` returns the natural-case distribution
    of ``v`` (or a selector-domain distribution for the selector itself).
    The intervene case of selector children is enforced here: a child the
    selector value intervenes on takes its forced value, and the mechanism
    is not asked for that row.  The other rows are asked for in
    ``itertools.product`` order.
    """
    sel = dag.selector
    sizes = {v: domain_size for v in dag.vertices if v != sel}
    m = DiscreteCsScm(dag, sizes, {}, support)
    for v in dag.topological_order():
        parents = tuple(sorted(dag.parents(v)))
        si = parents.index(sel) if v != sel and sel in parents else None
        rows = {}
        for pa_vals in itertools.product(*(m.row_domain(p) for p in parents)):
            if si is not None:
                pattern, values = pa_vals[si]
                if v in pattern:
                    rows[pa_vals] = _point(domain_size, values[pattern.index(v)])
                    continue
            rows[pa_vals] = mechanism(v, parents, pa_vals)
        m.cpts[v] = (parents, rows)
    return m


def random_cs_scm(
    g: Graph,
    support: Optional[SelectorSupport] = None,
    seed: int = 0,
    domain_size: int = 2,
) -> DiscreteCsScm:
    """Seeded random model on the full DAG ``g`` obeying the selector case
    split; all rows strictly positive with denominators at most 64."""
    if domain_size < 2:
        raise OracleError("domain size must be at least 2")
    if any(e.kind != "directed" for e in g.edges):
        raise OracleError("models are defined over DAGs; project or expand first")
    rng = _random.Random(seed)
    sel = g.selector
    if sel is not None and support is None:
        support = g.support
    if sel is not None and support is None:
        raise OracleError("selector models need a support")
    sel_dom = ()
    if sel is not None:
        sel_dom = selector_domain(support, {v: domain_size for v in g.vertices if v != sel})
    # a selector child draws its natural row on the first row with the same
    # non-selector parent values; that row has the observational selector
    # value (first in its row domain), so the draws follow the product of
    # the non-selector parents
    natural: dict = {}

    def mechanism(v, parents, pa_vals):
        if v == sel:
            return dict(zip(sel_dom, _rational_dist(rng, len(sel_dom)).values()))
        if sel not in parents:
            return _rational_dist(rng, domain_size)
        rest = (v,) + tuple(x for p, x in zip(parents, pa_vals) if p != sel)
        if rest not in natural:
            natural[rest] = _rational_dist(rng, domain_size)
        return dict(natural[rest])

    return _build_model(g, support, mechanism, domain_size)


def joint(m: DiscreteCsScm) -> Table:
    return m.joint()


def interventional(m: DiscreteCsScm, a: Mapping, s: Optional[SelectorValue] = None) -> Table:
    return m.interventional(a, s)


# --------------------------------------------------------------------------
# estimand evaluation


def eval_estimand(e: Estimand, tables: Mapping[str, Table]) -> Table:
    """Bottom-up exact evaluation; symbolic tokens become table axes and
    zero-mass contexts evaluate to an undefined marker that propagates."""
    if isinstance(e, BaseKernel):
        if e.name not in tables:
            raise OracleError(f"no table for kernel {e.name!r}")
        return tables[e.name].conditional(e.outcome, e.context)
    if isinstance(e, (Marginal, SumOver)):
        t = eval_estimand(e.child, tables)
        return t.sum_out(e.over)
    if isinstance(e, Product):
        t = eval_estimand(e.children[0], tables)
        for c in e.children[1:]:
            t = t.multiply(eval_estimand(c, tables))
        return t
    if isinstance(e, Ratio):
        num = eval_estimand(e.num, tables)
        den = eval_estimand(e.den, tables)
        if not set(den.axes) <= set(num.axes):
            raise OracleError("ratio denominator misses axes of the numerator")
        den_key, dd = num._key(den.axes), den.data
        try:
            data = {vals: _div(p, dd[den_key(vals)]) for vals, p in num.data.items()}
        except KeyError:
            raise OracleError("ratio denominator misses rows of the numerator")
        return Table(num.axes, dict(num.domains), data, num.given | den.given)
    if isinstance(e, Restrict):
        t = eval_estimand(e.child, tables)
        for var, val in e.assignment:
            t = _apply_restriction(t, var, val)
        return t
    if isinstance(e, FailureNode):
        raise OracleError(f"cannot evaluate a failure node ({e.reason})")
    raise OracleError(f"unknown estimand node {type(e).__name__}")


def _apply_restriction(t: Table, var: str, val) -> Table:
    if var not in t.axes:
        return t
    if isinstance(val, Sym):
        name = val.name
        if name == var:
            return t
        if name in t.axes:
            return t.select_equal(name, var, drop=var)
        return t.rename({var: name})
    if isinstance(val, Var):
        w = val.vertex
        if w == var:
            return t
        if w in t.axes:
            return t.select_equal(w, var, drop=var)
        return t.rename({var: w})
    if isinstance(val, SelectorAssign):
        # rows carry the selector value (pattern, component values) with the
        # components in sorted-pattern order; each component moves into a
        # token axis, is matched against an axis, or is matched to a literal
        pattern = tuple(sorted(val.pattern))
        idx = t.axes.index(var)
        comp_tokens = dict(val.values)
        base_axes = tuple(a for a in t.axes if a != var)
        domains = {a: t.domains[a] for a in base_axes}
        child_domain = {}
        for kids, cvals in t.domains[var]:
            for c, cv in zip(kids, cvals):
                child_domain.setdefault(c, set()).add(cv)
        new_axes = list(base_axes)
        extend = []  # component positions that become new axes
        match = []  # (component position, row position) that must agree
        literal = []  # (component position, value)
        for ci, c in enumerate(pattern):
            tok = comp_tokens[c]
            name = None
            if isinstance(tok, (Sym, Var)):
                name = tok.name if isinstance(tok, Sym) else tok.vertex
            if name is not None and name not in new_axes:
                new_axes.append(name)
                extend.append(ci)
                domains[name] = tuple(sorted(child_domain[c]))
            elif name is not None:
                # a token already bound by an earlier component is not an
                # axis of ``t`` and goes unchecked here
                if name in t.axes:
                    match.append((ci, t.axes.index(name)))
            elif isinstance(tok, Lo):
                literal.append((ci, min(child_domain[c])))
            else:
                literal.append((ci, tok))
        key, extra = t._key(base_axes), _picker(extend)
        out = {}
        for vals, p in t.data.items():
            kids, cvals = vals[idx]
            if kids != pattern:
                continue
            if any(cvals[ci] != vals[i] for ci, i in match) or any(
                cvals[ci] != lit for ci, lit in literal
            ):
                continue
            k = key(vals) + extra(cvals)
            if k in out:
                raise OracleError("selector restriction is not single-valued")
            out[k] = p
        return Table(tuple(new_axes), domains, out, t.given - {var})
    raise OracleError(f"unknown restriction value {val!r}")


# --------------------------------------------------------------------------
# functional models: deterministic mechanisms over explicit noises, for
# counterfactual (single-world) laws


@dataclass
class FunctionalCsScm(_SelectorDomains):
    """Structural-equation form: each vertex is a deterministic function of
    its parents and a private noise; the selector case split is enforced.
    Counterfactual laws are enumerable by integrating over the noises."""

    graph: Graph
    sizes: dict
    support: Optional[SelectorSupport]
    noise: dict  # vertex -> {value: Fraction}
    mech: dict  # vertex -> {(pa values, noise value): value}

    def counterfactual_law(self, a: Mapping, s: Optional[SelectorValue] = None) -> Table:
        """The single-world law p(V(a, s)): counterfactuals of non-intervened
        vertices jointly with the natural values of intervened ones."""
        sel = self.selector
        fixed_vals = dict(a)
        if s is not None:
            if sel is None:
                raise OracleError("selector value given for a selector-free model")
            svals = dict(s.values)
            fixed_vals[sel] = (
                tuple(sorted(s.pattern)),
                tuple(svals[c] for c in sorted(s.pattern)),
            )
        order = self.graph.topological_order()
        observed = sorted(self.graph.random - self.graph.latent)
        noise_vars = sorted(self.noise)
        parents_of = {v: tuple(sorted(self.graph.parents(v))) for v in order}
        axes = tuple(observed)
        domains = {v: self.domain(v) for v in observed}
        data: dict = {}
        for combo in itertools.product(*(sorted(self.noise[v]) for v in noise_vars)):
            eps = dict(zip(noise_vars, combo))
            w = Fraction(1)
            for v, val in eps.items():
                w *= self.noise[v][val]
            natural: dict = {}
            downstream: dict = {}
            for v in order:
                pa_vals = tuple(downstream[p] for p in parents_of[v])
                val = self.mech[v][(pa_vals, eps[v])]
                natural[v] = val
                downstream[v] = fixed_vals.get(v, val)
            key = tuple(natural[v] for v in observed)
            data[key] = data.get(key, Fraction(0)) + w
        full = {}
        for vals in itertools.product(*(domains[v] for v in observed)):
            full[vals] = data.get(vals, Fraction(0))
        return Table(axes, domains, full)


def random_functional_cs_scm(
    g: Graph,
    support: Optional[SelectorSupport] = None,
    seed: int = 0,
    domain_size: int = 2,
) -> FunctionalCsScm:
    """Seeded random structural-equation model obeying the selector case split."""
    if any(e.kind != "directed" for e in g.edges):
        raise OracleError("functional models are defined over DAGs")
    rng = _random.Random(seed)
    sel = g.selector
    if sel is not None and support is None:
        support = g.support
    sizes = {v: domain_size for v in g.vertices if v != sel}
    m = FunctionalCsScm(g, sizes, support, {}, {})
    for v in g.topological_order():
        dom = m.domain(v)
        n_noise = len(dom) + 1
        m.noise[v] = _rational_dist(rng, n_noise)
        parents = tuple(sorted(g.parents(v)))
        table = {}
        for pa_vals in itertools.product(*(m.row_domain(p) for p in parents)):
            forced = None
            if sel is not None and sel in parents and v != sel:
                sval = pa_vals[parents.index(sel)]
                pattern, values = sval
                if v in pattern:
                    forced = values[pattern.index(v)]
            base = [rng.choice(dom) for _ in range(n_noise)]
            for nz in range(n_noise):
                table[(pa_vals, nz)] = forced if forced is not None else base[nz]
        m.mech[v] = table
    return m


# --------------------------------------------------------------------------
# agreement witnesses for non-identification verdicts


def _uniform(n: int) -> dict:
    return {k: Fraction(1, n) for k in range(n)}


def _sel_uniform(sel_dom) -> dict:
    return {sv: Fraction(1, len(sel_dom)) for sv in sel_dom}


def _sel_pattern_uniform(sel_dom, pattern: tuple) -> dict:
    hits = [sv for sv in sel_dom if sv[0] == pattern]
    out = {sv: Fraction(0) for sv in sel_dom}
    for sv in hits:
        out[sv] = Fraction(1, len(hits))
    return out


def _never_laidback_members(support: SelectorSupport, vertices) -> list:
    out = []
    for v in sorted(vertices):
        if all(v in p for p in support):
            out.append(v)
    return out


def positivity_witness_pair(g: Graph, query, district) -> tuple:
    """Two models agreeing exactly on the supported observed law but
    disagreeing on the query: the natural mechanism of a never-laidback
    vertex is unobservable, and a copy path carries the difference to the
    outcome."""
    if g.selector is None or g.support is None:
        raise OracleError("positivity witnesses need a selector with support")
    candidates = _never_laidback_members(g.support, district)
    if not candidates:
        raise OracleError(
            "no single never-laidback vertex; construction unsupported"
        )
    z = candidates[0]
    path_pred = _carrier_path(g, query, z)
    dag = canonical_hidden_dag(g)
    sel_dom = selector_domain(g.support, {v: 2 for v in dag.vertices if v != g.selector})

    def mech(zvalue):
        def mechanism(v, parents, pa_vals):
            if v == g.selector:
                return _sel_uniform(sel_dom)
            if v == z:
                return _point(2, zvalue)
            if v in path_pred:
                p = path_pred[v]
                return _point(2, pa_vals[parents.index(p)])
            return _uniform(2)

        return mechanism

    m1 = _build_model(dag, g.support, mech(0))
    m2 = _build_model(dag, g.support, mech(1))
    return m1, m2


def hedge_witness_pair(g: Graph, district, closure) -> tuple:
    """Bit-parity pair for a hedge: inside the closure every vertex is the
    parity of its incoming bits; the second model blinds the district to
    everything outside it.  Exactly agreeing observed laws, different query."""
    district = frozenset(district)
    closure = frozenset(closure)
    sel = g.selector
    us_of = {v: [] for v in g.vertices}
    dag = canonical_hidden_dag(g)
    for e, u in bidirected_latents(g).items():
        if e.endpoints() <= closure:
            us_of[e.tail].append(u)
            us_of[e.head].append(u)

    laid_pattern = serious_pattern = None
    sel_dom = ()
    if sel is not None and sel in closure:
        if g.support is None:
            raise OracleError("selector hedges need a support")
        laid = [p for p in g.support if not (p & district)]
        if not laid:
            raise OracleError("no laidback pattern; use the positivity witness")
        laid_pattern = tuple(sorted(laid[0]))
        others = [p for p in g.support if tuple(sorted(p)) != laid_pattern]
        if not others:
            raise OracleError("selector hedge needs at least two support patterns")
        serious_pattern = tuple(sorted(others[0]))
        sel_dom = selector_domain(g.support, {v: 2 for v in dag.vertices if v != sel})

    def parity_inputs(v, blind: bool):
        scope = district if blind else closure
        ins = [p for p in g.parents(v) if p in scope and p != sel]
        ins += [
            u
            for u in us_of[v]
            if not blind or dag.children(u) <= district
        ]
        return sorted(set(ins))

    def mech(blind_district: bool):
        def mechanism(v, parents, pa_vals):
            asg = dict(zip(parents, pa_vals))
            if v == sel:
                bit = 0
                for u in us_of[v]:
                    bit ^= asg[u]
                pattern = serious_pattern if bit else laid_pattern
                return _sel_pattern_uniform(sel_dom, pattern)
            if v not in closure:
                return _uniform(2)
            blind = blind_district and v in district
            bit = 0
            for w in parity_inputs(v, blind):
                val = asg[w]
                bit ^= val
            return _point(2, bit)

        return mechanism

    m1 = _build_model(dag, g.support, mech(False))
    m2 = _build_model(dag, g.support, mech(True))
    return m1, m2


def _query_law(m: DiscreteCsScm, query, vert_vals: Mapping) -> Table:
    """p(query outcomes | do(vert_vals)) in ``m``, at the observational
    selector value when the model has a selector."""
    t = m.interventional(vert_vals, SelectorValue() if m.selector is not None else None)
    return t.sum_out(frozenset(t.axes) - frozenset(query.outcomes))


def _witness_separation(query, m1, m2) -> Fraction:
    """The largest total variation between the two models' query laws over
    all treatment values; 0 when their observed laws differ.  A pair is a
    valid witness exactly when this is positive."""
    if not m1.joint().equals(m2.joint()):
        return Fraction(0)
    return max(
        _query_law(m1, query, vert_vals).total_variation(_query_law(m2, query, vert_vals))
        for vert_vals, _ in _token_bindings(query, m1.sizes)
    )


def _carrier_path(g: Graph, query, start: str) -> dict:
    """Copy-path predecessors from ``start`` to a query outcome, avoiding
    treatments and the selector; empty when start is itself an outcome."""
    treated = frozenset(v for v, _ in query.treatments)
    sub = g.induced_subgraph(g.random - treated - ({g.selector} - {start}))
    target = frozenset(query.outcomes)
    if start in target:
        return {}
    prev = {start: None}
    frontier = [start]
    goal = None
    while frontier and goal is None:
        nxt = []
        for v in frontier:
            for w in sorted(sub.children(v)):
                if w not in prev:
                    prev[w] = v
                    if w in target:
                        goal = w
                        break
                    nxt.append(w)
            if goal:
                break
        frontier = nxt
    if goal is None:
        raise OracleError("no carrier path from the witness vertex to the outcome")
    path_pred = {}
    v = goal
    while prev[v] is not None:
        path_pred[v] = prev[v]
        v = prev[v]
    return path_pred


def adjacent_child_witness_pair(g: Graph, query, district, closure) -> tuple:
    """Hedge witness for a selector bidirected-adjacent to one of its children:
    the child's natural value reads the shared latent bit, which also drives
    the selector's seriousness, so the natural value is only ever observed at
    bit zero; freeing the bit under the observational intervention separates
    the models, and a copy path carries the difference to the outcome."""
    sel = g.selector
    if sel is None or sel not in closure or g.support is None:
        raise OracleError("construction needs a selector inside the closure")
    district = frozenset(district)
    latents = bidirected_latents(g)
    options = []
    for e, u in latents.items():
        if sel not in e.endpoints():
            continue
        other = next(iter(e.endpoints() - {sel}))
        if other in g.children(sel) and other in closure:
            options.append((other not in district, other, u))
    if not options:
        raise OracleError("the selector has no bidirected-adjacent child here")
    _, child, u_name = sorted(options)[0]
    laid = [p for p in g.support if not (p & district)]
    serious = [p for p in g.support if child in p]
    if not laid or not serious:
        raise OracleError("support cannot express the child's two regimes")
    laid_pattern = tuple(sorted(laid[0]))
    serious_pattern = tuple(sorted(serious[0]))
    path_pred = _carrier_path(g, query, child)

    dag = canonical_hidden_dag(g)
    sel_dom = selector_domain(g.support, {v: 2 for v in dag.vertices if v != sel})

    def mech(blind: bool):
        def mechanism(v, parents, pa_vals):
            asg = dict(zip(parents, pa_vals))
            if v == sel:
                pattern = serious_pattern if asg[u_name] else laid_pattern
                return _sel_pattern_uniform(sel_dom, pattern)
            if v == child:
                return _point(2, 0 if blind else asg[u_name])
            if v in path_pred:
                return _point(2, asg[path_pred[v]])
            return _uniform(2)

        return mechanism

    m1 = _build_model(dag, g.support, mech(False))
    m2 = _build_model(dag, g.support, mech(True))
    return m1, m2


def _certified_witness(g: Graph, query, failure) -> tuple:
    """``((m1, m2), separation)``: a witness pair for a non-identification
    verdict, validated exactly, with its ``_witness_separation``."""
    kind = getattr(failure, "kind", None)
    if kind == "positivity":
        pair = positivity_witness_pair(g, query, failure.district)
        tv = _witness_separation(query, *pair)
        if not tv:
            raise OracleError("positivity witness construction failed validation")
        return pair, tv
    if kind == "hedge":
        builders = [
            lambda: hedge_witness_pair(g, failure.district, failure.closure),
            lambda: adjacent_child_witness_pair(
                g, query, failure.district, failure.closure
            ),
        ]
        for builder in builders:
            try:
                pair = builder()
            except OracleError:
                continue
            tv = _witness_separation(query, *pair)
            if tv:
                return pair, tv
        raise OracleError(
            "no known witness construction separates this hedge shape"
        )
    raise OracleError(f"no witness construction for failure kind {kind!r}")


def parity_witness(g: Graph, query, failure) -> tuple:
    """Two models witnessing a non-identification verdict: exactly equal
    observed laws over the support, different query distributions.

    Every returned pair is validated exactly before being handed out; hedge
    shapes outside the known constructions raise the unsupported error
    instead of returning an uncertified pair.
    """
    return _certified_witness(g, query, failure)[0]


# --------------------------------------------------------------------------
# verification


def dataset_table(m: DiscreteCsScm, z: Iterable[str], s: Optional[SelectorValue] = None) -> Table:
    """The conditional table p(V - Z | do(Z)) stacked over all values of Z."""
    z = tuple(sorted(z))
    if not z:
        return m.joint()
    doms = {v: m.domain(v) for v in z}
    data = {}
    axes = None
    domains = None
    for zvals in itertools.product(*(doms[v] for v in z)):
        t = m.interventional(dict(zip(z, zvals)), s)
        if axes is None:
            axes = t.axes + z
            domains = dict(t.domains)
            for v in z:
                domains[v] = doms[v]
        for vals, p in t.data.items():
            data[vals + zvals] = p
    return Table(axes, domains, data, frozenset(z))


@dataclass
class VerifyReport:
    status: str  # "verified" | "refuted" | "unverified"
    kind: str
    trials: int = 0
    failures: tuple = ()
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "verified"

    def to_jsonable(self):
        bad = set(self.failures)
        return {
            "status": self.status,
            "kind": self.kind,
            "trials": self.trials,
            "failures": list(self.failures),
            "per_trial": [
                "mismatch" if t in bad else "match" for t in range(self.trials)
            ],
            "detail": self.detail,
        }


def _token_bindings(query, sizes: Mapping[str, int]):
    names = [tok.name for _, tok in query.treatments]
    verts = [v for v, _ in query.treatments]
    for combo in itertools.product(*(range(sizes[v]) for v in verts)):
        yield dict(zip(verts, combo)), dict(zip(names, combo))


def verify(
    g: Graph,
    query,
    support: Optional[SelectorSupport],
    result,
    trials: int = 100,
    seed: int = 0,
    dag: Optional[Graph] = None,
    datasets: Optional[list] = None,
    domain_size: int = 2,
) -> VerifyReport:
    """Check an identification verdict against enumerated ground truth.

    Identified results must match the interventional law exactly on every
    random model; hedge and positivity failures must ship a valid agreement
    pair; thicket and unknown failures are reported unverified by design.
    """
    if trials < 1:
        raise OracleError("at least one trial is required")
    kind = getattr(result, "kind", None)
    dag = dag or (g if not any(e.kind == "bidirected" for e in g.edges) else canonical_hidden_dag(g))

    if kind == "identified":
        failures = []
        for t in range(trials):
            m = random_cs_scm(dag, support, seed=seed + t, domain_size=domain_size)
            tables = {"p": m.joint()}
            for name, z in datasets or ():
                tables[name] = dataset_table(m, z)
            est = eval_estimand(result.estimand, tables)
            for vert_vals, tok_vals in _token_bindings(query, m.sizes):
                sliced = _slice(est, tok_vals)
                # leftover context axes must be provably irrelevant
                try:
                    sliced = sliced.project_constant(
                        frozenset(sliced.axes) - frozenset(query.outcomes)
                    )
                except OracleError:
                    failures.append(t)
                    break
                truth = _query_law(m, query, vert_vals)
                if not sliced.defined_everywhere() or not truth.equals(sliced):
                    failures.append(t)
                    break
        status = "verified" if not failures else "refuted"
        return VerifyReport(status, kind, trials, tuple(failures))

    if kind in ("hedge", "positivity"):
        try:
            _, tv = _certified_witness(g, query, result)
        except OracleError as exc:
            return VerifyReport("unverified", kind, 0, (), str(exc))
        return VerifyReport("verified", kind, 1, (), f"witness total variation {tv}")

    return VerifyReport("unverified", str(kind), 0, (), "no checkable certificate")


def exact_ci(t: Table, x, y, z) -> bool:
    """Exact conditional independence X indep Y | Z in the joint table ``t``,
    decided by cross-multiplication (no divisions)."""
    x, y, z = frozenset(x), frozenset(y), frozenset(z)
    pxyz = t.sum_out(frozenset(t.axes) - x - y - z)
    pz = pxyz.sum_out(x | y)
    pxz = pxyz.sum_out(y)
    pyz = pxyz.sum_out(x)
    kz, kxz, kyz = (pxyz._key(t.axes) for t in (pz, pxz, pyz))
    return all(
        p * pz.data[kz(vals)] == pxz.data[kxz(vals)] * pyz.data[kyz(vals)]
        for vals, p in pxyz.data.items()
    )
