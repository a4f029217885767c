"""Structural-equation models for the tests: deterministic mechanisms over
explicit noises, whose counterfactual (single-world) laws are enumerated by
integrating over the noises.  Tests check context-SWIG independences and the
truncated factorization against them; the library itself never builds one."""

import itertools
import math
import random as _random
from dataclasses import dataclass
from typing import Mapping, Optional

from selid.graph import Graph, SelectorValue
from selid.oracle import OracleError, Table, _Operand, _SelectorDomains, _selector_key


@dataclass
class FunctionalCsScm(_SelectorDomains):
    """Structural-equation form: each vertex is a deterministic function of
    its parents and a private noise; the selector case split is enforced.
    Counterfactual laws are enumerable by integrating over the noises."""

    graph: Graph
    sizes: dict
    noise: dict  # vertex -> integer weight of each noise value
    mech: dict  # vertex -> {(pa values, noise value): value}

    def counterfactual_law(self, a: Mapping, s: Optional[SelectorValue] = None) -> Table:
        """The single-world law p(V(a, s)): counterfactuals of non-intervened
        vertices jointly with the natural values of intervened ones, as
        integers over the product of the noises' weight totals."""
        sel = self.selector
        fixed_vals = dict(a)
        if s is not None:
            if sel is None:
                raise OracleError("selector value given for a selector-free model")
            fixed_vals[sel] = _selector_key(s)
        order = self.graph.topological_order()
        observed = sorted(self.graph.random - self.graph.latent)
        noise_vars = sorted(self.noise)
        parents_of = {v: tuple(sorted(self.graph.parents(v))) for v in order}
        law = _Operand(0, observed, {v: self.domain(v) for v in observed})
        values = [0] * law.cells
        for combo in itertools.product(*(range(len(self.noise[v])) for v in noise_vars)):
            eps = dict(zip(noise_vars, combo))
            w = math.prod(self.noise[v][val] for v, val in eps.items())
            natural: dict = {}
            downstream: dict = {}
            for v in order:
                pa_vals = tuple(downstream[p] for p in parents_of[v])
                val = self.mech[v][(pa_vals, eps[v])]
                natural[v] = val
                downstream[v] = fixed_vals.get(v, val)
            values[law.fixed(natural).offset] += w
        return Table(law.axes, law.domains, values, denom=math.prod(sum(self.noise[v]) for v in noise_vars))


def random_functional_cs_scm(g: Graph, seed: int = 0, domain_size: int = 2) -> FunctionalCsScm:
    """Seeded random structural-equation model obeying the selector case split."""
    if any(e.kind != "directed" for e in g.edges):
        raise OracleError("functional models are defined over DAGs")
    rng = _random.Random(seed)
    sel = g.selector
    sizes = {v: domain_size for v in g.vertices if v != sel}
    m = FunctionalCsScm(g, sizes, {}, {})
    for v in g.topological_order():
        dom = m.domain(v)
        n_noise = len(dom) + 1
        m.noise[v] = [rng.randint(1, 16) for _ in range(n_noise)]
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
