"""The .lsg graph file format and the query grammar.

Line-oriented, diff-friendly statements::

    # comment
    node A
    latent U1
    fixed M
    selector S
    edge A -> B label {X, Y}
    biedge A <-> B label {X}
    support {A1}, {A2}, {}

Each ``support`` brace group names a set of jointly intervenable selector
children; ``{}`` is the observational context.  Queries look like
``P(Y1, Y2 | do(A1=a1, A2=a2), S=empty)``.
"""

from __future__ import annotations

import re

from .estimand import Sym
from .graph import Edge, Graph, SelectorSupport, bidirected, directed
from .identify import Query

NAME = r"[A-Za-z][A-Za-z0-9_]*"
_NAME_RE = re.compile(NAME)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _parse_names(inner: str, where: str, lineno: int) -> frozenset:
    """The comma-separated names of one brace group; ``{}`` is empty."""
    inner = inner.strip()
    if not inner:
        return frozenset()
    parts = [p.strip() for p in inner.split(",")]
    for p in parts:
        if not _NAME_RE.fullmatch(p):
            raise ParseError(f"bad name {p!r} in {where}", lineno)
    return frozenset(parts)


def _parse_label(text: str, lineno: int) -> frozenset:
    text = text.strip()
    m = re.fullmatch(r"label\s*\{([^}]*)\}", text)
    if not m:
        raise ParseError(f"malformed label clause {text!r}", lineno)
    return _parse_names(m.group(1), "label", lineno)


def _parse_support(text: str, lineno: int) -> SelectorSupport:
    groups = re.findall(r"\{([^}]*)\}", text)
    rest = re.sub(r"\{[^}]*\}", "", text).replace(",", "").strip()
    if rest or not groups:
        raise ParseError("support expects brace groups: {A}, {A,B}, {}", lineno)
    return SelectorSupport(frozenset(_parse_names(grp, "support", lineno) for grp in groups))


def parse_graph(text: str) -> Graph:
    """Parse .lsg text into a validated graph."""
    random = set()
    fixed = set()
    latent = set()
    selector = None
    support = None
    edges = []
    seen_edges = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        stmt, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        if stmt in ("node", "latent", "fixed", "selector"):
            name = rest.strip()
            if not re.fullmatch(NAME, name):
                raise ParseError(f"bad vertex name {name!r}", lineno)
            if stmt == "fixed":
                fixed.add(name)
            else:
                random.add(name)
            if stmt == "latent":
                latent.add(name)
            if stmt == "selector":
                if selector is not None and selector != name:
                    raise ParseError("more than one selector", lineno)
                selector = name
        elif stmt in ("edge", "biedge"):
            arrow = "->" if stmt == "edge" else "<->"
            m = re.fullmatch(
                rf"({NAME})\s*{re.escape(arrow)}\s*({NAME})\s*(label\s*\{{[^}}]*\}})?",
                rest.strip(),
            )
            if not m:
                raise ParseError(f"malformed {stmt} statement", lineno)
            tail, head, labeltxt = m.group(1), m.group(2), m.group(3)
            label = _parse_label(labeltxt, lineno) if labeltxt else frozenset()
            e = directed(tail, head, label) if stmt == "edge" else bidirected(tail, head, label)
            if e in seen_edges:
                raise ParseError(
                    f"duplicate edge {tail} {arrow} {head} with label "
                    f"{{{', '.join(sorted(label))}}}",
                    lineno,
                )
            seen_edges.add(e)
            edges.append(e)
        elif stmt == "support":
            if support is not None:
                raise ParseError("more than one support", lineno)
            support = _parse_support(rest, lineno)
        else:
            raise ParseError(f"unknown statement {stmt!r}", lineno)

    try:
        return Graph(
            random=frozenset(random),
            fixed=frozenset(fixed),
            latent=frozenset(latent),
            selector=selector,
            support=support,
            edges=frozenset(edges),
        )
    except ValueError as exc:
        raise ParseError(str(exc), len(text.splitlines()) or 1) from exc


def render_graph(g: Graph) -> str:
    """Serialize a graph to .lsg text; parse(render(g)) == g."""
    lines = []
    for v in sorted(g.random - g.latent - {g.selector}):
        lines.append(f"node {v}")
    for v in sorted(g.latent):
        lines.append(f"latent {v}")
    for v in sorted(g.fixed):
        lines.append(f"fixed {v}")
    if g.selector is not None:
        lines.append(f"selector {g.selector}")
    for e in sorted(g.edges, key=Edge.sort_key):
        label = f" label {{{', '.join(sorted(e.label))}}}" if e.label else ""
        if e.kind == "directed":
            lines.append(f"edge {e.tail} -> {e.head}{label}")
        else:
            lines.append(f"biedge {e.tail} <-> {e.head}{label}")
    if g.support is not None:
        groups = ", ".join(
            "{" + ", ".join(sorted(p)) + "}" for p in g.support
        )
        lines.append(f"support {groups}")
    return "\n".join(lines) + "\n"


_QUERY_RE = re.compile(
    rf"\s*P\s*\(\s*(?P<outs>{NAME}(\s*,\s*{NAME})*)\s*"
    rf"(\|\s*(?P<rest>.*?))?\s*\)\s*",
    re.DOTALL,
)
_EMPTY_RE = re.compile(rf"({NAME})\s*=\s*empty")


def parse_query(text: str, selector: str | None = None):
    """Parse ``P(Y | do(A=a), S=empty)`` into a query and a selector flag.

    Returns (Query, wants_observational_context).  The selector is addressed
    only through ``S=empty``; with no intervention the ``do()`` clause may be
    left out, so ``P(Y | S=empty)`` is ``P(Y | do(), S=empty)``.
    """
    m = _QUERY_RE.fullmatch(text)
    if not m:
        raise ParseError("queries look like P(Y | do(A=a), S=empty)", 1)
    outs = frozenset(p.strip() for p in m.group("outs").split(","))
    rest = (m.group("rest") or "").strip()
    treatments = []
    wants_empty = False
    if rest:
        mdo = re.match(rf"do\s*\(([^)]*)\)\s*(,\s*(?P<tail>.*))?$", rest, re.DOTALL)
        if mdo:
            inner, tail = mdo.group(1).strip(), (mdo.group("tail") or "").strip()
        elif _EMPTY_RE.fullmatch(rest):
            inner, tail = "", rest  # P(Y | S=empty) reads as P(Y | do(), S=empty)
        else:
            raise ParseError("expected a do(...) clause after '|'", 1)
        if inner:
            for item in inner.split(","):
                ma = re.fullmatch(rf"\s*({NAME})\s*=\s*({NAME})\s*", item)
                if not ma:
                    raise ParseError(f"bad intervention {item.strip()!r}", 1)
                v, tok = ma.group(1), ma.group(2)
                if selector is not None and v == selector:
                    raise ParseError(
                        "the selector is addressed only via S=empty", 1
                    )
                treatments.append((v, Sym(tok)))
        if tail:
            msel = _EMPTY_RE.fullmatch(tail)
            if not msel:
                raise ParseError(f"unrecognized clause {tail!r}", 1)
            if selector is not None and msel.group(1) != selector:
                raise ParseError(
                    f"{msel.group(1)} is not the selector of this graph", 1
                )
            wants_empty = True
    if selector is not None and selector in outs:
        raise ParseError("the selector cannot be an outcome", 1)
    return Query(outs, tuple(treatments)), wants_empty
