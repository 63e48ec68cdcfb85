"""Dependency-graph analysis: recursive predicates and relevant subprograms.

The graph has a vertex per predicate and an edge (Q, R) whenever Q occurs in
the body of a rule whose head predicate is R.  TOP and BOTTOM are not
vertices; rules with BOTTOM heads contribute no edges but are always part of
every relevant subprogram, since they can fire inconsistency.

`propagation` classifies a program by the direction in which its rules carry
facts along the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .syntax import BinaryOp, MetricAtom, Program, UnaryOp


@dataclass(frozen=True)
class DependencyInfo:
    graph: nx.DiGraph
    sccs: tuple[frozenset[str], ...]
    recursive: frozenset[str]
    topo: tuple[frozenset[str], ...]  # condensation order, sources first


def dependency_info(program: Program) -> DependencyInfo:
    g = nx.DiGraph()
    g.add_nodes_from(program.predicates())
    for rule in program.rules:
        head = rule.head_predicate()  # None for BOTTOM heads
        if head is None:
            continue
        for pred in rule.body_predicates():
            g.add_edge(pred, head)
    sccs = tuple(frozenset(c) for c in nx.strongly_connected_components(g))
    on_cycle = set()
    for comp in sccs:
        if len(comp) > 1:
            on_cycle |= comp
        else:
            (v,) = comp
            if g.has_edge(v, v):
                on_cycle.add(v)
    recursive = set(on_cycle)
    for v in on_cycle:
        recursive |= nx.descendants(g, v)
    cond = nx.condensation(g, scc=[set(c) for c in sccs])
    order = list(nx.topological_sort(cond))
    topo = tuple(frozenset(cond.nodes[i]["members"]) for i in order)
    return DependencyInfo(g, sccs, frozenset(recursive), topo)


def is_recursive(program: Program) -> bool:
    info = dependency_info(program)
    return bool(info.recursive)


def relevant_rules(program: Program, predicate: str) -> Program:
    """Subprogram of rules that can contribute to `predicate` or to BOTTOM.

    A rule is relevant when its head predicate reaches, via dependency-graph
    edges, a body predicate of some rule with `predicate` or BOTTOM in the
    head; rules with such heads themselves count (zero-length path).
    """
    info = dependency_info(program)
    g = info.graph
    # predicates from which some target body-predicate is reachable
    targets = set()
    for rule in program.rules:
        head = rule.head_predicate()
        if head is None or head == predicate:
            targets |= rule.body_predicates()
    sources = set(targets)
    for t in targets:
        if t in g:
            sources |= nx.ancestors(g, t)
    picked = []
    for rule in program.rules:
        head = rule.head_predicate()
        if head is None or head == predicate:
            picked.append(rule)
        elif head in sources:
            picked.append(rule)
    return Program(tuple(picked))


def _operators(m: MetricAtom) -> set[str]:
    """The temporal operators anywhere inside m."""
    if isinstance(m, UnaryOp):
        return {m.op} | _operators(m.sub)
    if isinstance(m, BinaryOp):
        return {m.op} | _operators(m.left) | _operators(m.right)
    return set()


def propagation(program: Program) -> int:
    """1 when the program propagates forward, -1 when it propagates
    backward, 0 when it is mixed.

    Forward: body operators are only DIAMONDMINUS, BOXMINUS and SINCE, and
    head boxes only BOXPLUS, so a fact derived at t needs body facts at t or
    before (Walega, Kaminski & Cuenca Grau, AAAI 2019); backward is the
    mirror.  A program with no temporal operators counts as forward.  A
    BOTTOM head makes a program mixed: inconsistency derived at any time
    entails every fact.
    """
    body: set[str] = set()
    heads: set[str] = set()
    for rule in program.rules:
        if rule.head_predicate() is None:
            return 0
        heads |= _operators(rule.head)
        for lit in rule.body:
            body |= _operators(lit)
    if body <= {"DIAMONDMINUS", "BOXMINUS", "SINCE"} and heads <= {"BOXPLUS"}:
        return 1
    if body <= {"DIAMONDPLUS", "BOXPLUS", "UNTIL"} and heads <= {"BOXMINUS"}:
        return -1
    return 0


def to_dot(info: DependencyInfo) -> str:
    lines = ["digraph dependencies {"]
    for v in sorted(info.graph.nodes):
        shape = "doublecircle" if v in info.recursive else "ellipse"
        lines.append(f'  "{v}" [shape={shape}];')
    for a, b in sorted(info.graph.edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
