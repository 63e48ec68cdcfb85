"""Dependency-graph analysis: recursive predicates and relevant subprograms.

The graph has a vertex per predicate and an edge (Q, R) whenever Q occurs in
the body of a rule whose head predicate is R.  TOP and BOTTOM are not
vertices; rules with BOTTOM heads contribute no edges but are always part of
every relevant subprogram, since they can fire inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .syntax import Program


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


def to_dot(info: DependencyInfo) -> str:
    lines = ["digraph dependencies {"]
    for v in sorted(info.graph.nodes):
        shape = "doublecircle" if v in info.recursive else "ellipse"
        lines.append(f'  "{v}" [shape={shape}];')
    for a, b in sorted(info.graph.edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
