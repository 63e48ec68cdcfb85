"""Dependency-graph analysis: recursive predicates and relevant subprograms.

The graph, a dict of plain sets, has a vertex per predicate and an edge (Q, R)
whenever Q occurs in the body of a rule whose head predicate is R.  TOP and
BOTTOM are not vertices; rules with BOTTOM heads contribute no edges but are
part of every relevant subprogram, since they can fire inconsistency.
`propagation` classifies a program by the direction in which its rules carry
facts along the timeline.  `instance_granularity` and `total_reach` measure
an instance's time scale and its operators' combined reach.  All three read
`syntax.operator_nodes`, a filter of `syntax.nodes`, the one walk over a
metric atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .intervals import Bound, gcd_rationals, is_finite, rational
from .syntax import Fact, MetricAtom, Program, operator_nodes


@dataclass(frozen=True)
class DependencyInfo:
    edges: dict[str, set[str]]  # predicate -> heads of the rules reading it
    sccs: list[frozenset[str]]  # each after every one it reaches
    recursive: frozenset[str]


def _components(edges: dict[str, set[str]]) -> list[frozenset[str]]:
    """Strongly connected components, sinks first (Tarjan, on an explicit stack)."""
    index, low, heads = {}, {}, {}  # low is len(edges), above every index, once placed
    path, comps = [], []  # path: visited and not yet placed in a component
    for root in edges:
        work = [root]
        while work:
            v = work[-1]
            if v not in index:
                index[v] = low[v] = len(index)
                heads[v] = iter(edges[v])
                path.append(v)
            for w in heads[v]:
                if w not in index:
                    work.append(w)
                    break
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if work:
                    low[work[-1]] = min(low[work[-1]], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while v not in comp:
                        comp.add(path.pop())
                    comps.append(frozenset(comp))
                    low.update(dict.fromkeys(comp, len(edges)))
    return comps


def dependency_info(program: Program) -> DependencyInfo:
    edges: dict[str, set[str]] = {p: set() for p in program.predicates()}
    for rule in program.rules:
        head = rule.head_predicate()  # None for BOTTOM heads
        if head is not None:
            for pred in rule.body_predicates():
                edges[pred].add(head)
    sccs = _components(edges)
    recursive: set[str] = set()
    for comp in reversed(sccs):  # sources first, so each edge into comp is seen
        if comp & recursive or any(edges[v] & comp for v in comp):
            recursive |= comp.union(*(edges[v] for v in comp))
    return DependencyInfo(edges, sccs, frozenset(recursive))


def is_recursive(program: Program) -> bool:
    return bool(dependency_info(program).recursive)


def relevant_rules(program: Program, predicate: str) -> Program:
    """Subprogram of rules that can contribute to `predicate` or to BOTTOM.

    A rule is relevant when its head predicate reaches, via dependency-graph
    edges, a body predicate of some rule with `predicate` or BOTTOM in the
    head; rules with such heads themselves count (zero-length path).
    """
    info = dependency_info(program)
    keep = {None, predicate}  # whatever has an edge into predicate is kept next anyway
    keep |= set().union(*(r.body_predicates() for r in program.rules if r.head_predicate() in keep))
    for comp in info.sccs:  # sinks first, so each edge out of comp is settled
        if any(info.edges[v] & keep for v in comp):
            keep |= comp
    return Program(tuple(r for r in program.rules if r.head_predicate() in keep))


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
        heads |= {n.op for n in operator_nodes(rule.head)}
        body |= {n.op for lit in rule.body for n in operator_nodes(lit)}
    if body <= {"DIAMONDMINUS", "BOXMINUS", "SINCE"} and heads <= {"BOXPLUS"}:
        return 1
    if body <= {"DIAMONDPLUS", "BOXPLUS", "UNTIL"} and heads <= {"BOXMINUS"}:
        return -1
    return 0


def instance_granularity(program: Program, facts: Sequence[Fact]) -> Bound:
    """gcd of all finite endpoint magnitudes and operator bounds; 1 if all zero."""
    vals = []
    for f in facts:
        for b in (f.interval.left, f.interval.right):
            if is_finite(b):
                vals.append(abs(b))
    for r in program.rules:
        for m in (r.head, *r.body):
            vals.extend(_operator_bounds(m))
    vals = [v for v in vals if v != 0]
    if not vals:
        return 1
    return gcd_rationals(vals)


def _operator_bounds(m: MetricAtom) -> list[Bound]:
    """The magnitudes of the finite bounds of m's operator intervals."""
    return [
        abs(b)
        for n in operator_nodes(m)
        for b in (n.interval.left, n.interval.right)
        if is_finite(b)
    ]


def total_reach(program: Program) -> Bound:
    """Sum of all finite operator bounds; pads the evaluation range."""
    total = 0
    for r in program.rules:
        for m in (r.head, *r.body):
            total += sum(_operator_bounds(m))
    return rational(total)


def to_dot(info: DependencyInfo) -> str:
    lines = ["digraph dependencies {"]
    for v in sorted(info.edges):
        shape = "doublecircle" if v in info.recursive else "ellipse"
        lines.append(f'  "{v}" [shape={shape}];')
    for a, b in sorted((a, b) for a, heads in info.edges.items() for b in heads):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
