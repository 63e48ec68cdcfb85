"""Dense-grid oracle: pointwise semantics over a rational ruler.

Definitive for bounded instances.  Let d be the gcd of all finite endpoint
magnitudes and operator bounds.  Truth of every subformula is constant on
each grid point k*d and each open segment (k*d, (k+1)*d), so evaluating the
pointwise semantics at one representative per cell decides interval-level
truth exactly.  This module shares no code path with apply_operator: all
quantifiers are enumerated cell by cell.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .analysis import instance_granularity, total_reach
from .intervals import (
    Interval,
    coalesce,
    intersect,
    is_finite,
    normalize,
    point,
    subset,
)
from .syntax import (
    BinaryOp,
    Bottom,
    Fact,
    MetricAtom,
    Program,
    Rel,
    Rule,
    Top,
    UnaryOp,
)

# A cell is (k, kind): kind 0 = the point k*d, kind 1 = the segment
# (k*d, (k+1)*d).
Cell = tuple[int, int]


class GridOracle:
    """Pointwise evaluation of metric atoms over a cell model.

    The model maps ground relational atom keys to sets of cells.  Operators
    with unbounded intervals are rejected: the oracle only covers bounded
    instances.
    """

    def __init__(self, program: Program, facts: Sequence[Fact]):
        # the oracle's own arithmetic stays on Fractions (d / 2 included)
        self.d = Fraction(instance_granularity(program, facts))
        endpoints = []
        for f in facts:
            for b in (f.interval.left, f.interval.right):
                if is_finite(b):
                    endpoints.append(b)
        lo = min(endpoints, default=Fraction(0))
        hi = max(endpoints, default=Fraction(0))
        reach = total_reach(program)
        # the comparison window; quantifier regions of literals evaluated
        # here stay inside the data support plus one total reach
        self.window = normalize(lo - reach, hi + reach, False, False)
        self._cell_ivs: dict = {}
        self._window_cells: Optional[list[Cell]] = None
        self.model: dict = {}
        for f in facts:
            self.model.setdefault(f.atom.key(), set()).update(
                self.cells_covering(f.interval)
            )
        self._memo: dict = {}

    # -- cell geometry

    def cell_interval(self, cell: Cell) -> Interval:
        iv = self._cell_ivs.get(cell)
        if iv is None:
            k, kind = cell
            a = k * self.d
            iv = point(a) if kind == 0 else normalize(a, a + self.d, True, True)
            self._cell_ivs[cell] = iv
        return iv

    def representative(self, cell: Cell) -> Fraction:
        k, kind = cell
        return k * self.d if kind == 0 else k * self.d + self.d / 2

    def cells_covering(self, iv: Interval) -> list[Cell]:
        """All cells whose intersection with iv is non-empty.

        iv must be bounded; endpoints need not be grid-aligned.
        """
        if iv.is_empty:
            return []
        if not (is_finite(iv.left) and is_finite(iv.right)):
            raise ValueError("cells_covering requires a bounded interval")
        kmin = iv.left // self.d
        kmax = iv.right // self.d + 1
        out = []
        for k in range(kmin, kmax + 1):
            for kind in (0, 1):
                cell = (k, kind)
                if not intersect(self.cell_interval(cell), iv).is_empty:
                    out.append(cell)
        return out

    def window_cells(self) -> list[Cell]:
        # the window is fixed at construction, so compute this once
        if self._window_cells is None:
            cells = self.cells_covering(self.window)
            self._window_cells = [
                c for c in cells if subset(self.cell_interval(c), self.window)
            ]
        return self._window_cells

    def cells_to_intervals(self, cells: Iterable[Cell]) -> list[Interval]:
        return coalesce(self.cell_interval(c) for c in cells)

    # -- truth

    def truth(self, literal: MetricAtom, cell: Cell) -> bool:
        key = (literal, cell)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._truth(literal, cell)
            self._memo[key] = hit
        return hit

    def _truth(self, literal: MetricAtom, cell: Cell) -> bool:
        if isinstance(literal, Top):
            return True
        if isinstance(literal, Bottom):
            return False
        if isinstance(literal, Rel):
            return cell in self.model.get(literal.atom.key(), ())
        t = self.representative(cell)
        if isinstance(literal, UnaryOp):
            rho = literal.interval
            if literal.op in ("DIAMONDMINUS", "BOXMINUS"):
                region = _shift_past(t, rho)
            else:
                region = _shift_future(t, rho)
            exists = literal.op in ("DIAMONDMINUS", "DIAMONDPLUS")
            return self._quantify(region, literal.sub, exists)
        if isinstance(literal, BinaryOp):
            rho = literal.interval
            past = literal.op == "SINCE"
            region = _shift_past(t, rho) if past else _shift_future(t, rho)
            # empty-gap witness t' = t, allowed when 0 is in rho
            if not rho.left_open and rho.left == 0 and self.truth(literal.right, cell):
                return True
            for wc in self.cells_covering(region):
                overlap = intersect(self.cell_interval(wc), region)
                if overlap.is_empty:
                    continue
                if overlap.is_punctual and overlap.left == t:
                    continue  # only the t'=t witness, already handled
                if not self.truth(literal.right, wc):
                    continue
                gap = self._gap_interval(wc, t, past)
                if self._quantify(gap, literal.left, exists=False):
                    return True
            return False
        raise TypeError(f"not a metric atom: {literal!r}")

    def _gap_interval(self, witness_cell: Cell, t: Fraction, past: bool) -> Interval:
        """Open interval between a witness inside the cell and t.

        For a segment-cell witness the set of cells met by the gap is the
        same for every interior witness point, so the segment's far edge is
        a faithful stand-in.
        """
        k, kind = witness_cell
        if kind == 0:
            w = k * self.d
        else:
            # edge of the segment facing away from t
            w = k * self.d if past else (k + 1) * self.d
        if past:
            return normalize(w, t, True, True)
        return normalize(t, w, True, True)

    def _quantify(self, region: Interval, sub: MetricAtom, exists: bool) -> bool:
        if region.is_empty:
            return not exists
        for c in self.cells_covering(region):
            if intersect(self.cell_interval(c), region).is_empty:
                continue
            if exists and self.truth(sub, c):
                return True
            if not exists and not self.truth(sub, c):
                return False
        return not exists

    # -- one-step rule consequences and canonical model (pointwise)

    def apply_rules_once(self, ground_rules: Iterable[Rule]) -> bool:
        """Derive heads pointwise from the current model; True if it grew.

        Bottom derivations are recorded under the key ("#bottom#", ()).
        """
        additions: dict = {}
        for rule in ground_rules:
            for cell in self.window_cells():
                if all(self.truth(b, cell) for b in rule.body):
                    self._derive(rule.head, cell, additions)
        grew = False
        for key, cells in additions.items():
            have = self.model.setdefault(key, set())
            new = cells - have
            if new:
                have |= new
                grew = True
        if grew:
            self._memo.clear()
        return grew

    def _derive(self, head: MetricAtom, cell: Cell, additions: dict):
        if isinstance(head, Bottom):
            additions.setdefault(("#bottom#", ()), set()).add(cell)
            return
        if isinstance(head, Rel):
            additions.setdefault(head.atom.key(), set()).add(cell)
            return
        if isinstance(head, UnaryOp):
            t = self.representative(cell)
            rho = head.interval
            region = _shift_past(t, rho) if head.op == "BOXMINUS" else _shift_future(t, rho)
            for c in self.cells_covering(region):
                if not intersect(self.cell_interval(c), region).is_empty:
                    self._derive(head.sub, c, additions)
            return
        raise ValueError(f"invalid head atom: {head}")

    def materialise(self, ground_rules: Sequence[Rule], max_rounds: int = 200) -> int:
        rounds = 0
        while rounds < max_rounds:
            if not self.apply_rules_once(ground_rules):
                return rounds
            rounds += 1
        raise RuntimeError("grid-oracle materialisation did not converge")

    def holds_cells(self, literal: MetricAtom) -> set[Cell]:
        return {c for c in self.window_cells() if self.truth(literal, c)}

    def holds_intervals(self, literal: MetricAtom) -> list[Interval]:
        return self.cells_to_intervals(self.holds_cells(literal))


def _shift_past(t: Fraction, rho: Interval) -> Interval:
    """{t' : t - t' in rho} = [t - rho+, t - rho-], openness swapped."""
    if not (is_finite(rho.left) and is_finite(rho.right)):
        raise ValueError("grid oracle requires bounded operator intervals")
    return normalize(t - rho.right, t - rho.left, rho.right_open, rho.left_open)


def _shift_future(t: Fraction, rho: Interval) -> Interval:
    """{t' : t' - t in rho} = [t + rho-, t + rho+]."""
    if not (is_finite(rho.left) and is_finite(rho.right)):
        raise ValueError("grid oracle requires bounded operator intervals")
    return normalize(t + rho.left, t + rho.right, rho.left_open, rho.right_open)
