"""Automata-based consistency over the rational timeline.

Scaling time by a positive constant leaves consistency unchanged, so the
engine first divides every bound of the program and the data by their gcd:
it runs on the unit ruler, where every bound is an int.  The ruler tiles
time by cells, plain ints: cell 2k is the point k and cell 2k+1 the open
segment (k, k+1).  A window assigns each covered cell a letter, the set of
ground atoms holding there.  Every literal, heads included, reads atoms at
most z away, so when the search labels one more cell, each violation that
cell causes shows within the window of the last 2z+1 cells, the only
window the search keeps.  Consistency = a satisfiable assignment of the
span Q = [-x-z, x+z] that extends to infinite runs in both directions,
found by depth-first search with cycle detection on shift-invariant window
states.  Every interval the search handles (data, horizon, span, cells, and
the sums and intersections of them that operators and heads produce) has
int endpoints, so the cells one meets are exactly the cells it contains, a
contiguous run that `cells_in` computes by arithmetic; `cells_interval`
maps a run back.  The atoms a span cell must hold are those of the least
model of the data, which `materialise` computes with every round clipped to
the span widened by the program's total reach.

A search state is a window and the obligations still pending.  The span
search and both tail searches step through one generator of states; the
right tail starts from the span's last state, the left one from the span's
first 2z+1 cells.  Each candidate letter polls once before its window
check, so the state budget `max_states` counts the span-materialisation
rounds plus every candidate letter either search checks.

`consistent` first splits the ground instance: ground rules that mention a
common atom form one component, and each fact joins its atom's component.
Components share no atom, so the union of models of each is a model of the
whole, and the instance is consistent iff every component is.  A component
without a BOTTOM-head rule always is: the interpretation where every atom
holds everywhere satisfies each of its facts and atom-headed rules, boxes
included.  Only the others get an engine, with its own scale and span.

Window checks run on cell bitmasks.  The engine compiles each ground rule
once per cell parity (a point or an open segment): the cells a unary
operator reads, the cells a head must cover and the cells whose firing
covers a cell are offsets from the cell, so a body literal's truth over a
window is shifts, ORs and ANDs of its atoms' masks, and a check is a bit
test.  SINCE and UNTIL are left to `apply_operator` over the window's
letter store, built only for a window that meets one.  Each search state
carries the window whose check admitted it, so the letters that expand the
state are pruned with the masks that check already computed.

Unbounded operator intervals are supported where the shipped pipeline
produces them: the entailment reduction's rule BOTTOM :- anchor, BOX[0,inf)M
with a punctual anchor fact.  Such a rule is equivalent to the obligation
"some model makes M fail on the box side of the anchor", a one-shot
eventuality tracked as a sticky discharge flag in the search state.  The
engine keeps only the obligation: its windows are finite and its span
materialisation clips every list to a bounded horizon, so the box holds
nowhere inside it and the rule is neither grounded nor compiled.  Other
unbounded-interval literals in rules are rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .analysis import _operator_bounds, instance_granularity, total_reach
from .evaluation import apply_operator, reverse_head
from .intervals import (
    Bound,
    Interval,
    POS_INF,
    intersect,
    interval_op,
    is_finite,
    make,
    normalize,
    point,
    rational,
)
from .materialisation import materialise
from .store import AtomKey, FactStore
from .syntax import (
    BinaryOp,
    Bottom,
    Fact,
    MetricAtom,
    Program,
    Rel,
    RelationalAtom,
    Rule,
    UnaryOp,
    ground,
    head_parts,
    operator_nodes,
    relational_atoms,
)


class Cancelled(Exception):
    """Raised when a cancellation token fires mid-search."""


class SearchBudgetExceeded(RuntimeError):
    """The state budget ran out before a definitive answer."""


# ---------------------------------------------------------------- reduction


@dataclass(frozen=True)
class ReductionOutput:
    program: Program
    dataset: tuple[Fact, ...]


def entail_to_inconsist(
    program: Program, dataset: Sequence[Fact], query: Fact
) -> ReductionOutput:
    """Reduce fact entailment to inconsistency of an extended instance.

    Adds BOTTOM :- $anchor, B and $anchor@[p,p], the last fact of the
    dataset, where B holds at the anchor p iff the query atom holds
    throughout the query interval.  The anchor's predicate `$anchor` is
    fixed, and no parsed program, dataset or query can name it: the
    tokenizer reads no `$`, so a printed reduction does not parse.  Query intervals
    unbounded on both sides raise NotImplementedError.
    """
    rho = query.interval
    m = Rel(query.atom)
    if is_finite(rho.left) and is_finite(rho.right):
        if rho.is_punctual:
            p, b = rho.left, m
        else:
            p = rho.right
            # box openness mirrors the query openness: excluding an endpoint
            # of rho drops the corresponding end of the covering requirement
            box = make(0, rho.right - rho.left, rho.right_open, rho.left_open)
            b = UnaryOp("BOXMINUS", box, m)
    elif is_finite(rho.left):
        p = rho.left
        b = UnaryOp("BOXPLUS", make(0, POS_INF, rho.left_open, True), m)
    elif is_finite(rho.right):
        p = rho.right
        b = UnaryOp("BOXMINUS", make(0, POS_INF, rho.right_open, True), m)
    else:
        raise NotImplementedError("query intervals unbounded on both sides are unsupported")
    anchor = RelationalAtom("$anchor", ())
    rule = Rule(Bottom(), (Rel(anchor), b))
    return ReductionOutput(Program(program.rules + (rule,)), tuple(dataset) + (Fact(anchor, point(p)),))


# ---------------------------------------------------------------- unit ruler


def _literal_reach(m: MetricAtom) -> Bound:
    """How far (in time) the truth of m at a point can depend on atoms."""
    if isinstance(m, UnaryOp):
        return _op_extent(m.interval) + _literal_reach(m.sub)
    if isinstance(m, BinaryOp):
        return _op_extent(m.interval) + max(
            _literal_reach(m.left), _literal_reach(m.right)
        )
    return 0


def _op_extent(iv: Interval) -> Bound:
    vals = [abs(b) for b in (iv.left, iv.right) if is_finite(b)]
    return max(vals, default=0)


# cell c of the unit ruler: even c is the point c/2, odd c the open segment
# between the points (c-1)/2 and (c+1)/2


def cells_interval(lo: int, hi: int) -> Interval:
    """The interval that cells lo..hi cover; EMPTY when hi < lo."""
    return normalize(lo // 2, (hi + 1) // 2, lo % 2 == 1, hi % 2 == 1)


def cells_in(iv: Interval) -> range:
    """The cells an interval with int endpoints contains, one contiguous
    run: exactly the cells it meets."""
    if iv.is_empty:
        return range(0)
    if type(iv.left) is not int or type(iv.right) is not int:
        raise ValueError(f"cells_in requires int endpoints, got {iv}")
    return range(2 * iv.left + iv.left_open, 2 * iv.right - iv.right_open + 1)


def _divided(iv: Interval, d: Bound) -> Interval:
    """iv with every finite bound divided by d."""
    left, right = (
        rational(Fraction(b, d)) if is_finite(b) else b for b in (iv.left, iv.right)
    )
    return normalize(left, right, iv.left_open, iv.right_open)


def _rescaled(m: MetricAtom, d: Bound) -> MetricAtom:
    """m with every operator interval divided by d."""
    if isinstance(m, UnaryOp):
        return UnaryOp(m.op, _divided(m.interval, d), _rescaled(m.sub, d))
    if isinstance(m, BinaryOp):
        return BinaryOp(
            m.op, _divided(m.interval, d), _rescaled(m.left, d), _rescaled(m.right, d)
        )
    return m


# ---------------------------------------------------------------- window


Letter = frozenset  # of AtomKey


def _letters_store(lo: int, letters: Sequence[Letter]) -> FactStore:
    """The store of a window: per key, one interval per maximal run of
    consecutive cells whose letter holds the key (runs split by a missing
    cell cannot coalesce, so the lists arrive coalesced)."""
    runs: dict[AtomKey, list[list[int]]] = {}  # key -> [first, last] cells
    for c, letter in enumerate(letters, lo):
        for key in letter:
            r = runs.setdefault(key, [])
            if r and r[-1][1] == c - 1:
                r[-1][1] = c
            else:
                r.append([c, c])
    return FactStore.from_intervals(
        {key: [cells_interval(a, b) for a, b in r] for key, r in runs.items()}
    )


Offsets = tuple[tuple[int, int], tuple[int, int]]  # per cell parity: first, last


def _offsets(region) -> Offsets:
    """Per cell parity q, the first and last offset d such that cell q + d
    meets region(cells_interval(q, q)), a non-empty interval."""
    out = []
    for q in (0, 1):
        run = cells_in(region(cells_interval(q, q)))
        out.append((run.start - q, run.stop - 1 - q))
    return tuple(out)


def _shifts(x: int, first: int, last: int, every: bool) -> int:
    """The AND (every) or OR over d = first..last of x shifted so that bit i
    reads bit i + d."""
    out = -1 if every else 0
    for d in range(first, last + 1):
        s = x >> d if d >= 0 else x << -d
        out = out & s if every else out | s
    return out


class _Templates:
    """Ground rules compiled for window checks on cell bitmasks.

    Each distinct body literal becomes a node: ("rel", key); ("op", sub,
    every, offsets) for a bounded unary operator, which holds at a cell iff
    its sub-node holds at every (box) or some (diamond) cell within the
    cell's offsets; ("eval", literal) for the rest (SINCE, UNTIL, TOP,
    BOTTOM, unbounded operators), which `apply_operator` evaluates over the
    window's letter store.  Offsets depend only on the parity of the cell,
    as ground rules and reaches are shift-invariant on the unit ruler.
    """

    def __init__(self, ground_rules: Sequence[Rule]):
        self.literals: list = []  # literal index -> node
        index: dict[MetricAtom, int] = {}
        # per rule, in order: (body literal indices, None for a BOTTOM head
        # or (head key, the offsets of the cells its head must cover))
        self.checks: list = []
        # head key -> [(body literal indices, body reaches in cells, the
        # offsets of the cells whose firing covers a cell)]
        self.by_head: dict[AtomKey, list] = {}
        # the cells around a window that nested operators read
        self.margin = 0
        for rule in ground_rules:
            for lit in rule.body:
                if lit not in index:
                    index[lit] = len(self.literals)
                    self.literals.append(self._node(lit))
            body = tuple(index[lit] for lit in rule.body)
            reaches = tuple(2 * _literal_reach(lit) for lit in rule.body)
            self.margin = max(self.margin, 2 * _literal_reach(rule.head), *reaches)
            boxes, base = head_parts(rule.head)
            if not isinstance(base, Rel):
                self.checks.append((body, None))
                continue
            region = _offsets(lambda iv: reverse_head(rule.head, [iv])[0].interval)
            self.checks.append((body, (base.atom.key(), region)))
            fire = _offsets(lambda iv: _firing(boxes, iv))
            self.by_head.setdefault(base.atom.key(), []).append((body, reaches, fire))

    def _node(self, m: MetricAtom) -> tuple:
        if isinstance(m, Rel):
            return ("rel", m.atom.key())
        if isinstance(m, UnaryOp):
            every = m.op.startswith("BOX")
            if is_finite(m.interval.left) and is_finite(m.interval.right):
                kind = "minus" if m.op.endswith("MINUS") else "plus"
                offsets = _offsets(lambda iv: interval_op(kind, iv, m.interval))
                return ("op", self._node(m.sub), every, offsets)
        return ("eval", m)


def _firing(boxes: Sequence[UnaryOp], iv: Interval) -> Interval:
    """The points at which a body firing makes a head with these boxes
    (outermost first) cover a point of iv."""
    for box in boxes:
        iv = interval_op("plus" if box.op == "BOXMINUS" else "minus", iv, box.interval)
    return iv


class _Window:
    """One window's letters as cell bitmasks.  Bit i stands for cell base +
    i; base is even, so bit parity is cell parity, and at least the
    templates' margin below lo, so nested operators can read the cells
    around the window, where the letter store holds nothing."""

    def __init__(self, templates: _Templates, lo: int, letters: Sequence[Letter]):
        self.templates = templates
        self.lo, self.letters = lo, tuple(letters)
        self.hi = lo + len(letters) - 1
        self.base = lo - templates.margin
        self.base -= self.base & 1
        off = lo - self.base
        self.bits = ((1 << len(letters)) - 1) << off  # the window's own cells
        width = off + len(letters) + templates.margin
        self.full = (1 << (width + (width & 1))) - 1
        self.even = self.full // 3  # an even width makes this 0b0101...01
        self.odd = self.full ^ self.even
        self.masks: dict[AtomKey, int] = {}  # key -> the cells that hold it
        for i, letter in enumerate(self.letters, off):
            for key in letter:
                self.masks[key] = self.masks.get(key, 0) | 1 << i
        self._held: dict[int, int] = {}  # literal index -> its mask
        self._store: Optional[FactStore] = None

    def run(self, first: int, last: int) -> int:
        """The mask of cells first..last."""
        if first > last:
            return 0
        return ((1 << (last - first + 1)) - 1) << (first - self.base)

    def by_parity(self, x: int, offsets: Offsets, every: bool) -> int:
        """The AND (every) or OR of x's shifts by each cell's own offsets."""
        (a0, b0), (a1, b1) = offsets
        if a0 == a1 and b0 == b1:
            return _shifts(x, a0, b0, every) & self.full
        return (_shifts(x, a0, b0, every) & self.even) | (
            _shifts(x, a1, b1, every) & self.odd
        )

    def literal(self, i: int) -> int:
        """The cells where literal i holds over the window's letter store:
        exact on the window's own cells."""
        held = self._held.get(i)
        if held is None:
            held = self._held[i] = self._mask(self.templates.literals[i])
        return held

    def justifiable(self, key: AtomKey, new_cell: int) -> bool:
        """Could any rule still derive `key` over the new cell?

        Only the least model matters for consistency (extra atoms can only
        fire more rules), so atoms no rule can derive are never worth
        guessing.  A rule counts as possible unless some body literal whose
        whole evaluation region lies on the window's cells is false there.
        """
        for body, reaches, fire in self.templates.by_head.get(key, ()):
            first, last = fire[new_cell & 1]
            if new_cell + first < self.lo or new_cell + last > self.hi:
                return True  # a firing cell outside the window: unknown
            possible = self.run(new_cell + first, new_cell + last)
            for i, rc in zip(body, reaches):
                known = self.run(self.lo + rc, self.hi - rc)
                if possible & known:
                    possible &= self.literal(i) | ~known
                    if not possible:
                        break
            if possible:
                return True
        return False

    def _mask(self, node: tuple) -> int:
        tag = node[0]
        if tag == "rel":
            return self.masks.get(node[1], 0)
        if tag == "op":
            return self.by_parity(self._mask(node[1]), node[3], node[2])
        if self._store is None:
            self._store = _letters_store(self.lo, self.letters)
        cover = cells_interval(self.base, self.base + self.full.bit_length() - 1)
        out = 0
        for iv in apply_operator(node[1], self._store):
            run = cells_in(intersect(iv, cover))
            out |= self.run(run.start, run.stop - 1)
        return out


def _check_window(win: _Window, span_lo: int, span_hi: int) -> tuple[bool, bool]:
    """Validate the ground rules over a window.

    Each cell where a rule's body holds must have the head installed over
    the part of its required region inside the window: bodies are monotone
    in the letters, so a body already true with its head missing inside the
    fixed window can never be repaired.  A cell whose whole z-neighbourhood
    lies in the window has its whole head region there, so this is the full
    check for it.  Returns (ok, fixable) for the first rule that fails, at
    its first failing cell: fixable means the failure was a missing head
    overlapping the span span_lo..span_hi, which a different span assignment
    might supply.
    """
    for body, head in win.templates.checks:
        held = win.bits
        for i in body:
            held &= win.literal(i)
            if not held:
                break
        if not held:
            continue
        if head is None:  # BOTTOM fired; never repairable
            return False, False
        key, region = head
        # a cell is covered when its head atom holds on every window cell
        # of its region; cells outside the window count as holding
        covered = win.by_parity(win.masks.get(key, 0) | ~win.bits, region, True)
        bad = held & ~covered
        if bad:
            c = win.base + (bad & -bad).bit_length() - 1
            first, last = region[c & 1]
            fixable = max(c + first, win.lo, span_lo) <= min(c + last, win.hi, span_hi)
            return False, fixable
    return True, False


# ---------------------------------------------------------------- obligations


@dataclass(frozen=True)
class Obligation:
    """One-shot eventuality: some cell on `direction`'s side of min_cell must
    lack `atom` (discharging the reduction's unbounded box)."""

    atom: AtomKey
    min_cell: int
    direction: int  # +1 right, -1 left

    def discharged_at(self, cell: int, letter: Letter) -> bool:
        """Does `letter` on `cell` discharge it: is the cell beyond min_cell
        and does its letter lack the atom?"""
        beyond = cell >= self.min_cell if self.direction == 1 else cell <= self.min_cell
        return beyond and self.atom not in letter


def _contains_unbounded(m: MetricAtom) -> bool:
    return any(
        not (is_finite(n.interval.left) and is_finite(n.interval.right))
        for n in operator_nodes(m)
    )


def _extract_obligations(
    program: Program, dataset: Sequence[Fact]
) -> tuple[list[Obligation], Program]:
    """The obligations of the rules that match the reduction pattern, and
    the other rules; other unbounded literals are rejected."""
    head_preds = {r.head_predicate() for r in program.rules} - {None}
    out, rest = [], []
    for rule in program.rules:
        if _contains_unbounded(rule.head):
            raise NotImplementedError(
                "unbounded operator intervals in rule heads are unsupported"
            )
        unbounded = [b for b in rule.body if _contains_unbounded(b)]
        if not unbounded:
            rest.append(rule)
            continue
        box = unbounded[0]
        anchor = next((b for b in rule.body if b is not box), None)
        ok = (
            isinstance(rule.head, Bottom)
            and len(rule.body) == 2
            and len(unbounded) == 1
            and isinstance(box, UnaryOp)
            and box.op in ("BOXMINUS", "BOXPLUS")
            and isinstance(box.sub, Rel)
            and isinstance(anchor, Rel)
            and anchor.atom.predicate not in head_preds
        )
        anchor_facts = (
            [f for f in dataset if f.atom.key() == anchor.atom.key()] if ok else []
        )
        ok = ok and len(anchor_facts) == 1 and anchor_facts[0].interval.is_punctual
        if not ok:
            raise NotImplementedError(
                "unbounded operator intervals in rule bodies are only supported "
                "in the entailment-reduction pattern (BOTTOM :- anchor, box M)"
            )
        p = anchor_facts[0].interval.left
        direction = 1 if box.op == "BOXPLUS" else -1
        base = 2 * (p + direction * box.interval.left)
        if box.interval.left_open:
            base += direction  # strict: the anchor point itself cannot discharge
        out.append(Obligation(box.sub.atom.key(), base, direction))
    return out, Program(tuple(rest))


def _instance(program: Program, dataset: Sequence[Fact]) -> tuple[list[Fact], set[str]]:
    """The facts on the program's body predicates, and the constants of its
    rules and of those facts.  A fact on a predicate no body reads feeds no
    rule, so it cannot influence consistency."""
    body_preds = set().union(*(r.body_predicates() for r in program.rules))
    facts = [f for f in dataset if f.atom.predicate in body_preds]
    return facts, program.constants() | {a.name for f in facts for a in f.atom.args}


# ---------------------------------------------------------------- engine


class _Engine:
    """Decides one ground component, as `consistent` hands it over: every
    rule of `program` is ground, and a rule with a variable raises
    ValueError.  `must` holds each span cell's forced atoms, or is None
    when the span materialisation derives BOTTOM."""

    def __init__(
        self,
        program: Program,
        dataset: Sequence[Fact],
        *,
        prune_letters: bool = True,
        cancelled=None,
        max_states: int = 200_000,
    ):
        if any(r.variables() for r in program.rules):
            raise ValueError("the engine takes ground rules only")
        # read before the reduction rule is dropped: its anchor fact sets the span
        facts, _ = _instance(program, dataset)
        # consistency is invariant under scaling time by a positive constant:
        # divide every bound by the instance gcd, so the search runs on the
        # unit ruler and every bound it handles is an int
        d = instance_granularity(program, facts)
        program = Program(
            tuple(
                Rule(_rescaled(r.head, d), tuple(_rescaled(b, d) for b in r.body))
                for r in program.rules
            )
        )
        self.facts = [Fact(f.atom, _divided(f.interval, d)) for f in facts]
        # the span Q = [-x-z, x+z]: x bounds the data's finite endpoints, z
        # every literal's reach, heads included
        x = max(
            (abs(b) for f in self.facts for b in (f.interval.left, f.interval.right) if is_finite(b)),
            default=0,
        )
        # z counts the reduction box's start: `tail_ok` keys states past the span
        # without their position, so no obligation may start further out
        z = max((_literal_reach(m) for r in program.rules for m in (r.head, *r.body)), default=0)
        self.span = make(-x - z, x + z)
        self.span_lo, self.span_hi, self.z_cells = -2 * (x + z), 2 * (x + z), 2 * z
        # the reduction's box holds nowhere inside the engine: only its
        # obligation is kept, and only the other rules run
        self.obligations, program = _extract_obligations(program, self.facts)
        self.program = program
        self.cancelled = cancelled
        self.states_left = max_states
        self.span_fixable = False

        self.ground_rules = program.rules
        self.templates = _Templates(self.ground_rules)

        # atoms worth guessing: ground head atoms (an atom no rule derives
        # can be removed from any model without breaking it)
        self.free_atoms: tuple[AtomKey, ...] = tuple(sorted({
            a.key()
            for r in self.ground_rules
            for m in ((r.head,) if prune_letters else (r.head, *r.body))
            for a in relational_atoms(m)
        }))
        self.prune_letters = prune_letters

        # the ground copies of a rule share its bounds: pad by each distinct
        # bound list once, as for the rules they came from
        shapes = {tuple(map(tuple, map(_operator_bounds, (r.head, *r.body)))): r for r in program.rules}
        reach = total_reach(Program(tuple(shapes.values())))
        horizon = make(self.span.left - reach, self.span.right + reach)
        base_store = self._span_materialise(horizon)
        self.must: Optional[dict[int, Letter]] = None
        if base_store is not None:
            must = {c: set() for c in range(self.span_lo, self.span_hi + 1)}
            for key, lst in base_store.atoms.items():
                for iv in lst:
                    for c in cells_in(intersect(iv, self.span)):
                        must[c].add(key)
            self.must = {c: frozenset(atoms) for c, atoms in must.items()}
        # unbounded dataset tails force atoms on every cell beyond the span
        self.tail_must = {1: set(), -1: set()}
        for f in self.facts:
            if not is_finite(f.interval.right):
                self.tail_must[1].add(f.atom.key())
            if not is_finite(f.interval.left):
                self.tail_must[-1].add(f.atom.key())
        self.tail_must = {k: frozenset(v) for k, v in self.tail_must.items()}

    def _poll(self):
        if self.cancelled is not None and self.cancelled():
            raise Cancelled()
        self.states_left -= 1
        if self.states_left < 0:
            raise SearchBudgetExceeded("automata state budget exhausted")

    def _span_materialise(self, horizon: Interval) -> Optional[FactStore]:
        """The least model of the data, clipped to `horizon` round by round,
        or None on BOTTOM, kept as `must`.  Each round polls once; the bounded
        horizon and int endpoints admit finitely many stores, so it ends."""
        start = FactStore.from_facts(Fact(f.atom, intersect(f.interval, horizon)) for f in self.facts)
        out = materialise(self.program, start, horizon=horizon, poll=self._poll)
        return None if out.status == "Inconsistent" else out.store

    # -- letters

    def _letters(self, must: Letter, new_cell: int, win: _Window) -> Iterator[Letter]:
        free = [a for a in self.free_atoms if a not in must]
        if self.prune_letters and free:
            free = [a for a in free if win.justifiable(a, new_cell)]
        for size in range(len(free) + 1):
            for extra in itertools.combinations(free, size):
                yield must | frozenset(extra)

    # -- search states: (window, pending obligations)

    def _steps(self, state, direction: int) -> Iterator[tuple[Letter, tuple]]:
        """(letter, next state) for each letter of the cell after `state`'s
        window on `direction`'s side that the slid window accepts.  Each
        candidate letter polls once before its window check; the new cell
        discharges the obligations it can."""
        win, pending = state
        width = 2 * self.z_cells + 1
        new_cell = win.hi + 1 if direction == 1 else win.lo - 1
        must = self.must.get(new_cell, self.tail_must[direction])
        for letter in self._letters(must, new_cell, win):
            self._poll()
            if direction == 1:
                letters = (*win.letters, letter)[-width:]
                slid = _Window(self.templates, new_cell + 1 - len(letters), letters)
            else:
                slid = _Window(self.templates, new_cell, (letter, *win.letters)[:width])
            ok, fixable = _check_window(slid, self.span_lo, self.span_hi)
            if fixable:
                self.span_fixable = True
            if ok:
                yield letter, (slid, pending - {ob for ob in pending if ob.discharged_at(new_cell, letter)})

    def span_assignments(self) -> Iterator[tuple[tuple[Letter, ...], tuple]]:
        """Each span assignment's letters and its last state, depth first
        over the span's cells, left to right, on an explicit stack: a span
        may have more cells than Python's recursion limit."""
        path: list[Letter] = []  # the letters of the cells the stack fixes
        start = (_Window(self.templates, self.span_lo, ()), frozenset(self.obligations))
        stack = [self._steps(start, 1)]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if stack:
                    path.pop()  # the letter whose cell the popped frame followed
                continue
            letter, state = step
            path.append(letter)
            if state[0].hi >= self.span_hi:
                yield tuple(path), state
                path.pop()
            else:
                stack.append(self._steps(state, 1))

    # -- infinite tails

    def tail_ok(self, start: tuple, direction: int) -> bool:
        """Does the state `start` extend to infinitely many cells on
        `direction`'s side, discharging its obligations on that side?  Depth
        first with cycle detection on shift-invariant states: a cycle with
        no pending obligation is an infinite run."""

        def key(win, pend):
            past = win.lo > self.span_hi if direction == 1 else win.hi < self.span_lo
            return ("free" if past else win.lo, win.letters, pend)

        win, pending = start
        start = (win, frozenset(ob for ob in pending if ob.direction == direction))
        on_path: set = {key(*start)}
        dead: set = set()
        stack: list = [(start, self._steps(start, direction))]
        while stack:
            state, it = stack[-1]
            step = next(it, None)
            if step is None:
                stack.pop()
                k = key(*state)
                on_path.discard(k)
                dead.add(k)
                continue
            nxt = step[1]
            k = key(*nxt)
            if k in on_path:
                if not nxt[1]:  # a cycle with no pending obligation: accept
                    return True
                continue
            if k in dead:
                continue
            on_path.add(k)
            stack.append((nxt, self._steps(nxt, direction)))
        return False

    def decide(self, trace) -> bool:
        """True iff the engine's program and facts have a model."""
        if self.must is None:
            if trace is not None:
                trace.append("BOTTOM derived during span materialisation")
            return False
        # the span's 4(x+z)+1 cells are never fewer than 2*z_cells+1
        width = 2 * self.z_cells + 1
        first = True
        for letters, last in self.span_assignments():
            if trace is not None:
                trace.append(f"span assignment over {len(letters)} cells")
            if self.tail_ok(last, 1) and self.tail_ok(
                (_Window(self.templates, self.span_lo, letters[:width]), last[1]), -1
            ):
                return True
            if first and not self.span_fixable:
                # every failure so far was a fired BOTTOM or a pending
                # obligation; larger span assignments only fire more rules
                return False
            first = False
        return False


def _components(rules: Sequence[Rule], facts: Sequence[Fact]) -> list[tuple[list, list]]:
    """(ground rules, facts) per component: rules are joined when they
    mention a common atom key, and a fact goes to the component of its key
    (none mentions it: dropped).  Components come in the order of their first
    rule, each a union-find tree rooted at its first rule."""
    root = list(range(len(rules)))
    owner: dict[AtomKey, int] = {}  # key -> the first rule that mentions it

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for i, r in enumerate(rules):
        for m in (r.head, *r.body):
            for a in relational_atoms(m):
                j, k = sorted((find(owner.setdefault(a.key(), i)), find(i)))
                root[k] = j
    parts: dict[int, tuple[list, list]] = {}
    for i, r in enumerate(rules):
        parts.setdefault(find(i), ([], []))[0].append(r)
    for f in facts:
        if f.atom.key() in owner:
            parts[find(owner[f.atom.key()])][1].append(f)
    return list(parts.values())


def consistent(
    program: Program,
    dataset: Sequence[Fact],
    *,
    prune_letters: bool = True,
    cancelled=None,
    trace=None,
    max_states: int = 200_000,
) -> bool:
    """True iff the program and dataset have a model: iff each component of
    the ground instance that holds a BOTTOM-head rule has one.  One engine
    decides each such component in turn, under one state budget:
    `max_states` counts span-materialisation rounds plus every candidate
    letter that the span or tail search checks, and `cancelled` is polled
    at each of them."""
    if all(r.head_predicate() is not None for r in program.rules):
        if trace is not None:
            trace.append("no rule has a BOTTOM head: consistent without search")
        return True
    facts, consts = _instance(program, dataset)
    rules = list(ground(program, consts))
    parts = _components(rules, facts)
    kept = [p for p in parts if any(r.head_predicate() is None for r in p[0])]
    if trace is not None:
        dropped = len(rules) - sum(len(p[0]) for p in kept)
        trace.append(f"dropped {len(parts) - len(kept)} components without BOTTOM, {dropped} ground rules")
    for n, (part_rules, part_facts) in enumerate(kept, 1):
        eng = _Engine(
            Program(tuple(part_rules)),
            part_facts,
            prune_letters=prune_letters,
            cancelled=cancelled,
            max_states=max_states,
        )
        ok = eng.decide(trace)
        if trace is not None:
            trace.append(
                f"component {n} of {len(kept)}: {len(part_rules)} ground rules, {len(part_facts)} facts, "
                f"{eng.span_hi - eng.span_lo + 1} span cells, {max_states - eng.states_left} states"
            )
        max_states = eng.states_left
        if not ok:
            return False
    return True
