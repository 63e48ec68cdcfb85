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
the span widened by the program's total reach.  The engine keeps the letter
store of the last window it built, one interval per run of cells, because
the search expands a state right after checking the window that led to it.

Unbounded operator intervals are supported where the shipped pipeline
produces them: the entailment reduction's rule BOTTOM :- anchor, BOX[0,inf)M
with a punctual anchor fact.  Such a rule is equivalent to the obligation
"some model makes M fail on the box side of the anchor", a one-shot
eventuality tracked as a sticky discharge flag in the search state.  Other
unbounded-interval literals in rules are rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .analysis import instance_granularity, operator_nodes, total_reach
from .evaluation import apply_operator, merge_intervals, reverse_head
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
    fresh_predicate: str


def _fresh_predicate(program: Program, dataset: Sequence[Fact]) -> str:
    used = program.predicates() | {f.atom.predicate for f in dataset}
    if "QF" not in used:
        return "QF"
    n = 1
    while f"QF{n}" in used:
        n += 1
    return f"QF{n}"


def entail_to_inconsist(
    program: Program, dataset: Sequence[Fact], query: Fact
) -> ReductionOutput:
    """Reduce fact entailment to inconsistency of an extended instance.

    Adds BOTTOM :- Q_f, B and Q_f@[p,p], where B holds at the anchor p iff
    the query atom holds throughout the query interval.  Query intervals
    unbounded on both sides are rejected.
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
        raise ValueError("query intervals unbounded on both sides are unsupported")
    fresh = _fresh_predicate(program, dataset)
    qf = RelationalAtom(fresh, ())
    rule = Rule(Bottom(), (Rel(qf), b))
    return ReductionOutput(
        Program(program.rules + (rule,)),
        tuple(dataset) + (Fact(qf, point(p)),),
        fresh,
    )


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


@lru_cache(maxsize=4096)
def cells_interval(lo: int, hi: int) -> Interval:
    """The interval that cells lo..hi cover; EMPTY when hi < lo.  Cached,
    as the result is immutable: the search asks for the same few runs of
    cells again and again, and a hit costs a tenth of building an Interval."""
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


def _check_window(
    span: Interval,
    ground_rules: Sequence[Rule],
    lo: int,
    letters: Sequence[Letter],
    store: FactStore,
) -> tuple[bool, bool]:
    """Validate rules over a window whose letter store is `store`.

    Each cell where a rule's body holds must have the head installed over
    the part of its required region inside the window: bodies are monotone
    in the letters, so a body already true with its head missing inside the
    fixed window can never be repaired.  A cell whose whole z-neighbourhood
    lies in the window has its whole head region there, so this is the full
    check for it.  Returns (ok, fixable): fixable means the failure was a
    missing head overlapping the span, which a different span assignment
    might supply.
    """
    wiv = cells_interval(lo, lo + len(letters) - 1)
    for rule in ground_rules:
        for iv in merge_intervals(apply_operator(lit, store) for lit in rule.body):
            for c in cells_in(intersect(iv, wiv)):
                req = reverse_head(rule.head, cells_interval(c, c))
                if isinstance(req, tuple):  # BOTTOM fired; never repairable
                    return False, False
                part = intersect(req.interval, wiv)
                if not part.is_empty and not store.entails_fact(
                    Fact(req.atom, part)
                ):
                    fixable = not intersect(part, span).is_empty
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

    def discharged_by(self, lo: int, letters: Sequence[Letter]) -> bool:
        """Does the window (lo, letters) discharge it: has it a cell beyond
        min_cell whose letter lacks the atom?"""
        return any(
            (c >= self.min_cell if self.direction == 1 else c <= self.min_cell)
            and self.atom not in letter
            for c, letter in enumerate(letters, lo)
        )


def _contains_unbounded(m: MetricAtom) -> bool:
    return any(
        not (is_finite(n.interval.left) and is_finite(n.interval.right))
        for n in operator_nodes(m)
    )


def _extract_obligations(program: Program, dataset: Sequence[Fact]) -> list[Obligation]:
    """Recognise the reduction pattern; reject other unbounded literals."""
    head_preds = {r.head_predicate() for r in program.rules} - {None}
    out = []
    for rule in program.rules:
        if _contains_unbounded(rule.head):
            raise NotImplementedError(
                "unbounded operator intervals in rule heads are unsupported"
            )
        unbounded = [b for b in rule.body if _contains_unbounded(b)]
        if not unbounded:
            continue
        box = unbounded[0]
        anchor = next((b for b in rule.body if b is not box), None)
        ok = (
            rule.head_predicate() is None
            and isinstance(rule.head, Bottom)
            and len(rule.body) == 2
            and len(unbounded) == 1
            and isinstance(box, UnaryOp)
            and box.op in ("BOXMINUS", "BOXPLUS")
            and isinstance(box.sub, Rel)
            and box.sub.atom.is_ground()
            and is_finite(box.interval.left)
            and isinstance(anchor, Rel)
            and anchor.atom.is_ground()
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
    return out


# ---------------------------------------------------------------- engine


class _Engine:
    def __init__(
        self,
        program: Program,
        dataset: Sequence[Fact],
        *,
        prune_letters: bool = True,
        cancelled=None,
        max_states: int = 200_000,
    ):
        # facts on predicates never read by any body cannot influence
        # consistency (they feed no rule), so drop them up front
        body_preds = set()
        for r in program.rules:
            body_preds |= r.body_predicates()
        facts = [f for f in dataset if f.atom.predicate in body_preds]
        # consistency is invariant under scaling time by a positive constant:
        # divide every bound by the instance gcd, so the search runs on the
        # unit ruler and every bound it handles is an int
        d = instance_granularity(program, facts)
        self.program = program = Program(
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
        z = max((_literal_reach(m) for r in program.rules for m in (r.head, *r.body)), default=0)
        self.span = make(-x - z, x + z)
        self.span_lo, self.span_hi, self.z_cells = -2 * (x + z), 2 * (x + z), 2 * z
        self.obligations = _extract_obligations(program, self.facts)
        self.cancelled = cancelled
        self.states_left = max_states
        self.span_fixable = False
        self._window = None  # (lo, letters) of self._store
        self._store: Optional[FactStore] = None

        consts = program.constants() | {
            a.name for f in self.facts for a in f.atom.args
        }
        self.ground_rules = tuple(ground(program, consts))

        # atoms worth guessing: head-predicate groundings (facts of other
        # predicates can be removed from any model without breaking it)
        head_sigs = set()
        for r in program.rules:
            for a in relational_atoms(r.head):
                head_sigs.add((a.predicate, len(a.args)))
        if not prune_letters:
            for r in program.rules:
                for b in r.body:
                    for a in relational_atoms(b):
                        head_sigs.add((a.predicate, len(a.args)))
        keys = set()
        for pred, arity in head_sigs:
            for combo in itertools.product(sorted(consts), repeat=arity):
                keys.add((pred, combo))
        self.free_atoms: tuple[AtomKey, ...] = tuple(sorted(keys))
        self.prune_letters = prune_letters

        # head key -> [(rule, box chain outermost-first, body reaches in cells)]
        self.rules_by_head: dict[AtomKey, list] = {}
        for rule in self.ground_rules:
            m = rule.head
            boxes = []
            while isinstance(m, UnaryOp):
                boxes.append((m.op, m.interval))
                m = m.sub
            if not isinstance(m, Rel):
                continue
            reaches = tuple(2 * _literal_reach(b) for b in rule.body)
            self.rules_by_head.setdefault(m.atom.key(), []).append(
                (rule, tuple(boxes), reaches)
            )

        reach = total_reach(program)
        horizon = make(self.span.left - reach, self.span.right + reach)
        self.base_store = self._span_materialise(horizon)
        self.inconsistent_in_span = self.base_store is None

        self.must: dict[int, Letter] = {}
        if self.base_store is not None:
            must = {c: set() for c in range(self.span_lo, self.span_hi + 1)}
            for key, lst in self.base_store.atoms.items():
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
        or None when it derives BOTTOM.  Each round polls once; the bounded
        horizon and int endpoints admit finitely many stores, so it ends."""
        by_key: dict[AtomKey, list[Interval]] = {}
        for f in self.facts:
            by_key.setdefault(f.atom.key(), []).append(intersect(f.interval, horizon))
        start = FactStore.from_intervals(by_key)
        out = materialise(self.program, start, horizon=horizon, poll=self._poll)
        return None if out.status == "Inconsistent" else out.store

    # -- letters

    def _window_store(self, lo: int, letters: Sequence[Letter]) -> FactStore:
        """The letter store of a window, remembering the last one: the
        search expands a state right after checking the window that led to
        it, so both ask for the same store in turn."""
        window = (lo, tuple(letters))
        if window != self._window:
            self._window = window
            self._store = _letters_store(lo, letters)
        return self._store

    def _justifiable(
        self, key: AtomKey, new_cell: int, lo: int, letters, store: FactStore
    ) -> bool:
        """Could any rule still derive `key` over the new cell?

        Only the least model matters for consistency (extra atoms can only
        fire more rules), so atoms no rule can derive are never worth
        guessing.  A rule counts as possible unless some body literal whose
        whole evaluation region lies on already-fixed cells is false there.
        """
        rules = self.rules_by_head.get(key)
        if not rules:
            return False
        hi = lo + len(letters) - 1
        wiv = cells_interval(lo, hi)
        cell_iv = cells_interval(new_cell, new_cell)
        for rule, boxes, reaches in rules:
            fire_iv = cell_iv
            for op, biv in boxes:
                # firing points whose head region can cover the new cell
                kind = "plus" if op == "BOXMINUS" else "minus"
                fire_iv = interval_op(kind, fire_iv, biv)
            held: dict[int, set[int]] = {}  # body literal -> window cells where it holds
            for t in cells_in(fire_iv):
                for i, (lit, rc) in enumerate(zip(rule.body, reaches)):
                    if t - rc < lo or t + rc > hi:
                        continue  # region leaves the fixed window: unknown
                    if i not in held:
                        held[i] = {
                            c
                            for iv in apply_operator(lit, store)
                            for c in cells_in(intersect(iv, wiv))
                        }
                    if t not in held[i]:
                        break
                else:
                    return True
        return False

    def _letters(
        self, must: Letter, new_cell: int, lo: int, letters: Sequence[Letter]
    ) -> Iterator[Letter]:
        free = [a for a in self.free_atoms if a not in must]
        if self.prune_letters and free:
            store = self._window_store(lo, letters)
            free = [
                a
                for a in free
                if self._justifiable(a, new_cell, lo, letters, store)
            ]
        for size in range(len(free) + 1):
            for extra in itertools.combinations(free, size):
                yield must | frozenset(extra)

    def _cell_must(self, c: int, direction: int) -> Letter:
        if self.span_lo <= c <= self.span_hi:
            return self.must.get(c, frozenset())
        return self.tail_must[direction]

    # -- span assignments

    def _slide(self, lo: int, letters: tuple, letter: Letter, direction: int):
        """The window of at most 2z+1 cells that (lo, letters) slides to when
        `letter` labels the next cell on `direction`'s side, or None when
        _check_window rejects it."""
        width = 2 * self.z_cells + 1
        if direction == 1:
            hi = lo + len(letters)
            letters = (*letters, letter)[-width:]
            lo = hi - len(letters) + 1
        else:
            lo, letters = lo - 1, (letter, *letters)[:width]
        store = self._window_store(lo, letters)
        ok, fixable = _check_window(self.span, self.ground_rules, lo, letters, store)
        if fixable:
            self.span_fixable = True
        return (lo, letters) if ok else None

    def _span_steps(self, lo: int, window: tuple) -> Iterator[tuple[Letter, int, tuple]]:
        """(letter, lo, window) for each letter of the cell after `window`
        that the slid window accepts."""
        new_cell = lo + len(window)
        must = self._cell_must(new_cell, 1)
        for letter in self._letters(must, new_cell, lo, window):
            self._poll()
            slid = self._slide(lo, window, letter, 1)
            if slid is not None:
                yield letter, *slid

    def span_assignments(self) -> Iterator[tuple[Letter, ...]]:
        """Depth first over the span's cells, left to right, on an explicit
        stack: a span may have more cells than Python's recursion limit."""
        path: list[Letter] = []  # the letters of the cells the stack fixes
        stack = [self._span_steps(self.span_lo, ())]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if stack:
                    path.pop()  # the letter whose cell the popped frame followed
                continue
            letter, lo, window = step
            path.append(letter)
            if lo + len(window) > self.span_hi:
                yield tuple(path)
                path.pop()
            else:
                stack.append(self._span_steps(lo, window))

    # -- infinite tails

    def tail_ok(
        self,
        init_lo: int,
        init_letters: tuple[Letter, ...],
        direction: int,
        pending: frozenset,
    ) -> bool:
        def key(lo, letters, pend):
            if direction == 1 and lo > self.span_hi:
                return ("free", letters, pend)
            if direction == -1 and lo + len(letters) - 1 < self.span_lo:
                return ("free", letters, pend)
            return (lo, letters, pend)

        start = (init_lo, init_letters, pending)
        on_path: set = {key(*start)}
        dead: set = set()
        stack: list = [(start, self._tail_steps(start, direction))]
        while stack:
            self._poll()
            state, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                k = key(*state)
                on_path.discard(k)
                dead.add(k)
                continue
            k = key(*nxt)
            if k in on_path:
                if not nxt[2]:  # a cycle with no pending obligation: accept
                    return True
                continue
            if k in dead:
                continue
            on_path.add(k)
            stack.append((nxt, self._tail_steps(nxt, direction)))
        return False

    def _tail_steps(self, state, direction) -> Iterator:
        lo, letters, pending = state
        new_cell = lo + len(letters) if direction == 1 else lo - 1
        must = self._cell_must(new_cell, direction)
        for letter in self._letters(must, new_cell, lo, letters):
            slid = self._slide(lo, letters, letter, direction)
            if slid is None:
                continue
            npending = pending
            for ob in pending:
                if ob.direction == direction and ob.discharged_by(new_cell, (letter,)):
                    npending = npending - {ob}
            yield (*slid, npending)

    def edge_window(self, span_letters: tuple[Letter, ...], direction: int):
        # the span's 4(x+z)+1 cells are never fewer than 2*z_cells+1
        width = 2 * self.z_cells + 1
        if direction == 1:
            return self.span_hi - width + 1, span_letters[-width:]
        return self.span_lo, span_letters[:width]


def _has_bottom_head(program: Program) -> bool:
    return any(r.head_predicate() is None for r in program.rules)


def consistent(
    program: Program,
    dataset: Sequence[Fact],
    *,
    prune_letters: bool = True,
    cancelled=None,
    trace=None,
    max_states: int = 200_000,
) -> bool:
    """True iff the program and dataset have a model."""
    if not _has_bottom_head(program):
        return True
    eng = _Engine(
        program,
        dataset,
        prune_letters=prune_letters,
        cancelled=cancelled,
        max_states=max_states,
    )
    if eng.inconsistent_in_span:
        if trace is not None:
            trace.append("BOTTOM derived during span materialisation")
        return False
    first = True
    for span_letters in eng.span_assignments():
        if trace is not None:
            trace.append(f"span assignment over {len(span_letters)} cells")
        sides_ok = True
        for direction in (1, -1):
            pend = frozenset(
                ob
                for ob in eng.obligations
                if ob.direction == direction
                and not ob.discharged_by(eng.span_lo, span_letters)
            )
            lo, letters = eng.edge_window(span_letters, direction)
            if not eng.tail_ok(lo, letters, direction, pend):
                sides_ok = False
                break
        if sides_ok:
            return True
        if first and not eng.span_fixable:
            # every failure so far was a fired BOTTOM or a pending
            # obligation; larger span assignments only fire more rules
            return False
        first = False
    return False
