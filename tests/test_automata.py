"""Automata-based consistency decision: entailment reduction, unit ruler,
window checks, span search, tail loops, and the top-level consistency
check."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from datalogmtl import automata
from datalogmtl.analysis import _operator_bounds, instance_granularity
from datalogmtl.automata import (
    Cancelled,
    ReductionOutput,
    SearchBudgetExceeded,
    _check_window,
    _Engine,
    _letters_store,
    _Templates,
    _Window,
    cells_in,
    cells_interval,
    consistent,
    entail_to_inconsist,
)
from datalogmtl.evaluation import apply_operator, reverse_head
from datalogmtl.intervals import (
    EMPTY,
    NEG_INF,
    POS_INF,
    intersect,
    is_finite,
    make,
    point,
    subset,
)
from datalogmtl.materialisation import materialise
from datalogmtl.store import FactStore
from datalogmtl.syntax import (
    BinaryOp,
    Bottom,
    Rel,
    Rule,
    Top,
    UnaryOp,
    parse_dataset,
    parse_fact,
    parse_program,
)

from helpers import check_window_reference, justifiable_reference, load_dataset, load_program
from test_materialisation import clip_store, fixture_and_criterion_6_instances, naive_materialise


def facts_of(text):
    return parse_dataset(text)


# -- entailment-to-inconsistency reduction


def test_reduction_punctual_query():
    red = entail_to_inconsist(load_program("birthday"), [], parse_fact("Bday(t)@[2,2]"))
    rule = red.program.rules[-1]
    assert rule.head_predicate() is None
    qf, b = rule.body
    assert qf.atom.predicate == red.fresh_predicate
    assert b == Rel(parse_fact("Bday(t)@[0,0]").atom)
    assert red.dataset[-1].interval == point(2)


def test_reduction_bounded_query_box():
    red = entail_to_inconsist(parse_program(""), [], parse_fact("Immune(j)@[7,10]"))
    b = red.program.rules[-1].body[1]
    assert isinstance(b, UnaryOp) and b.op == "BOXMINUS"
    assert b.interval == make(0, 3)
    assert red.dataset[-1].interval == point(10)


def test_reduction_openness_swap():
    red = entail_to_inconsist(parse_program(""), [], parse_fact("M(a)@(1,3]"))
    b = red.program.rules[-1].body[1]
    # anchor at 3; dropping the query's open left end opens the box's right
    assert b.interval == make(0, 2, False, True)
    assert red.dataset[-1].interval == point(3)


def test_reduction_unbounded_right():
    red = entail_to_inconsist(parse_program(""), [], parse_fact("P(a)@[3,+inf)"))
    b = red.program.rules[-1].body[1]
    assert b.op == "BOXPLUS" and b.interval.right is POS_INF
    assert red.dataset[-1].interval == point(3)


def test_reduction_unbounded_left():
    red = entail_to_inconsist(parse_program(""), [], parse_fact("P(a)@(-inf,0]"))
    b = red.program.rules[-1].body[1]
    assert b.op == "BOXMINUS" and b.interval.right is POS_INF


def test_reduction_rejects_doubly_unbounded():
    with pytest.raises(ValueError):
        entail_to_inconsist(parse_program(""), [], parse_fact("P(a)@(-inf,+inf)"))


def test_reduction_fresh_predicate_avoids_collisions():
    prog = parse_program("P(X) :- QF(X) .")
    red = entail_to_inconsist(prog, facts_of("QF1(a)@[0,1]"), parse_fact("P(a)@[0,0]"))
    assert red.fresh_predicate not in {"QF", "QF1"}


# -- unit ruler


def test_ruler_grid_geometry():
    # the gcd 1/2 rescales Q(a)@[0,3/2] to [0,3] and BOXMINUS[0,1] to [0,2]
    eng = _Engine(parse_program("P(a) :- BOXMINUS[0,1] Q(a) ."), facts_of("Q(a)@[0,3/2]"))
    assert eng.span == make(-5, 5)
    assert (eng.span_lo, eng.span_hi, eng.z_cells) == (-10, 10, 4)
    assert cells_interval(0, 0) == point(0)
    assert cells_interval(1, 1) == make(0, 1, True, True)
    assert cells_interval(-1, -1) == make(-1, 0, True, True)
    assert cells_in(point(3)) == range(6, 7)


def _cells_meeting(iv):
    """Brute force: every cell whose interval meets iv, over a generous range
    of candidates (cell 2k is the point k, cell 2k+1 the segment after it)."""
    out = []
    for c in range(2 * iv.left - 4, 2 * iv.right + 5):
        k = c // 2
        civ = point(k) if c % 2 == 0 else make(k, k + 1, True, True)
        if not intersect(civ, iv).is_empty:
            out.append(c)
    return out


@given(st.integers(-8, 8), st.integers(0, 4), st.booleans(), st.booleans())
def test_cells_in_matches_brute_force_on_grid(k, width, left_open, right_open):
    iv = make(k, k + width, left_open, right_open)
    want = [] if iv.is_empty else _cells_meeting(iv)
    assert list(cells_in(iv)) == want


@given(st.integers(-8, 8), st.booleans(), st.booleans())
def test_cells_in_rejects_off_grid_and_unbounded(k, left_open, right_open):
    assert list(cells_in(EMPTY)) == []
    for iv in (
        make(Fraction(k) + Fraction(1, 3), k + 2, left_open, right_open),
        make(k, Fraction(k + 1) + Fraction(1, 2), left_open, right_open),
        make(NEG_INF, k, True, right_open),
        make(k, POS_INF, left_open, True),
    ):
        with pytest.raises(ValueError):
            cells_in(iv)


@given(st.integers(-8, 8), st.integers(-1, 6))
def test_cells_interval_inverts_cells_in(lo, width):
    hi = lo + width
    iv = cells_interval(lo, hi)
    assert iv.is_empty == (hi < lo)
    assert cells_in(iv) == range(lo, max(lo, hi + 1))


head_boxes = st.lists(
    st.tuples(
        st.sampled_from(["BOXMINUS", "BOXPLUS"]),
        st.integers(0, 4),
        st.integers(0, 4),
        st.booleans(),
        st.booleans(),
    ),
    max_size=3,
)


@given(head_boxes)
def test_head_regions_lie_within_z_cells(boxes):
    # z bounds every literal's reach, heads included, so a cell's head region
    # lies in its z-neighbourhood: the window checks rely on this
    head = Rel(parse_fact("P(a)@[0,0]").atom)
    for op, a, width, left_open, right_open in boxes:
        box = make(a, a + width, left_open and width > 0, right_open and width > 0)
        head = UnaryOp(op, box, head)
    zc = 2 * automata._literal_reach(head)
    for c in range(-8, 9):
        req = reverse_head(head, cells_interval(c, c))
        assert subset(req.interval, cells_interval(c - zc, c + zc)), (c, head)


# -- window letter stores

R_A = ("R", ("a",))


def _per_cell_store(lo, letters):
    """Reference: one cell interval per cell and key, coalesced by the store."""
    by_key = {}
    for i, letter in enumerate(letters):
        for key in letter:
            by_key.setdefault(key, []).append(cells_interval(lo + i, lo + i))
    return FactStore.from_intervals(by_key)


letter_windows = st.lists(
    st.frozensets(st.sampled_from([("P", ("a",)), ("Q", ("a",)), R_A])), max_size=9
)


@given(st.integers(-5, 5), letter_windows)
def test_letters_store_matches_a_per_cell_store(lo, letters):
    store = _letters_store(lo, letters)
    store.check_invariants()
    assert store.atoms == _per_cell_store(lo, letters).atoms


def test_letters_store_builds_one_interval_per_run(monkeypatch):
    calls = []

    def record(lo, hi):
        calls.append((lo, hi))
        return cells_interval(lo, hi)

    monkeypatch.setattr(automata, "cells_interval", record)
    p, q = ("P", ("a",)), ("Q", ("a",))
    letters = [frozenset({p}), frozenset({p}), frozenset(), frozenset({p, q}), frozenset({q})]
    store = _letters_store(-1, letters)
    assert sorted(calls) == [(-1, 0), (2, 2), (2, 3)]
    assert store.atoms == {p: [make(-1, 0, True, False), point(1)], q: [make(1, 2, False, True)]}


def _periodic_reduction():
    return entail_to_inconsist(
        parse_program("BOXPLUS[2,2] Bday(X) :- Bday(X) ."),
        facts_of("Bday(c1)@[0,0]\nBday(c2)@[1,1]"),
        parse_fact("Bday(c2)@[7/2,7/2]"),
    )


def test_check_window_matches_the_interval_reference_in_the_search(monkeypatch):
    engines, seen = [], []
    init = _Engine.__init__

    def record(eng, *args, **kwargs):
        init(eng, *args, **kwargs)
        engines.append(eng)

    def check(win, span_lo, span_hi):
        eng = engines[-1]
        assert (span_lo, span_hi) == (eng.span_lo, eng.span_hi)
        verdict = _check_window(win, span_lo, span_hi)
        store = _letters_store(win.lo, win.letters)
        assert verdict == check_window_reference(eng.span, eng.ground_rules, win.lo, win.letters, store)
        seen.append(verdict)
        return verdict

    monkeypatch.setattr(_Engine, "__init__", record)
    monkeypatch.setattr(automata, "_check_window", check)
    red = _periodic_reduction()
    assert consistent(red.program, list(red.dataset))
    assert (True, False) in seen and len(set(seen)) > 1


def test_each_window_mask_is_built_once_in_turn(monkeypatch):
    requested, built, stores, counts = [], [], [], {"checks": 0, "tails": 0}
    window, Window = _Engine._window, automata._Window
    check_window, tail_ok = automata._check_window, _Engine.tail_ok

    def count(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    def record_request(eng, lo, letters):
        requested.append((lo, tuple(letters)))
        return window(eng, lo, letters)

    def record_build(templates, lo, letters):
        built.append((lo, tuple(letters)))
        return Window(templates, lo, letters)

    monkeypatch.setattr(_Engine, "_window", record_request)
    monkeypatch.setattr(automata, "_Window", record_build)
    monkeypatch.setattr(automata, "_letters_store", lambda *args: stores.append(args))
    monkeypatch.setattr(automata, "_check_window", count("checks", check_window))
    monkeypatch.setattr(_Engine, "tail_ok", count("tails", tail_ok))
    red = _periodic_reduction()
    assert consistent(red.program, list(red.dataset))
    # one build per run of equal windows asked for in sequence
    assert built == [w for i, w in enumerate(requested) if i == 0 or requested[i - 1] != w]
    # a state's letters reuse the masks of the check that accepted it; only
    # the first span cell and each tail search's start window are new
    assert len(built) <= counts["checks"] + 1 + counts["tails"]
    # no literal needs apply_operator, so no window builds a letter store
    assert stores == []


# -- window masks against the interval references

CELL_ATOMS = [("P", ("a",)), ("Q", ("a",)), R_A]


def _rel(key):
    return Rel(parse_fact(f"{key[0]}(a)@[0,0]").atom)


# int operator bounds: 0, punctual, open or closed at either end
op_intervals = st.builds(
    lambda a, width, lo, ro: make(a, a + width, lo and width > 0, ro and width > 0),
    st.integers(0, 3),
    st.integers(0, 3),
    st.booleans(),
    st.booleans(),
)
ground_literals = st.recursive(
    st.sampled_from(CELL_ATOMS).map(_rel) | st.just(Top()),
    lambda sub: (
        st.builds(
            UnaryOp,
            st.sampled_from(["DIAMONDMINUS", "DIAMONDPLUS", "BOXMINUS", "BOXPLUS"]),
            op_intervals,
            sub,
        )
        | st.builds(
            UnaryOp,
            st.sampled_from(["BOXMINUS", "BOXPLUS"]),
            st.sampled_from([make(0, POS_INF, False, True), make(0, POS_INF, True, True)]),
            sub,
        )
        | st.builds(BinaryOp, st.sampled_from(["SINCE", "UNTIL"]), op_intervals, sub, sub)
    ),
    max_leaves=4,
)
cell_letters = st.lists(st.frozensets(st.sampled_from(CELL_ATOMS)), min_size=1, max_size=7)


def _window_cells(win, mask):
    """The window cells whose bits are set in mask."""
    mask &= win.bits
    return {win.base + i for i in range(mask.bit_length()) if mask >> i & 1}


EMPTY_CELL, P_CELL = frozenset(), frozenset({CELL_ATOMS[0]})


@settings(max_examples=500)
@given(st.integers(-6, 6), cell_letters, ground_literals)
# (1,2] reads offsets -4..-3 from a point cell and -4..-2 from a segment cell
@example(
    0,
    [EMPTY_CELL, P_CELL, EMPTY_CELL, EMPTY_CELL, EMPTY_CELL],
    UnaryOp("DIAMONDMINUS", make(1, 2, True, False), _rel(CELL_ATOMS[0])),
)
def test_literal_masks_match_apply_operator(lo, letters, lit):
    win = _Window(_Templates((Rule(Bottom(), (lit,)),)), lo, letters)
    store = _letters_store(lo, letters)
    wiv = cells_interval(lo, lo + len(letters) - 1)
    want = {c for iv in apply_operator(lit, store) for c in cells_in(intersect(iv, wiv))}
    assert _window_cells(win, win.literal(0)) == want


def _boxed(m, boxes):
    for op, iv in boxes:
        m = UnaryOp(op, iv, m)
    return m


box_heads = st.builds(
    lambda key, boxes: _boxed(_rel(key), boxes),
    st.sampled_from(CELL_ATOMS),
    st.lists(st.tuples(st.sampled_from(["BOXMINUS", "BOXPLUS"]), op_intervals), max_size=2),
)


ground_rules = st.lists(
    st.builds(
        Rule,
        box_heads | st.just(Bottom()),
        st.lists(ground_literals, min_size=1, max_size=2).map(tuple),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300)
@given(ground_rules, st.integers(-12, 12), cell_letters, st.integers(-4, 0), st.integers(0, 4))
# firing at cell 0 could derive P over cell 2, and its body reads cell 2, past
# the window: unknown, so P stays justifiable
@example(
    [Rule(UnaryOp("BOXPLUS", point(1), _rel(CELL_ATOMS[0])), (UnaryOp("DIAMONDPLUS", point(1), _rel(CELL_ATOMS[1])),))],
    0,
    [EMPTY_CELL, EMPTY_CELL],
    0,
    0,
)
def test_window_checks_match_the_interval_references(rules, lo, letters, span_left, span_right):
    # the span [span_left, span_right] lies inside, across or outside the window
    templates = _Templates(rules)
    store = _letters_store(lo, letters)
    span = make(span_left, span_right)
    win = _Window(templates, lo, letters)
    want = check_window_reference(span, rules, lo, letters, store)
    assert _check_window(win, 2 * span_left, 2 * span_right) == want
    hi = lo + len(letters) - 1
    for key in CELL_ATOMS:
        for new_cell in (lo - 1, hi + 1):
            got = win.justifiable(key, new_cell)
            assert got == justifiable_reference(rules, key, new_cell, lo, letters, store), (key, new_cell)


# -- window checks

P_A, Q_A = ("P", ("a",)), ("Q", ("a",))


def _point_engine(prog_text):
    """Engine over the single-cell span [0,0], with P(a) holding there."""
    eng = _Engine(parse_program(prog_text), facts_of("P(a)@[0,0]"))
    assert (eng.span_lo, eng.span_hi, eng.z_cells) == (0, 0, 0)
    return eng


def test_check_window_missing_dataset_fact():
    # dataset atoms are forced into the span's letters, so no span
    # assignment can leave P(a) out of its cell
    eng = _point_engine("Q(a) :- P(a) .")
    assert eng.must == {0: frozenset({P_A, Q_A})}
    assignments = list(eng.span_assignments())
    assert assignments and all(P_A in letters[0] for letters in assignments)


def _check_cell_0(rules, letter):
    """_check_window over the one-cell window of cell 0, labelled `letter`,
    with the span [0,0]."""
    return _check_window(_Window(_Templates(rules), 0, (frozenset(letter),)), 0, 0)


def test_check_window_unsatisfied_rule():
    eng = _point_engine("Q(a) :- P(a) .")
    # the missing head lies in the span, so another assignment could fix it
    assert _check_cell_0(eng.ground_rules, {P_A}) == (False, True)
    ok = _check_cell_0(eng.ground_rules, {P_A, Q_A})
    assert ok == (True, False)


def test_check_window_exact_dataset():
    assert _check_cell_0((), {P_A}) == (True, False)
    red = entail_to_inconsist(parse_program(""), facts_of("P(a)@[0,0]"), parse_fact("P(a)@[0,0]"))
    assert not consistent(red.program, list(red.dataset))


def test_check_window_fired_bottom():
    eng = _point_engine("BOTTOM :- P(a) .")
    assert _check_cell_0(eng.ground_rules, {P_A}) == (False, False)
    assert not consistent(eng.program, facts_of("P(a)@[0,0]"))


# -- span search


def test_span_assignments_trivial():
    eng = _Engine(parse_program(""), [])
    assert next(eng.span_assignments()) == (frozenset(),)


def test_first_span_assignment_matches_materialised_model():
    prog = parse_program("Immune(X) :- BOXMINUS[0,2] NoSympt(X) .")
    data = facts_of("NoSympt(j)@[0,3]")
    eng = _Engine(prog, data)
    first = next(eng.span_assignments())
    assert len(first) == eng.span_hi - eng.span_lo + 1
    out = materialise(prog, FactStore.from_facts(data))
    for cell, letter in enumerate(first, start=eng.span_lo):
        civ = cells_interval(cell, cell)
        for key in (("NoSympt", ("j",)), ("Immune", ("j",))):
            want = any(subset(civ, iv) for iv in out.store.intervals_for(key))
            assert (key in letter) == want, (cell, key)


def _growing_span_assignments(eng):
    """Reference: the span search with a window that grows over the whole
    span, checking every prefix of the assignment."""
    cells = range(eng.span_lo, eng.span_hi + 1)

    def rec(chosen):
        if len(chosen) == len(cells):
            yield chosen
            return
        new_cell = cells[len(chosen)]
        must = eng._cell_must(new_cell, 1)
        for letter in eng._letters(must, new_cell, cells[0], chosen):
            eng._poll()
            cand = chosen + (letter,)
            store = _letters_store(cells[0], cand)
            ok, fixable = check_window_reference(eng.span, eng.ground_rules, cells[0], cand, store)
            if ok:
                yield from rec(cand)
            elif fixable:
                eng.span_fixable = True

    yield from rec(())


def _first_assignments(eng, assignments):
    out = []
    try:
        out.extend(itertools.islice(assignments, 10))
    except SearchBudgetExceeded:
        out.append("budget")
    return out, eng.span_fixable, eng.states_left


# BOTTOM fires at 0 when R(a) is guessed at 1, reading Q(a) at -1: one
# violation spans all 2z+1 cells, so a window of 2z cells misses it (no
# fixture or criterion-6 instance has such a violation)
WIDE_VIOLATION = (
    parse_program("BOTTOM :- DIAMONDMINUS[1,1] Q(a), DIAMONDPLUS[1,1] R(a) .\nR(a) :- R(a) ."),
    facts_of("Q(a)@[-1,-1]"),
)


def test_sliding_span_window_matches_a_growing_window():
    # a new cell's violations fire within z cells of it and read cells within
    # 2z of it, so the last 2z+1 cells see what the whole prefix sees
    for program, facts in (WIDE_VIOLATION, *fixture_and_criterion_6_instances()):
        sliding = _Engine(program, facts, max_states=3000)
        growing = _Engine(program, facts, max_states=3000)
        want = _first_assignments(growing, _growing_span_assignments(growing))
        assert _first_assignments(sliding, sliding.span_assignments()) == want, program


def test_engine_runs_on_the_unit_grid():
    # the engine divides every bound by the instance gcd, so every finite
    # bound it holds is an int
    half = (parse_program("P(a) :- BOXMINUS[0,1] Q(a) ."), facts_of("Q(a)@[0,3/2]"))
    scales = set()
    for program, facts in (half, *fixture_and_criterion_6_instances()):
        scales.add(instance_granularity(program, facts))
        eng = _Engine(program, facts, max_states=3000)
        bounds = [abs(b) for f in eng.facts for b in (f.interval.left, f.interval.right)]
        for r in eng.program.rules:
            for m in (r.head, *r.body):
                bounds += _operator_bounds(m)
        assert all(type(b) is int for b in bounds if is_finite(b)), program
    assert {Fraction(1, 2), 2, 3} <= scales  # the rescale was exercised


UNAVOIDABLE_BOTTOM = (
    parse_program("Immune(X) :- BOXMINUS[0,2] NoSympt(X) .\nBOTTOM :- Immune(X) ."),
    facts_of("NoSympt(j)@[0,3]"),
)


def test_span_unavoidable_bottom():
    prog, data = UNAVOIDABLE_BOTTOM
    assert _Engine(prog, data).inconsistent_in_span
    assert not consistent(prog, data)


def test_span_materialisation_matches_the_naive_clipped_loop(monkeypatch):
    # the reference re-applies every rule each round and clips the whole
    # store after it; the engine clips only what each round derives
    horizons = []
    span_materialise = _Engine._span_materialise

    def record(self, horizon):
        horizons.append(horizon)
        return span_materialise(self, horizon)

    monkeypatch.setattr(_Engine, "_span_materialise", record)
    for program, facts in (WIDE_VIOLATION, UNAVOIDABLE_BOTTOM, *fixture_and_criterion_6_instances()):
        eng = _Engine(program, facts)
        horizon = horizons[-1]
        start = clip_store(FactStore.from_facts(eng.facts), horizon)
        want, status, _ = naive_materialise(eng.program, start, horizon=horizon)
        if status == "Inconsistent":
            assert eng.base_store is None, program
        else:
            assert eng.base_store.atoms == want.atoms, program


def test_span_materialisation_polls_every_round():
    # the span of this reduction runs one materialisation round per yearly
    # tick; each round polls the token and spends one state
    red = birthday_reduction("401/2")
    polls = []

    def cancel_after(k):
        def cancelled():
            polls.append(None)
            return len(polls) > k
        return cancelled

    eng = _Engine(red.program, list(red.dataset), cancelled=cancel_after(10**6), max_states=10**6)
    rounds = len(polls)
    assert rounds == 10**6 - eng.states_left and rounds > 100
    polls.clear()
    with pytest.raises(Cancelled):
        _Engine(red.program, list(red.dataset), cancelled=cancel_after(rounds // 2))
    assert len(polls) == rounds // 2 + 1
    with pytest.raises(SearchBudgetExceeded):
        _Engine(red.program, list(red.dataset), max_states=rounds - 1)
    assert _Engine(red.program, list(red.dataset), max_states=rounds).states_left == 0


# -- tail loops


def test_tail_ok_trivial():
    eng = _Engine(parse_program(""), [])
    assert eng.tail_ok(0, (frozenset(),), 1, frozenset())
    assert eng.tail_ok(0, (frozenset(),), -1, frozenset())


# -- top-level consistency


def birthday_reduction(anchor: str) -> ReductionOutput:
    return entail_to_inconsist(
        load_program("birthday"),
        load_dataset("birthday"),
        parse_fact(f"Bday(a)@[{anchor},{anchor}]"),
    )


def test_consistent_shortcut_without_bottom_heads():
    prog = load_program("birthday")
    assert consistent(prog, load_dataset("birthday"))


def test_consistent_birthday_anchor_on_grid():
    red = birthday_reduction("2")
    assert not consistent(red.program, list(red.dataset))


def test_consistent_birthday_anchor_off_grid():
    red = birthday_reduction("1/2")
    assert consistent(red.program, list(red.dataset))


def test_consistent_span_inconsistency():
    prog = parse_program("BOTTOM :- DIAMONDMINUS[0,2] P(a) .")
    assert not consistent(prog, facts_of("P(a)@[0,1]"))


def test_consistent_periodic_collision_beyond_span():
    # the two recurrences first meet far outside the dataset span, so only
    # the tail search can detect the contradiction
    prog = parse_program(
        "BOXPLUS[1,1] P(a) :- P(a) .\n"
        "BOXPLUS[9/8,9/8] Q(a) :- Q(a) .\n"
        "BOTTOM :- P(a), Q(a) ."
    )
    assert not consistent(prog, facts_of("P(a)@[0,0]\nQ(a)@[1/8,1/8]"))


def test_consistent_periodic_no_collision():
    prog = parse_program(
        "BOXPLUS[1,1] P(a) :- P(a) .\n"
        "BOXPLUS[1,1] Q(a) :- Q(a) .\n"
        "BOTTOM :- P(a), Q(a) ."
    )
    assert consistent(prog, facts_of("P(a)@[0,0]\nQ(a)@[1/2,1/2]"))


def test_entailment_with_unbounded_facts():
    # obligations from the reduction's unbounded box must be discharged
    prog = parse_program("")
    data = facts_of("P(a)@[0,+inf)")
    red = entail_to_inconsist(prog, data, parse_fact("P(a)@[3,+inf)"))
    assert not consistent(red.program, list(red.dataset))  # entailed
    red2 = entail_to_inconsist(prog, facts_of("P(a)@[0,5]"), parse_fact("P(a)@[3,+inf)"))
    assert consistent(red2.program, list(red2.dataset))  # not entailed
    red3 = entail_to_inconsist(prog, data, parse_fact("P(a)@(-inf,0]"))
    assert consistent(red3.program, list(red3.dataset))  # not entailed


def test_consistent_rejects_unbounded_rule_operators():
    prog = parse_program("BOTTOM :- DIAMONDMINUS[0,+inf) P(a) .")
    with pytest.raises(NotImplementedError):
        consistent(prog, facts_of("P(a)@[0,1]"))


def test_prune_letters_does_not_change_decision():
    cases = [
        birthday_reduction("2"),
        birthday_reduction("1/2"),
        entail_to_inconsist(
            parse_program("Q(a) :- DIAMONDMINUS[0,1] P(a) ."),
            facts_of("P(a)@[0,2]"),
            parse_fact("Q(a)@[1,2]"),
        ),
    ]
    for red in cases:
        a = consistent(red.program, list(red.dataset), prune_letters=True)
        b = consistent(red.program, list(red.dataset), prune_letters=False)
        assert a == b


def test_state_budget_raises():
    red = birthday_reduction("1/2")
    with pytest.raises(SearchBudgetExceeded):
        consistent(red.program, list(red.dataset), max_states=2)


def test_trace_collects_lines():
    trace = []
    red = birthday_reduction("2")
    consistent(red.program, list(red.dataset), trace=trace)
    assert trace
