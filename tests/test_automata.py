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

from helpers import (
    check_window_reference,
    consistent_one_engine,
    ground_instance,
    justifiable_reference,
    load_dataset,
    load_program,
)
from test_materialisation import clip_store, fixture_and_criterion_6_instances, naive_materialise


def facts_of(text):
    return parse_dataset(text)


# -- entailment-to-inconsistency reduction


def test_reduction_punctual_query():
    red = entail_to_inconsist(load_program("birthday"), [], parse_fact("Bday(t)@[2,2]"))
    rule = red.program.rules[-1]
    assert rule.head_predicate() is None
    qf, b = rule.body
    assert qf.atom == red.dataset[-1].atom
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
    with pytest.raises(NotImplementedError):
        entail_to_inconsist(parse_program(""), [], parse_fact("P(a)@(-inf,+inf)"))


def test_reduction_fresh_predicate_avoids_collisions():
    prog = parse_program("P(X) :- QF(X) .")
    red = entail_to_inconsist(prog, facts_of("QF1(a)@[0,1]"), parse_fact("P(a)@[0,0]"))
    assert red.dataset[-1].atom.predicate not in {"QF", "QF1"}


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
        [req] = reverse_head(head, [cells_interval(c, c)])
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
    built, stores, counts = [], [], {"checks": 0, "tails": 0}
    Window = automata._Window
    check_window, tail_ok = automata._check_window, _Engine.tail_ok

    def count(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    def record_build(templates, lo, letters):
        built.append((lo, tuple(letters)))
        return Window(templates, lo, letters)

    monkeypatch.setattr(automata, "_Window", record_build)
    monkeypatch.setattr(automata, "_letters_store", lambda *args: stores.append(args))
    monkeypatch.setattr(automata, "_check_window", count("checks", check_window))
    monkeypatch.setattr(_Engine, "tail_ok", count("tails", tail_ok))
    red = _periodic_reduction()
    assert consistent(red.program, list(red.dataset))
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
    assignments = [letters for letters, _ in eng.span_assignments()]
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


def test_engine_takes_ground_rules_only():
    # `consistent` grounds the instance before it builds an engine
    program, facts = parse_program("BOTTOM :- P(X) ."), facts_of("P(a)@[0,0]")
    with pytest.raises(ValueError):
        _Engine(program, facts)
    assert not _Engine(*ground_instance(program, facts)).decide(None)


def test_span_assignments_trivial():
    eng = _Engine(parse_program(""), [])
    assert next(eng.span_assignments())[0] == (frozenset(),)


def test_first_span_assignment_matches_materialised_model():
    prog = parse_program("Immune(X) :- BOXMINUS[0,2] NoSympt(X) .")
    data = facts_of("NoSympt(j)@[0,3]")
    eng = _Engine(*ground_instance(prog, data))
    first, _ = next(eng.span_assignments())
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
        must = eng.must[new_cell]
        for letter in eng._letters(must, new_cell, _Window(eng.templates, cells[0], chosen)):
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
        sliding = _Engine(*ground_instance(program, facts), max_states=3000)
        growing = _Engine(*ground_instance(program, facts), max_states=3000)
        want = _first_assignments(growing, _growing_span_assignments(growing))
        sliding_letters = (letters for letters, _ in sliding.span_assignments())
        assert _first_assignments(sliding, sliding_letters) == want, program


def test_engine_runs_on_the_unit_grid():
    # the engine divides every bound by the instance gcd, so every finite
    # bound it holds is an int
    half = (parse_program("P(a) :- BOXMINUS[0,1] Q(a) ."), facts_of("Q(a)@[0,3/2]"))
    scales = set()
    for program, facts in (half, *fixture_and_criterion_6_instances()):
        scales.add(instance_granularity(program, facts))
        eng = _Engine(*ground_instance(program, facts), max_states=3000)
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
    assert _Engine(*ground_instance(prog, data)).must is None
    assert not consistent(prog, data)


def test_span_materialisation_matches_the_naive_clipped_loop(monkeypatch):
    # the reference re-applies every rule each round and clips the whole
    # store after it; the engine clips only what each round derives
    calls = []  # (horizon, the store it returned)
    span_materialise = _Engine._span_materialise

    def record(self, horizon):
        calls.append((horizon, span_materialise(self, horizon)))
        return calls[-1][1]

    monkeypatch.setattr(_Engine, "_span_materialise", record)
    for program, facts in (WIDE_VIOLATION, UNAVOIDABLE_BOTTOM, *fixture_and_criterion_6_instances()):
        eng = _Engine(*ground_instance(program, facts))
        horizon, got = calls[-1]
        start = clip_store(FactStore.from_facts(eng.facts), horizon)
        want, status, _ = naive_materialise(eng.program, start, horizon=horizon)
        if status == "Inconsistent":
            assert got is None and eng.must is None, program
        else:
            assert got.atoms == want.atoms, program


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

    eng = _Engine(*ground_instance(red.program, red.dataset), cancelled=cancel_after(10**6), max_states=10**6)
    rounds = len(polls)
    assert rounds == 10**6 - eng.states_left and rounds > 100
    polls.clear()
    with pytest.raises(Cancelled):
        _Engine(*ground_instance(red.program, red.dataset), cancelled=cancel_after(rounds // 2))
    assert len(polls) == rounds // 2 + 1
    with pytest.raises(SearchBudgetExceeded):
        _Engine(*ground_instance(red.program, red.dataset), max_states=rounds - 1)
    assert _Engine(*ground_instance(red.program, red.dataset), max_states=rounds).states_left == 0


# -- tail loops


def test_tail_ok_trivial():
    eng = _Engine(parse_program(""), [])
    start = (_Window(eng.templates, 0, (frozenset(),)), frozenset())
    assert eng.tail_ok(start, 1)
    assert eng.tail_ok(start, -1)


def _counting_checks(monkeypatch):
    """Count _check_window calls through the module global."""
    checks = []
    check_window = automata._check_window

    def counted(*args):
        checks.append(None)
        return check_window(*args)

    monkeypatch.setattr(automata, "_check_window", counted)
    return checks


# the reduction of an entailed query whose tail search checks many letters
# per state: with a poll per state only, it ran for hours under the default
# state budget
PROFESSOR_CHAIR = entail_to_inconsist(
    load_program("professor"), load_dataset("professor"), parse_fact("Chair(b)@[3,+inf)")
)


def test_state_budget_bounds_the_tail_search(monkeypatch):
    checks = _counting_checks(monkeypatch)
    with pytest.raises(SearchBudgetExceeded):
        consistent(PROFESSOR_CHAIR.program, list(PROFESSOR_CHAIR.dataset), max_states=1600)
    assert 0 < len(checks) <= 1600


@pytest.mark.parametrize("k", [200, 1000])
def test_cancellation_bounds_the_tail_search(monkeypatch, k):
    checks, polls = _counting_checks(monkeypatch), []

    def cancelled():
        polls.append(None)
        return len(polls) > k

    with pytest.raises(Cancelled):
        consistent(PROFESSOR_CHAIR.program, list(PROFESSOR_CHAIR.dataset), cancelled=cancelled)
    assert len(checks) <= k


def test_every_window_check_follows_its_own_poll(monkeypatch):
    # each candidate letter polls once before its check, in the span and in
    # both tails; span-materialisation rounds poll without a check
    credit = [0]
    check_window, poll = automata._check_window, _Engine._poll

    def counted_poll(self):
        credit[0] += 1
        return poll(self)

    def counted_check(*args):
        credit[0] -= 1
        assert credit[0] >= 0, "a window check without a poll"
        return check_window(*args)

    monkeypatch.setattr(_Engine, "_poll", counted_poll)
    monkeypatch.setattr(automata, "_check_window", counted_check)
    for program, facts in fixture_and_criterion_6_instances():
        credit[0] = 0
        consistent(program, list(facts), max_states=3000)


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


GROWING = "P(X) :- DIAMONDMINUS[0,1] P(X) .\n"


@pytest.mark.parametrize(
    "program, data, query, entailed",
    [
        ("", "P(a)@[0,+inf)", "P(a)@[3,+inf)", True),
        ("", "P(a)@[0,5]", "P(a)@[3,+inf)", False),
        ("", "P(a)@[0,+inf)", "P(a)@(-inf,0]", False),
        # derived facts: the obligation alone stands for the unbounded box
        (GROWING, "P(a)@[0,0]", "P(a)@[3,+inf)", True),
        ("P(X) :- DIAMONDPLUS[0,1] P(X) .", "P(a)@[0,0]", "P(a)@(-inf,-3]", True),
        ("BOXPLUS[1,1] P(X) :- P(X) .", "P(a)@[0,0]", "P(a)@[3,+inf)", False),
        ("P(X) :- BOXMINUS[0,1] P(X) .", "P(a)@[0,1]", "P(a)@[3,+inf)", False),
        (GROWING + "BOXPLUS[0,2] Q(X) :- P(X) .", "P(a)@[0,0]", "Q(a)@[1,+inf)", True),
        # a query open at its finite end: the anchor point cannot discharge
        ("", "P(a)@(3,+inf)", "P(a)@(3,+inf)", True),
        ("", "P(a)@(3,+inf)", "P(a)@[3,+inf)", False),
        ("", "P(a)@(-inf,-3)", "P(a)@(-inf,-3)", True),
        ("", "P(a)@(-inf,-3)", "P(a)@(-inf,-3]", False),
        (GROWING, "P(a)@[0,0]", "P(a)@(3,+inf)", True),
        ("P(X) :- DIAMONDPLUS[0,1] P(X) .", "P(a)@[0,0]", "P(a)@(-inf,0)", True),
        # a left-unbounded fact forces its atom on every cell of the left tail
        ("", "P(a)@(-inf,0]", "P(a)@(-inf,-3]", True),
    ],
    ids=["data", "bounded-data", "left-query", "diamondminus", "diamondplus", "boxplus-head",
         "boxminus-body", "derived-head", "open-right", "open-data-closed-right", "open-left",
         "open-data-closed-left", "open-diamondminus", "open-diamondplus", "left-data-tail"],
)
def test_entailment_with_unbounded_facts(program, data, query, entailed):
    # obligations from the reduction's unbounded box must be discharged
    red = entail_to_inconsist(parse_program(program), facts_of(data), parse_fact(query))
    assert consistent(red.program, list(red.dataset)) is not entailed


UNBOUNDED_HEAD = ("BOXPLUS[0,+inf) P(X) :- Q(X) .\nBOTTOM :- P(X), R(X) .", "Q(a)@[0,1]\nR(a)@[5,6]")


def test_consistent_rejects_unbounded_rule_operators():
    for (program, data), where in (
        (("BOTTOM :- DIAMONDMINUS[0,+inf) P(a) .", "P(a)@[0,1]"), "bodies"),
        (UNBOUNDED_HEAD, "heads"),
    ):
        with pytest.raises(NotImplementedError, match=f"in rule {where}"):
            consistent(parse_program(program), facts_of(data))


@pytest.mark.parametrize("program, data", [
    ("BOTTOM :- A, BOXPLUS[5,+inf) M .", "A@[0,0]\nM@[0,1]"),
    ("BOTTOM :- A, BOXPLUS(5,+inf) M .", "A@[0,0]\nM@[0,1]"),
    ("BOTTOM :- A, BOXMINUS[5,+inf) M .", "A@[0,0]\nM@[-1,0]"),
    ("BOTTOM :- A, BOXMINUS(5,+inf) M .", "A@[0,0]\nM@[-1,0]"),
], ids=["plus-closed", "plus-open", "minus-closed", "minus-open"])
def test_obligation_starting_past_the_data_is_discharged(program, data):
    # M is absent from 5 on (before -5 on): the span must reach the box's
    # start, which only z, counting the reduction box, makes it do
    assert consistent(parse_program(program), facts_of(data))


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


# -- the split into ground components

SPLIT_CONSTANTS = ["a", "b", "c", "d"]


@st.composite
def split_instances(draw):
    """A program over P, Q, R with a BOTTOM-head first rule, bounded unary
    operators and at most the variable X, and facts over 2-4 constants."""
    consts = SPLIT_CONSTANTS[: draw(st.integers(2, 4))]
    term = st.sampled_from([*consts, "X"])
    atom = st.builds("{}({})".format, st.sampled_from("PQR"), term)
    literal = atom | st.builds(
        "{}[{},{}] {}".format,
        st.sampled_from(["DIAMONDMINUS", "DIAMONDPLUS", "BOXMINUS", "BOXPLUS"]),
        st.integers(0, 1),
        st.integers(1, 2),
        atom,
    )
    rules = []
    for n in range(draw(st.integers(1, 3))):
        body = draw(st.lists(literal, min_size=1, max_size=2))
        terms = consts + ["X"] * any("(X)" in b for b in body)
        if n == 0 or draw(st.booleans()):
            head = "BOTTOM"
        else:
            head = f"{draw(st.sampled_from('PQR'))}({draw(st.sampled_from(terms))})"
        rules.append(f"{head} :- {', '.join(body)} .")
    facts = []
    for a in draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)):
        pred, c, width = draw(st.sampled_from("PQR")), draw(st.sampled_from(consts)), draw(st.integers(0, 2))
        facts.append(f"{pred}({c})@[{a},{a + width}]")
    return parse_program("\n".join(rules)), facts_of("\n".join(facts))


@settings(max_examples=150, deadline=None)
@given(split_instances())
def test_split_agrees_with_one_engine(instance):
    program, facts = instance
    try:
        want = consistent_one_engine(program, facts, max_states=3000)
    except SearchBudgetExceeded:
        return
    assert consistent(program, facts, max_states=3000) == want


def test_far_off_data_does_not_widen_the_query_component():
    # c1's fact sits in a component with no BOTTOM head, so it is dropped,
    # and the query's component is decided as if it were alone
    red = _periodic_reduction()
    alone = entail_to_inconsist(
        parse_program("BOXPLUS[2,2] Bday(X) :- Bday(X) ."),
        facts_of("Bday(c2)@[1,1]"),
        parse_fact("Bday(c2)@[7/2,7/2]"),
    )
    traces = []
    for r in (red, alone):
        traces.append([])
        assert consistent(r.program, list(r.dataset), trace=traces[-1])
    assert traces[0][0] == "dropped 1 components without BOTTOM, 1 ground rules"
    assert traces[1][0] == "dropped 0 components without BOTTOM, 0 ground rules"
    assert traces[0][1:] == traces[1][1:]


def test_unsupported_operator_without_bottom_is_not_rejected():
    program = parse_program("Q(b) :- DIAMONDMINUS[0,+inf) P(b) .\nBOTTOM :- BOXMINUS[0,2] P(a) .")
    facts = facts_of("P(a)@[0,1]\nP(b)@[0,1]")
    with pytest.raises(NotImplementedError):
        consistent_one_engine(program, facts)
    assert consistent(program, facts)


def test_rules_with_variables_over_no_constants_have_no_ground_copies():
    # no fact on a body predicate names a constant, so BOTTOM :- Q(X) has no
    # ground copy and cannot fire; grounding it used to raise ValueError
    assert consistent(parse_program("BOTTOM :- Q(X) ."), facts_of("P(a)@[0,0]"))


def test_one_state_budget_covers_every_component():
    program = parse_program("BOTTOM :- BOXMINUS[0,2] P(X) .")
    facts = facts_of("P(a)@[0,1]\nP(b)@[5,6]")
    trace = []
    assert consistent(program, facts, trace=trace)
    used = [int(line.rsplit(", ", 1)[1].split()[0]) for line in trace if line.startswith("component")]
    assert len(used) == 2 and min(used) > 0
    assert consistent(program, facts, max_states=sum(used))
    with pytest.raises(SearchBudgetExceeded):
        consistent(program, facts, max_states=sum(used) - 1)


def test_trace_collects_lines():
    trace = []
    red = birthday_reduction("2")
    consistent(red.program, list(red.dataset), trace=trace)
    assert trace
