"""Property-based tests: algebraic laws of the interval primitives, parser
round-trips, store invariants, oracle agreement, relevant-rule soundness,
and decision invariance under letter pruning."""

import random
import re
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from datalogmtl import syntax

from datalogmtl.analysis import is_recursive, relevant_rules
from datalogmtl.automata import consistent, entail_to_inconsist
from datalogmtl.dense_grid import GridOracle
from datalogmtl.evaluation import (
    _inf_open,
    _intersect_lists,
    _positive_part,
    _since,
    _until,
    apply_operator,
    merge_intervals,
)
from datalogmtl.intervals import (
    EMPTY,
    NEG_INF,
    POS_INF,
    coalesce,
    interval_op,
    contains_point,
    gcd_rationals,
    intersect,
    make,
    normalize,
    reflect,
    subset,
    union_if_coalescable,
)
from datalogmtl.materialisation import _new_point_bound, materialise
from datalogmtl.store import FactStore
from datalogmtl.syntax import (
    KEYWORDS,
    Fact,
    SyntaxFault,
    parse_dataset,
    parse_fact,
    parse_program,
    print_dataset,
    print_program,
)

from helpers import (
    clip,
    rand_bounded_instance,
    rand_bounded_literal,
    rand_fact,
    rand_program,
    wrap_literals_in_rules,
)

rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=4
)


@st.composite
def intervals(draw, allow_empty=False):
    a, b = draw(rationals), draw(rationals)
    iv = make(min(a, b), max(a, b), draw(st.booleans()), draw(st.booleans()))
    if iv is EMPTY and not allow_empty:
        return make(min(a, b), max(a, b) + 1)
    return iv


@st.composite
def unbounded_intervals(draw):
    """Short non-empty intervals whose endpoints may be open, closed or
    infinite, on a coarse grid where touching endpoints are common."""
    a = draw(st.integers(0, 8)) / Fraction(2)
    b = a + draw(st.integers(0, 2)) / Fraction(2)
    left = NEG_INF if draw(st.integers(0, 9)) == 0 else a
    right = POS_INF if draw(st.integers(0, 9)) == 0 else b
    iv = make(left, right, draw(st.booleans()), draw(st.booleans()))
    return make(a, b + 1) if iv is EMPTY else iv


coalesced_lists = st.lists(unbounded_intervals(), max_size=8).map(coalesce)


@st.composite
def operator_intervals(draw):
    """Non-empty SINCE/UNTIL operator intervals, often with a left bound of
    0, closed or open."""
    lo = draw(st.sampled_from([0, 0, 0, 1, 3])) / Fraction(2)
    hi = POS_INF if draw(st.integers(0, 4)) == 0 else lo + draw(st.integers(0, 6)) / Fraction(2)
    rho = make(lo, hi, draw(st.booleans()), draw(st.booleans()))
    return make(lo, lo + 1) if rho is EMPTY else rho


def since_reference(rho, left, right):
    """_since as an all-pairs loop over left and right intervals."""
    out = []
    if not rho.left_open and rho.left == 0:
        out.extend(right)
    rho_pos = _positive_part(rho)
    if not rho_pos.is_empty:
        for t1 in left:
            w_range = normalize(t1.left, t1.right, _inf_open(t1.left), True)
            upper = normalize(NEG_INF, t1.right, True, _inf_open(t1.right))
            for t2 in right:
                w = intersect(t2, w_range)
                if w.is_empty:
                    continue
                cand = intersect(interval_op("plus", w, rho_pos), upper)
                if not cand.is_empty:
                    out.append(cand)
    return coalesce(out)


def until_reference(rho, left, right):
    """_until as an all-pairs loop over left and right intervals."""
    out = []
    if not rho.left_open and rho.left == 0:
        out.extend(right)
    rho_pos = _positive_part(rho)
    if not rho_pos.is_empty:
        for t1 in left:
            w_range = normalize(t1.left, t1.right, True, _inf_open(t1.right))
            lower = normalize(t1.left, POS_INF, _inf_open(t1.left), True)
            for t2 in right:
                w = intersect(t2, w_range)
                if w.is_empty:
                    continue
                cand = intersect(interval_op("minus", w, rho_pos), lower)
                if not cand.is_empty:
                    out.append(cand)
    return coalesce(out)


@given(coalesced_lists, coalesced_lists)
def test_new_point_bound_is_never_past_a_new_point(old, extra):
    new = coalesce(old + extra)
    if new == old:
        return
    first, last = _new_point_bound(old, new, 1), _new_point_bound(old, new, -1)
    for k in range(-4, 30):  # a quarter grid over the lists' finite endpoints
        p = Fraction(k, 4)
        if any(contains_point(iv, p) for iv in new) and not any(contains_point(iv, p) for iv in old):
            assert first <= p <= last


# a right interval ending where the left one starts, and one starting where
# it ends: the sweep's skip and stop boundaries
@example(make(0, 1, True, False), [make(2, 5)], [make(0, 2)])
@example(make(0, 1, True, False), [make(0, 2)], [make(2, 5)])
@given(operator_intervals(), coalesced_lists, coalesced_lists)
@settings(max_examples=300)
def test_since_sweep_matches_all_pairs(rho, left, right):
    assert _since(rho, left, right) == since_reference(rho, left, right)


@example(make(0, 1, True, False), [make(2, 5)], [make(0, 2)])
@example(make(0, 1, True, False), [make(0, 2)], [make(2, 5)])
@given(operator_intervals(), coalesced_lists, coalesced_lists)
@settings(max_examples=300)
def test_until_sweep_matches_all_pairs(rho, left, right):
    assert _until(rho, left, right) == until_reference(rho, left, right)


@given(coalesced_lists)
def test_reflect_mirrors_a_coalesced_list_in_time(x):
    mirrored = reflect(x)
    assert reflect(mirrored) == x
    assert coalesce(mirrored) == mirrored
    for k in range(-4, 30):  # a quarter grid over the lists' finite endpoints
        p = Fraction(k, 4)
        assert any(contains_point(iv, -p) for iv in mirrored) == any(contains_point(iv, p) for iv in x)
    for iv in mirrored:
        for b in (iv.left, iv.right):
            canonical = type(b) is int or (type(b) is Fraction and b.denominator != 1)
            assert canonical or b is POS_INF or b is NEG_INF, (iv, b)


@given(coalesced_lists, coalesced_lists)
def test_intersect_lists_matches_all_pairs(a, b):
    want = coalesce(intersect(x, y) for x in a for y in b)
    assert coalesce(_intersect_lists(a, b)) == want


@given(st.lists(coalesced_lists, min_size=1, max_size=4))
def test_merge_intervals_is_the_coalesced_pointwise_intersection(lists):
    got = merge_intervals(lists)
    assert got == coalesce(got)
    # bounds are halves in [0, 5], so quarters from -1 to 6 tell the sets apart
    for t in (Fraction(k, 4) for k in range(-4, 25)):
        assert any(contains_point(iv, t) for iv in got) == all(
            any(contains_point(iv, t) for iv in lst) for lst in lists
        )


@given(intervals(), intervals())
def test_intersect_commutative(i1, i2):
    assert intersect(i1, i2) == intersect(i2, i1)


@given(intervals())
def test_intersect_idempotent(i):
    assert intersect(i, i) == i


@given(intervals(), intervals())
def test_union_commutative(i1, i2):
    assert union_if_coalescable(i1, i2) == union_if_coalescable(i2, i1)


@given(intervals())
def test_subset_reflexive(i):
    assert subset(i, i)


@given(intervals(), intervals(), intervals())
def test_subset_transitive(i1, i2, i3):
    if subset(i1, i2) and subset(i2, i3):
        assert subset(i1, i3)


@given(intervals())
def test_normalize_idempotent(i):
    assert normalize(i.left, i.right, i.left_open, i.right_open) == i


@given(intervals(), intervals())
def test_union_covers_both_inputs(i1, i2):
    u = union_if_coalescable(i1, i2)
    if u is not None:
        assert subset(i1, u) and subset(i2, u)


@given(st.lists(intervals(), min_size=1, max_size=8))
def test_coalesce_canonical(ivs):
    out = coalesce(ivs)
    for a, b in zip(out, out[1:]):
        assert union_if_coalescable(a, b) is None
        assert a.sort_key() < b.sort_key()
    # same point set, probed at every endpoint and midpoint
    probes = set()
    for iv in ivs:
        probes |= {iv.left, iv.right, (iv.left + iv.right) / 2}
    for t in probes:
        want = any(contains_point(iv, t) for iv in ivs)
        got = any(contains_point(iv, t) for iv in out)
        assert got == want


@given(unbounded_intervals(), unbounded_intervals(), st.booleans(), st.booleans())
def test_bounds_are_canonical_rationals_or_the_infinity_constants(i1, i2, left_open, right_open):
    results = [
        normalize(i1.left, i1.right, left_open, right_open),
        intersect(i1, i2),
        union_if_coalescable(i1, i2),
        *(interval_op(kind, i1, i2) for kind in ("closure", "minus", "circleminus", "plus", "circleplus")),
        *coalesce([i1, i2]),
    ]
    for iv in results:
        if iv is None:
            continue
        for b in (iv.left, iv.right):
            assert (
                type(b) is int
                or (type(b) is Fraction and b.denominator != 1)
                or b is POS_INF
                or b is NEG_INF
            ), (iv, b)


@given(
    st.lists(
        st.fractions(min_value=Fraction(0), max_value=Fraction(10), max_denominator=6),
        min_size=1,
        max_size=6,
    )
)
def test_gcd_divides_all(vals):
    if all(v == 0 for v in vals):
        return
    d = gcd_rationals(vals)
    for v in vals:
        assert (v / d).denominator == 1
    # maximality: doubling d must break divisibility for some nonzero input
    assert any(v != 0 and (v / (2 * d)).denominator != 1 for v in vals)


@given(st.integers(0, 10**9))
def test_parse_print_round_trip(seed):
    rng = random.Random(seed)
    prog = rand_program(rng)
    assert parse_program(print_program(prog)) == prog
    facts = [rand_fact(rng) for _ in range(2)]
    assert parse_dataset(print_dataset(facts)) == facts


_EDITS = ("space", "constant", "keyword", "comment", "drop", "reverse", "empty", "endpoint", "bracket")


def _edit(line, kind, rng):
    """`line` with one edit of the given kind: onto the edge of the fact-line
    pattern, off it, or into a fault."""
    if kind == "space":
        i = rng.randrange(len(line) + 1)
        return line[:i] + " " + line[i:]
    if kind == "constant":  # a variable or a `_` name for the first argument
        first = re.search(r"\((\w)", line)
        if first is None:
            return line
        name = rng.choice([first[1].upper(), "_" + first[1]])
        return line[: first.start(1)] + name + line[first.end(1):]
    if kind == "keyword":
        return rng.choice(KEYWORDS) + line[len(re.match(r"\w*", line)[0]):]
    if kind == "comment":
        return line + rng.choice([" # note", "#note"])
    if kind == "drop":
        i = rng.randrange(len(line))
        return line[:i] + line[i + 1:]
    m = re.fullmatch(r"(.*@)([\[(])([^,]*),(.*)([\])])", line)
    if m is None:  # an earlier edit broke the interval already
        return line
    atom, lb, left, right, rb = m.groups()
    if kind == "reverse":
        left, right = right, left
    elif kind == "empty":
        lb, left, right, rb = rng.choice(
            [("[", "3", "1", "]"), ("(", "2", "2", "]"), ("[", "-2", "-2", ")")]
        )
    elif kind == "endpoint":
        new = rng.choice(["-0", "00", "007", "-12", "2.0", "1.5", "1/0", "3/1", "-inf", "+inf"])
        left, right = (new, right) if rng.random() < 0.5 else (left, new)
    elif kind == "bracket":  # with an infinite endpoint, a closed bracket is a fault
        lb, rb = ("[" if lb == "(" else "("), ("]" if rb == ")" else ")")
    return f"{atom}{lb}{left},{right}{rb}"


@st.composite
def dataset_lines(draw):
    """A printed random fact, with up to three edits."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    line = print_dataset([rand_fact(rng)]).rstrip("\n")
    for kind in draw(st.lists(st.sampled_from(_EDITS), max_size=3)):
        line = _edit(line, kind, rng)
    return line


def _outcome(parse, line):
    """The facts `parse` reads from `line`, each with its bound types, or its
    fault's message and position."""
    try:
        return [(f, type(f.interval.left), type(f.interval.right)) for f in parse(line)]
    except SyntaxFault as e:
        return str(e), e.line, e.column


def _full_parse(line):
    p = syntax._Parser(line, 1)
    fact = p.parse_fact()
    if not p.at_eof():
        p.fail("trailing input after fact")
    return [fact]


@example("P(a,b)@[-0,00]")
@example("P(a)@[3,1]")
@example("P(a)@(2,2]")
@example("BOTTOM(a)@[0,1]")
@example("P(a,X)@[0,1]")
@example("P(_a)@[0,1]")
@example("P(1)@[0,1]")
@example("Flag@[0,1]")
@example("P(a)@[0,1/0]")
@example("P(a)@[-inf,3]")
@example("P(a)@[0,1] # note")
@example("P(a) @[0,1]")
@example("P(a)@[0,1")
@example("P(a)@[0,\u0663]")
@given(dataset_lines())
@settings(max_examples=400)
def test_fact_line_pattern_agrees_with_the_full_parser(line):
    assume(line.strip() and not line.strip().startswith("#"))
    assert _outcome(parse_dataset, line) == _outcome(_full_parse, line)


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_store_always_coalesced(seed):
    rng = random.Random(seed)
    s = FactStore()
    for _ in range(20):
        f = rand_fact(rng)
        s.insert_intervals(f.atom.key(), [f.interval])
    s.check_invariants()


@given(st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_entails_matches_pointwise_coverage(seed):
    rng = random.Random(seed)
    facts, atoms = rand_bounded_instance(rng)
    s = FactStore.from_facts(facts)
    atom = rng.choice(atoms)
    a, b = sorted((rng.randint(0, 20), rng.randint(0, 20)))
    query = Fact(atom, make(a, b))
    covered = s.entails_fact(query)
    # pointwise: every half-integer sample of the query lies in some interval
    stored = s.intervals_for(atom.key())
    samples = [Fraction(k, 2) for k in range(2 * a, 2 * b + 1)]
    pointwise = all(any(contains_point(iv, t) for iv in stored) for t in samples)
    assert covered == pointwise


@given(st.integers(0, 10**9))
@settings(max_examples=20, deadline=None)
def test_apply_operator_agrees_with_oracle(seed):
    rng = random.Random(seed)
    facts, atoms = rand_bounded_instance(rng)
    lit = rand_bounded_literal(rng, atoms)
    prog = wrap_literals_in_rules([lit])
    oracle = GridOracle(prog, facts)
    got = clip(apply_operator(lit, FactStore.from_facts(facts)), oracle.window)
    assert got == coalesce(oracle.holds_intervals(lit))


@given(st.integers(0, 10**9))
@settings(max_examples=15, deadline=None)
def test_relevant_rules_preserve_answers(seed):
    rng = random.Random(seed)
    facts, atoms = rand_bounded_instance(rng)
    lits = [rand_bounded_literal(rng, atoms, depth=1) for _ in range(2)]
    prog = wrap_literals_in_rules(lits)
    target = "H0"
    sub = relevant_rules(prog, target)
    full = materialise(prog, FactStore.from_facts(facts)).store
    restricted = materialise(sub, FactStore.from_facts(facts)).store
    assert full.intervals_for((target, ())) == restricted.intervals_for((target, ()))


@given(st.integers(0, 10**9))
@settings(max_examples=10, deadline=None)
def test_prune_letters_decision_invariance(seed):
    rng = random.Random(seed)
    facts, atoms = rand_bounded_instance(rng)
    # shrink the timeline so the unpruned search stays tractable
    facts = [Fact(f.atom, make(f.interval.left % 3, f.interval.left % 3 + 1)) for f in facts[:2]]
    lit = rand_bounded_literal(rng, atoms, depth=1)
    if hasattr(lit, "interval"):
        from datalogmtl.syntax import UnaryOp

        if isinstance(lit, UnaryOp):
            lit = UnaryOp(lit.op, make(0, 1), lit.sub)
    prog = wrap_literals_in_rules([lit])
    query = Fact(facts[0].atom, make(0, 1))
    red = entail_to_inconsist(prog, facts, query)
    a = consistent(red.program, list(red.dataset), prune_letters=True)
    b = consistent(red.program, list(red.dataset), prune_letters=False)
    assert a == b


@given(st.integers(0, 10**9))
@settings(max_examples=15, deadline=None)
def test_nonrecursive_subprograms_terminate(seed):
    rng = random.Random(seed)
    facts, atoms = rand_bounded_instance(rng)
    lits = [rand_bounded_literal(rng, atoms, depth=1) for _ in range(2)]
    prog = wrap_literals_in_rules(lits)
    assert not is_recursive(prog)
    out = materialise(prog, FactStore.from_facts(facts))
    assert out.status in ("Fixpoint", "Inconsistent")
