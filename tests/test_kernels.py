"""List-at-a-time interval kernels against their per-interval references:
`shift` against one endpoint operation per interval and a sorted coalesce,
`coalesce`'s in-order pass against sorting first, `reflect` against
negating each point, and `evaluate_rule` and `apply_rules` against the
rule's groundings, each mapped through the head one body interval at a
time; every kernel's output built as whole `Interval`s; and the cached
atom key, which must leave atoms and facts as they were."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from datalogmtl.evaluation import (
    Plan,
    _intersect_lists,
    _since,
    _until,
    apply_operator,
    evaluate_rule,
    merge_intervals,
    plan,
)
from datalogmtl.intervals import (
    EMPTY,
    NEG_INF,
    POS_INF,
    Interval,
    bound_add,
    coalesce,
    intersect,
    interval_op,
    make,
    normalize,
    point,
    rational,
    reflect,
    shift,
)
from datalogmtl.materialisation import apply_rules
from datalogmtl.store import FactStore
from datalogmtl.syntax import (
    Bottom,
    Constant,
    Fact,
    Program,
    RelationalAtom,
    Rule,
    UnaryOp,
    ground,
    parse_dataset,
    parse_fact,
    parse_program,
)

from test_properties import since_reference, until_reference

SHIFTS = ("plus", "minus", "circleplus", "circleminus")

# -- per-interval references


def bound_sub(a, b):
    """a - b; an infinite a wins, and a finite a minus an infinite b is the
    opposite infinity constant."""
    if a in (NEG_INF, POS_INF):
        return a
    if b in (NEG_INF, POS_INF):
        return NEG_INF if b > 0 else POS_INF
    return rational(a - b)


def op_reference(kind, i1, i2):
    """One endpoint operation on two non-empty intervals, from its formulas."""
    if kind == "plus":
        return normalize(
            bound_add(i1.left, i2.left),
            bound_add(i1.right, i2.right),
            i1.left_open or i2.left_open,
            i1.right_open or i2.right_open,
        )
    if kind == "minus":
        return normalize(
            bound_sub(i1.left, i2.right),
            bound_sub(i1.right, i2.left),
            i1.left_open or i2.right_open,
            i1.right_open or i2.left_open,
        )
    if kind == "circleplus":
        return normalize(
            bound_add(i1.left, i2.right),
            bound_add(i1.right, i2.left),
            i1.left_open and not i2.right_open,
            i1.right_open and not i2.left_open,
        )
    return normalize(
        bound_sub(i1.left, i2.left),
        bound_sub(i1.right, i2.right),
        i1.left_open and not i2.left_open,
        i1.right_open and not i2.right_open,
    )


def coalesce_reference(intervals):
    """Sort by sort key, then merge each interval into the last output when
    no point lies between them."""
    out = []
    for b in sorted((i for i in intervals if i is not EMPTY), key=Interval.sort_key):
        if out:
            a = out[-1]
            if a.right > b.left or (a.right == b.left and not (a.right_open and b.left_open)):
                if b.right > a.right:
                    right, right_open = b.right, b.right_open
                elif b.right < a.right:
                    right, right_open = a.right, a.right_open
                else:
                    right, right_open = a.right, a.right_open and b.right_open
                out[-1] = normalize(a.left, right, a.left_open, right_open)
                continue
        out.append(b)
    return out


def reverse_head_reference(head, interval):
    """A head applied to one body interval: a Fact, or ("bottom", interval)."""
    m, iv = head, interval
    while isinstance(m, UnaryOp):
        iv = op_reference("minus" if m.op == "BOXMINUS" else "plus", iv, m.interval)
        m = m.sub
    return ("bottom", iv) if isinstance(m, Bottom) else Fact(m.atom, iv)


def evaluate_rule_reference(rule, store):
    """evaluate_rule over the rule's groundings by the store's and the
    rule's constants, each ground body evaluated by apply_operator and
    mapped through the head one body interval at a time."""
    program = Program((rule,))
    out = []
    for ground_rule in ground(program, store.constants() | program.constants()):
        body = merge_intervals(apply_operator(lit, store) for lit in ground_rule.body)
        out += [reverse_head_reference(ground_rule.head, iv) for iv in body]
    return out


def by_key(derived):
    """Derivations grouped as {atom key or "bottom": coalesced intervals}."""
    groups = {}
    for d in derived:
        if isinstance(d, tuple):
            groups.setdefault("bottom", []).append(d[1])
        else:
            groups.setdefault(d.atom.key(), []).append(d.interval)
    return {k: coalesce_reference(v) for k, v in groups.items()}


def canonical(intervals):
    for iv in intervals:
        for b in (iv.left, iv.right):
            ok = type(b) is int or (type(b) is Fraction and b.denominator != 1)
            assert ok or b is POS_INF or b is NEG_INF, (iv, b)
    return True


# -- strategies

finite = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=3),
).map(rational)


@st.composite
def intervals(draw):
    """Non-empty intervals with int or Fraction ends, ±inf on either side,
    open or closed."""
    a, b = sorted((draw(finite), draw(finite)))
    left = NEG_INF if draw(st.integers(0, 7)) == 0 else a
    right = POS_INF if draw(st.integers(0, 7)) == 0 else b
    iv = normalize(left, right, draw(st.booleans()), draw(st.booleans()))
    return normalize(a, a, False, False) if iv is EMPTY else iv


coalesced_lists = st.lists(intervals(), max_size=10).map(coalesce_reference)


@st.composite
def rhos(draw):
    """Operator intervals: [0,0], punctual, bounded or up to +inf, each end
    open or closed where the interval allows it."""
    shape = draw(st.sampled_from(("zero", "punctual", "range", "unbounded")))
    a = abs(draw(finite))
    if shape == "zero":
        return point(0)
    if shape == "punctual":
        return normalize(a, a, False, False)
    b = POS_INF if shape == "unbounded" else a + abs(draw(finite))
    iv = normalize(a, b, draw(st.booleans()), draw(st.booleans()))
    return normalize(a, a, False, False) if iv is EMPTY else iv


# -- shift


@example("circleplus", [make(0, 1, False, True), make(1, 2, True, False)], point(0))
@example("plus", [make(0, 1, False, True), make(1, 2, True, False)], make(0, 1))
@example("minus", [make(NEG_INF, 0, True, False), make(1, 2)], make(3, POS_INF, False, True))
@given(st.sampled_from(SHIFTS), coalesced_lists, rhos())
@settings(max_examples=400)
def test_shift_matches_one_operation_per_interval(kind, lst, rho):
    got = shift(kind, lst, rho)
    assert got == coalesce_reference(op_reference(kind, t, rho) for t in lst)
    assert canonical(got)


@given(st.sampled_from(SHIFTS), coalesced_lists, intervals())
def test_shift_takes_any_operand_interval(kind, lst, i2):
    # rho may be negative or unbounded on either side here, as interval_op's
    # operands may be
    assert shift(kind, lst, i2) == coalesce_reference(op_reference(kind, t, i2) for t in lst)


@given(st.sampled_from(SHIFTS), intervals(), intervals())
def test_interval_op_is_the_one_interval_shift(kind, i1, i2):
    got = interval_op(kind, i1, i2)
    assert got == op_reference(kind, i1, i2)
    assert got is EMPTY or canonical([got])


@given(coalesced_lists)
def test_reflect_matches_negated_points(lst):
    mirrored = [op_reference("minus", point(0), iv) for iv in reversed(lst)]
    assert reflect(lst) == mirrored
    assert canonical(reflect(lst))


# -- coalesce


@st.composite
def coalesce_inputs(draw):
    """Lists in order, shuffled, with runs sharing a left end, or with
    neighbours touching at a point both leave open."""
    items = draw(st.lists(intervals(), max_size=10))
    shape = draw(st.sampled_from(("in order", "shuffled", "equal left", "touching open")))
    if shape == "equal left":
        extra = []
        for iv in items:
            if iv.right is POS_INF or iv.right == iv.left:
                continue
            mid = (iv.left + iv.right) / 2 if iv.left is not NEG_INF else iv.right - 1
            extra.append(normalize(iv.left, rational(mid), not iv.left_open, draw(st.booleans())))
        items += [iv for iv in extra if iv is not EMPTY]
    elif shape == "touching open":
        extra = []
        for iv in items:
            if iv.right is not POS_INF:
                extra.append(make(iv.right, iv.right + 1, True, draw(st.booleans())))
        items += extra
    if shape == "shuffled":
        return draw(st.permutations(items))
    if shape == "in order" or draw(st.booleans()):
        return sorted(items, key=Interval.sort_key)
    return items


@example([make(0, 1, True, False), make(0, 2)])
@example([make(0, 1, False, True), make(1, 2, True, False), make(1, 1)])
@given(coalesce_inputs())
@settings(max_examples=200)
def test_coalesce_matches_sorting_first(items):
    want = coalesce_reference(items)
    assert coalesce(items) == want
    # a generator input is read once, the out-of-order rest included
    assert coalesce(iter(items + [EMPTY])) == want


# -- the kernels' interval builder


def repr_reference(iv):
    def text(b):
        return "+inf" if b is POS_INF else "-inf" if b is NEG_INF else str(b)

    return f"{'(' if iv.left_open else '['}{text(iv.left)},{text(iv.right)}{')' if iv.right_open else ']'}"


def whole(lst):
    """Every interval is an `Interval` as the public constructor builds it:
    its type, fields, hash, repr and sort key."""
    for iv in lst:
        assert type(iv) is Interval and hash(iv) == hash(tuple(iv))
        assert (iv.left, iv.right, iv.left_open, iv.right_open) == tuple(iv)
        assert repr(iv) == repr_reference(iv)
        assert iv.sort_key() == (iv.left, iv.left_open, iv.right, iv.right_open)
    return True


@given(st.sampled_from(SHIFTS), rhos(), coalesced_lists, coalesced_lists, coalesce_inputs())
@settings(max_examples=200, deadline=None)
def test_kernels_build_whole_intervals(kind, rho, a, b, items):
    # rho starts at 0 or later, so it is also a SINCE/UNTIL interval
    cases = [
        (shift(kind, a, rho), coalesce_reference(op_reference(kind, t, rho) for t in a)),
        (coalesce(items), coalesce_reference(items)),
        (reflect(a), [op_reference("minus", point(0), iv) for iv in reversed(a)]),
        (_since(rho, a, b), since_reference(rho, a, b)),
        (_until(rho, a, b), until_reference(rho, a, b)),
        (_intersect_lists(a, b), coalesce_reference(intersect(x, y) for x in a for y in b)),
    ]
    for got, want in cases:
        assert got == want and whole(got)


bounds = st.one_of(finite, st.sampled_from((NEG_INF, POS_INF)))


@given(bounds, bounds, st.booleans(), st.booleans())
def test_normalize_builds_a_whole_interval_or_empty(left, right, left_open, right_open):
    got = normalize(left, right, left_open, right_open)
    left_open = left_open or left is NEG_INF
    right_open = right_open or right is POS_INF
    if left is POS_INF or right is NEG_INF or right < left or (left == right and (left_open or right_open)):
        assert got is EMPTY
    else:
        assert got == (left, right, left_open, right_open) and whole([got])


# -- evaluate_rule and apply_rules

RULES = (
    ("H(X)", "P(X)"),
    ("H(X)", "DIAMONDMINUS[0,2] P(X)"),
    ("H(X)", "BOXMINUS[0,1] P(X)"),
    ("H(X)", "P(X), DIAMONDPLUS[1/2,2] Q(X)"),
    ("H(X)", "BOXPLUS[0,1] Q(X)"),
    ("H(X)", "P(X) SINCE[0,2] Q(X)"),
    ("H(X)", "P(X) UNTIL[1,3] Q(X)"),
    # a two-atom join on a shared variable
    ("H(X)", "E(X,Y), DIAMONDMINUS[0,1] P(Y)"),
    # a repeated variable
    ("H(X)", "E(X,X)"),
    # a constant argument
    ("H(X)", "E(X,a), Q(X)"),
    # a variable only under the left operand of SINCE[0,...]: an optional atom
    ("H(X)", "P(Y) SINCE[0,2] Q(X)"),
    # an open head variable, bound by no needed atom, and one that ranges
    # over a constant only the rule names
    ("H(X,Y)", "E(X,Y) SINCE[0,1] Q(X)"),
    ("H(X,Y)", "E(c,Y) SINCE[0,1] Q(X)"),
)


@st.composite
def rules(draw):
    """A rule over P, Q and E with its H head or BOTTOM under up to two
    BOXMINUS/BOXPLUS operators."""
    head_text, body_text = draw(st.sampled_from(RULES))
    rule = parse_program(f"{head_text} :- {body_text} .").rules[0]
    head = Bottom() if draw(st.booleans()) else rule.head
    for _ in range(draw(st.integers(0, 2))):
        head = UnaryOp(draw(st.sampled_from(("BOXMINUS", "BOXPLUS"))), draw(rhos()), head)
    return Rule(head, rule.body)


@st.composite
def stores(draw):
    by_key = {}
    for pred in ("P", "Q"):
        for c in ("a", "b"):
            by_key[(pred, (c,))] = draw(st.lists(intervals(), max_size=6))
    for args in (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")):
        by_key[("E", args)] = draw(st.lists(intervals(), max_size=3))
    return FactStore.from_intervals(by_key)


# Y ranges over c, which only the rule names
@example(
    parse_program("H(X,Y) :- E(c,Y) SINCE[0,1] Q(X) .").rules[0],
    FactStore.from_intervals({("Q", ("a",)): [make(0, 1)]}),
)
@given(rules(), stores())
@settings(max_examples=200, deadline=None)
def test_evaluate_rule_matches_one_head_mapping_per_interval(rule, store):
    got = evaluate_rule(rule, store)
    want = evaluate_rule_reference(rule, store)
    assert by_key(got) == by_key(want)
    # apply_rules stores the same: facts per key and the BOTTOM intervals
    out = apply_rules(Program((rule,)), store)
    groups = by_key(want)
    assert out.bottom_intervals == groups.pop("bottom", [])
    for key, ivs in groups.items():
        assert out.intervals_for(key) == coalesce_reference(store.intervals_for(key) + ivs)


def test_many_bottom_intervals_are_marked_at_once():
    # 200 disjoint P(a) intervals, each a BOTTOM derivation of the first
    # rule; the second rule widens each Q(a) interval of the second half by
    # 3 to the left, which bridges every gap there
    data = [f"P(a)@[{4 * i},{4 * i + 1}]" for i in range(200)]
    data += [f"Q(a)@[{4 * i},{4 * i + 1}]" for i in range(100, 200)]
    store = FactStore.from_facts(parse_dataset("\n".join(data)))
    program = parse_program("BOTTOM :- P(a) .\nBOXMINUS[0,3] BOTTOM :- DIAMONDMINUS[0,0] Q(a) .")
    want = coalesce_reference(
        d[1] for rule in program.rules for d in evaluate_rule_reference(rule, store)
    )
    out = apply_rules(program, store)
    assert out.bottom_intervals == want
    assert len(want) == 100 and want[-1] == make(396, 797)


# apply_rules stores each derived run as it comes and coalesces a key only
# when several runs fed it: several substitutions can feed one ground head,
# two substitutions can ground one head key, two rules can derive one key,
# and a horizon can clip a run's ends to nothing
@pytest.mark.parametrize(
    "program_text, data, horizon",
    [
        ("H(a) :- P(X) .", "P(b)@[0,1]\nP(c)@[0,1]", None),
        ("H(a) :- P(X) .", "P(b)@[0,1]\nP(c)@[2,3]\nP(d)@[1,2]", None),
        ("H(X) :- E(X,Y) .", "E(a,b)@[2,3]\nE(a,c)@[0,2]", None),
        (
            "H(X) :- P(X) .\nH(X) :- DIAMONDMINUS[1,1] P(X) .",
            "P(a)@[0,1]\nP(a)@[3,4]\nH(a)@[10,11]",
            None,
        ),
        ("H(X) :- P(X) .", "P(a)@[0,1]\nP(a)@[3,4]\nP(a)@[6,7]", make(1, 6, True, True)),
        ("H(X) :- P(X) .", "P(a)@[0,1]\nP(a)@[3,4]\nP(a)@[6,7]", make(1, 6)),
        ("H(X) :- P(X) .", "P(a)@[0,1]", make(1, 2, True, False)),
    ],
    ids=["ground head", "ground head out of order", "one key, two rows", "two rules",
         "open horizon", "closed horizon", "horizon past the run"],
)
def test_apply_rules_merges_the_runs_that_meet_on_a_key(program_text, data, horizon):
    program = parse_program(program_text)
    store = FactStore.from_facts(parse_dataset(data))
    out = apply_rules(program, store, horizon=horizon)
    out.check_invariants()
    derived = [d for rule in program.rules for d in evaluate_rule_reference(rule, store)]
    for key, ivs in by_key(derived).items():
        if horizon is not None:
            ivs = [intersect(iv, horizon) for iv in ivs]
        assert out.intervals_for(key) == coalesce_reference(store.intervals_for(key) + ivs)
    assert set(out.atoms) <= set(store.atoms) | set(by_key(derived))


# -- the compiled rule plan


def test_a_rule_plan_is_compiled_once_in_a_fixed_order():
    text = "H(Z,Y) :- E(Y,X) SINCE[0,1] Q(Z), E(Z,a), P(b) ."
    rule = parse_program(text).rules[0]
    before = repr(rule), hash(rule)
    compiled = plan(rule)
    # slots in sorted name order; the constant-only literal joins first, the
    # SINCE[0,1] literal needs only its right operand, and its left atom
    # joins last, as an optional step
    assert compiled == Plan(
        names=("X", "Y", "Z"),
        steps=(("P", ("b",)), ("Q", (2,)), ("E", (2, "a")), ("E", (1, 0))),
        needed=3,
        open_head=(1,),
        head=("H", ("Z", "Y")),
    )
    assert plan(rule) is compiled
    assert (repr(rule), hash(rule)) == before and rule == parse_program(text).rules[0]


# -- the cached atom key


def test_cached_key_leaves_atoms_and_facts_unchanged():
    fresh = parse_fact("Works(alice,acme)@[1,2]")
    keyed = parse_fact("Works(alice,acme)@[1,2]")
    before = repr(keyed), hash(keyed), hash(keyed.atom)
    assert keyed.atom.key() == ("Works", ("alice", "acme"))
    assert keyed.atom.key() is keyed.atom.key()
    after = repr(keyed), hash(keyed), hash(keyed.atom)
    assert after == before
    assert keyed == fresh and keyed.atom == fresh.atom
    assert {keyed: 1}[fresh] == 1
    copy = pickle.loads(pickle.dumps(keyed))
    assert copy == keyed and copy.atom.key() == keyed.atom.key()
    other = RelationalAtom("Works", (Constant("alice"), Constant("acme")))
    assert other == keyed.atom and hash(other) == hash(keyed.atom) and repr(other) == repr(keyed.atom)
