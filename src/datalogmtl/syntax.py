"""AST, parser and printer for DatalogMTL programs, datasets and facts.

Concrete syntax:

    Immune(X) :- BOXMINUS[0,7] NoSympt(X) .
    P(a) SINCE[1,2] Q(a)
    NoSympt(james)@[0,14]

Operator keywords: DIAMONDMINUS, DIAMONDPLUS, BOXMINUS, BOXPLUS, SINCE,
UNTIL, TOP, BOTTOM.  Variables start with an uppercase letter, constants and
predicates with anything else.  Rationals are integers, fractions (3/2) or
decimals (1.25, converted exactly).  Infinite endpoints are written -inf /
+inf and must sit next to an open bracket.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, KeysView, Optional, Sequence, Union

from .intervals import (
    NEG_INF,
    POS_INF,
    Bound,
    Interval,
    _build,
    is_finite,
    normalize,
    rational,
)


class SyntaxFault(Exception):
    """Parse or validation error with position information."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Terms and atoms


@dataclass(frozen=True)
class Constant:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self):
        return self.name


Term = Union[Constant, Variable]

_new = object.__new__


def _constant(name: str) -> Constant:
    """`Constant(name)`, written through its instance dict."""
    c = _new(Constant)
    c.__dict__["name"] = name
    return c


@dataclass(frozen=True)
class RelationalAtom:
    predicate: str
    args: tuple[Term, ...]

    def is_ground(self) -> bool:
        return all(isinstance(a, Constant) for a in self.args)

    def variables(self) -> set[Variable]:
        return {a for a in self.args if isinstance(a, Variable)}

    def key(self) -> tuple[str, tuple[str, ...]]:
        # built once per atom object and kept outside the fields, so ==,
        # hash and repr ignore it
        k = self.__dict__.get("_key")
        if k is None:
            k = self.__dict__["_key"] = (self.predicate, tuple(a.name for a in self.args))
        return k

    @classmethod
    def from_key(cls, key: tuple[str, tuple[str, ...]]) -> "RelationalAtom":
        """The ground atom whose key is `key`, built with that key kept.

        Written through the instance dicts, as `Interval` is built through
        `_build` and `Fact` through its slots: a frozen dataclass's
        `__init__` sets each field through `object.__setattr__`, and the
        fact readers build one atom per ground atom they meet."""
        atom = _new(cls)
        fields = atom.__dict__
        fields["predicate"] = key[0]
        fields["args"] = tuple(map(_constant, key[1]))
        fields["_key"] = key
        return atom

    def __str__(self):
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Top:
    def __str__(self):
        return "TOP"


@dataclass(frozen=True)
class Bottom:
    def __str__(self):
        return "BOTTOM"


@dataclass(frozen=True)
class Rel:
    atom: RelationalAtom

    def __str__(self):
        return str(self.atom)


@dataclass(frozen=True)
class UnaryOp:
    """One of the four unary metric operators applied to a sub-atom."""

    op: str  # DIAMONDMINUS | DIAMONDPLUS | BOXMINUS | BOXPLUS
    interval: Interval
    sub: "MetricAtom"

    def __str__(self):
        return f"{self.op}{self.interval} {_paren(self.sub)}"


@dataclass(frozen=True)
class BinaryOp:
    """SINCE or UNTIL, written infix: A SINCE[1,2] B."""

    op: str  # SINCE | UNTIL
    interval: Interval
    left: "MetricAtom"
    right: "MetricAtom"

    def __str__(self):
        return f"{_paren(self.left)} {self.op}{self.interval} {_paren(self.right)}"


MetricAtom = Union[Top, Bottom, Rel, UnaryOp, BinaryOp]

UNARY_OPS = ("DIAMONDMINUS", "DIAMONDPLUS", "BOXMINUS", "BOXPLUS")
BINARY_OPS = ("SINCE", "UNTIL")
KEYWORDS = (*UNARY_OPS, *BINARY_OPS, "TOP", "BOTTOM")


def _paren(m: MetricAtom) -> str:
    if isinstance(m, (UnaryOp, BinaryOp)):
        return f"({m})"
    return str(m)


def nodes(m: MetricAtom) -> Iterator[MetricAtom]:
    """m and every metric atom nested in it, in preorder: a node before its
    operands, a left operand before the right one, so relational atoms come
    in reading order and operators outermost first."""
    stack = [m]
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, UnaryOp):
            stack.append(n.sub)
        elif isinstance(n, BinaryOp):
            stack += (n.right, n.left)


def relational_atoms(m: MetricAtom) -> list[RelationalAtom]:
    """All relational atoms nested anywhere inside m, in reading order."""
    # a plain atom skips the walk: the automata read every ground rule's atoms,
    # most of them plain; the parser's rule check calls this once per rule
    if isinstance(m, Rel):
        return [m.atom]
    return [n.atom for n in nodes(m) if isinstance(n, Rel)]


def atom_variables(m: MetricAtom) -> set[Variable]:
    return {v for a in relational_atoms(m) for v in a.variables()}


def operator_nodes(m: MetricAtom) -> Iterator[UnaryOp | BinaryOp]:
    """The UnaryOp and BinaryOp nodes of m, outermost first, a left operand
    before the right one."""
    return (n for n in nodes(m) if isinstance(n, (UnaryOp, BinaryOp)))


def substitute(m: MetricAtom, sigma: dict[Variable, Constant]) -> MetricAtom:
    if isinstance(m, Rel):
        args = tuple(sigma.get(a, a) if isinstance(a, Variable) else a for a in m.atom.args)
        return Rel(RelationalAtom(m.atom.predicate, args))
    if isinstance(m, UnaryOp):
        return UnaryOp(m.op, m.interval, substitute(m.sub, sigma))
    if isinstance(m, BinaryOp):
        return BinaryOp(m.op, m.interval, substitute(m.left, sigma), substitute(m.right, sigma))
    return m


def head_parts(head: MetricAtom) -> tuple[list[UnaryOp], MetricAtom]:
    """A head's boxes, outermost first, and the atom under them."""
    boxes = []
    while isinstance(head, UnaryOp):
        boxes.append(head)
        head = head.sub
    return boxes, head


def is_valid_head(m: MetricAtom) -> bool:
    """Heads are Bottom, Rel, or (nested) boxes over those."""
    boxes, base = head_parts(m)
    return isinstance(base, (Bottom, Rel)) and all(b.op in ("BOXMINUS", "BOXPLUS") for b in boxes)


# ---------------------------------------------------------------------------
# Rules, programs, facts


@dataclass(frozen=True)
class Rule:
    """A head over a non-empty body.  A plain record, as `Fact` is: the
    parser rejects an empty body, a head with a forbidden operator or a head
    variable outside the body at the edge, and the reasoner builds rules only
    from rules the parser has checked."""

    head: MetricAtom
    body: tuple[MetricAtom, ...]

    def variables(self) -> set[Variable]:
        out = atom_variables(self.head)
        for b in self.body:
            out |= atom_variables(b)
        return out

    def head_predicate(self) -> Optional[str]:
        base = head_parts(self.head)[1]
        return base.atom.predicate if isinstance(base, Rel) else None  # Bottom

    def body_predicates(self) -> frozenset[str]:
        # built once per rule object and kept outside the fields, as
        # RelationalAtom.key() is: rounds, analyses and the automata ask often
        preds = self.__dict__.get("_body_predicates")
        if preds is None:
            preds = self.__dict__["_body_predicates"] = frozenset(
                a.predicate for b in self.body for a in relational_atoms(b)
            )
        return preds

    def __str__(self):
        body = ", ".join(str(b) for b in self.body)
        return f"{self.head} :- {body} ."


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]

    def predicates(self) -> set[str]:
        out = set()
        for r in self.rules:
            p = r.head_predicate()
            if p is not None:
                out.add(p)
            out |= r.body_predicates()
        return out

    def constants(self) -> set[str]:
        atoms = (a for r in self.rules for m in (r.head, *r.body) for a in relational_atoms(m))
        return {t.name for a in atoms for t in a.args if isinstance(t, Constant)}

    def __str__(self):
        return "\n".join(str(r) for r in self.rules)


@dataclass(frozen=True, slots=True, init=False)
class Fact:
    """A ground atom over a non-empty interval.  A plain record: the parser
    rejects a non-ground atom or an empty interval at the edge, and the
    reasoner builds facts only from ground atoms and non-empty intervals.

    Frozen, and built through its slots' own setters rather than a frozen
    dataclass's `__init__`, which costs half as much again: the rules build
    one per derived interval.  Not a tuple, so a Fact is told apart from a
    ("bottom", interval) marker by `isinstance(d, tuple)`."""

    atom: RelationalAtom
    interval: Interval

    def __init__(self, atom: RelationalAtom, interval: Interval):
        _set_atom(self, atom)
        _set_interval(self, interval)

    def __str__(self):
        return f"{self.atom}@{self.interval}"


# the slots' setters, which the frozen class's __setattr__ does not guard
_set_atom = Fact.atom.__set__
_set_interval = Fact.interval.__set__


def _fact_setattr(self, name, _value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _fact_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# dataclass's frozen guards test the class that `slots=True` replaces, so on
# CPython 3.11 a name other than a field's reached `super()` and raised
# TypeError; these guard every name
Fact.__setattr__, Fact.__delattr__ = _fact_setattr, _fact_delattr


# ---------------------------------------------------------------------------
# Lexer

# One token after the blanks and `#` comments before it.  The last two
# alternatives match wherever the others fail (after the skip, the next
# character is no blank and no `#`), so a match never fails and the skip is
# never backtracked into.
_TOKEN_RE = re.compile(
    r"""
    (?:\s|\#[^\n]*)*
    (?:
      (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
    | (?P<inf>[+-]inf\b)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<arrow>:-)
    | (?P<punct>[()\[\],.@])
    | (?P<sign>[+-])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)

# (kind, text, offset into the parsed text)
_Tok = tuple[str, str, int]


def _position(text: str, line: int, off: int) -> tuple[int, int]:
    """The line and column of `text[off]`, `text` starting at `line`,
    column 1; only `\n` starts a line."""
    return line + text.count("\n", 0, off), off - text.rfind("\n", 0, off)


def _tokenize(text: str, line: int) -> list[_Tok]:
    """The tokens of `text`, ending with one `eof`.  An unexpected
    character is reported at its line and column, `text` starting at
    `line`, before the parser reads any token."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        off = m.start(kind)
        if kind == "bad":
            raise SyntaxFault(f"unexpected character {text[off]!r}", *_position(text, line, off))
        tokens.append((kind, m[kind], off))
        if kind == "eof":
            return tokens


# The common dataset line, matched whole without tokens: a predicate over
# name constants, `@`, and an interval with integer endpoints, with no spaces,
# from the start of a line to the `\n` that ends it (`re.M`).  The character
# classes are _TOKEN_RE's.  Groups: the atom's text, the left bracket, the two
# endpoints and the right bracket.
_FACT_LINE_RE = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*\([a-z_][A-Za-z0-9_]*(?:,[a-z_][A-Za-z0-9_]*)*\))"
    r"@([\[(])(-?\d+),(-?\d+)([\])])$",
    re.M,
)

# One fact read whole without tokens (`fullmatch`): `_FACT_LINE_RE`'s atom,
# `@`, and an interval whose endpoints are integers or fractions `n/d`.
# Groups: the atom's text, the left bracket, the left endpoint's numerator
# and denominator, the right one's, and the right bracket.
_FACT_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*\([a-z_][A-Za-z0-9_]*(?:,[a-z_][A-Za-z0-9_]*)*\))"
    r"@([\[(])(-?\d+)(?:/(\d+))?,(-?\d+)(?:/(\d+))?([\])])"
)


def is_predicate_name(name) -> bool:
    """True iff the parser reads `name` back as a predicate name: one name
    token that is not a keyword."""
    return isinstance(name, str) and _TOKEN_RE.match(name)["name"] == name and name not in KEYWORDS


class _Parser:
    def __init__(self, text: str, line: int = 1):
        self.text = text
        self.line = line
        self.tokens = _tokenize(text, line)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def next(self) -> _Tok:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fault(self, msg: str, t: _Tok) -> SyntaxFault:
        """A fault at token `t`, positioned only now it is raised."""
        return SyntaxFault(msg, *_position(self.text, self.line, t[2]))

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t[1] != text:
            raise self.fault(f"expected {text!r}, got {t[1]!r}", t)
        return t

    def fail(self, msg: str):
        raise self.fault(msg, self.peek())

    # -- rationals and intervals

    def parse_rational(self) -> Bound:
        t = self.next()
        kind, text, _ = t
        if kind != "number":
            raise self.fault(f"expected a number, got {text!r}", t)
        if text.isdecimal():  # a plain integer
            return int(text)
        try:
            if "." in text:
                return rational(Fraction(text))
            num, _, den = text.partition("/")
            return rational(Fraction(int(num), int(den)))
        except (ValueError, ZeroDivisionError):
            # the number token also admits 1/0 and 1.5/2
            raise self.fault(f"not a rational number: {text!r}", t) from None

    def parse_interval(self, operator_position: bool = False) -> Interval:
        t = self.next()
        if t[1] not in ("[", "("):
            raise self.fault(f"expected interval, got {t[1]!r}", t)
        left_open = t[1] == "("
        left = self._parse_bound()
        if not is_finite(left) and not left_open:
            raise self.fault("infinite endpoint requires an open bracket", t)
        self.expect(",")
        right = self._parse_bound()
        t2 = self.next()
        if t2[1] not in ("]", ")"):
            raise self.fault(f"expected ] or ), got {t2[1]!r}", t2)
        right_open = t2[1] == ")"
        if not is_finite(right) and not right_open:
            raise self.fault("infinite endpoint requires an open bracket", t2)
        iv = normalize(left, right, left_open, right_open)
        if iv.is_empty:
            raise self.fault("empty interval", t)
        if operator_position and iv.left < 0:
            raise self.fault("operator interval must be non-negative", t)
        return iv

    def _parse_bound(self):
        kind, text, _ = self.peek()
        if kind == "inf":
            self.next()
            return POS_INF if text.startswith("+") else NEG_INF
        if kind == "sign":
            self.next()
            value = self.parse_rational()
            return -value if text == "-" else value
        return self.parse_rational()

    # -- atoms

    def parse_metric_atom(self) -> MetricAtom:
        left = self._parse_operand()
        while self.peek()[1] in BINARY_OPS:
            op = self.next()[1]
            iv = self.parse_interval(operator_position=True)
            right = self._parse_operand()
            left = BinaryOp(op, iv, left, right)
        return left

    def _parse_operand(self) -> MetricAtom:
        kind, text, _ = self.peek()
        if text in UNARY_OPS:
            self.next()
            iv = self.parse_interval(operator_position=True)
            sub = self._parse_operand()
            return UnaryOp(text, iv, sub)
        if text == "TOP":
            self.next()
            return Top()
        if text == "BOTTOM":
            self.next()
            return Bottom()
        if text == "(":
            self.next()
            inner = self.parse_metric_atom()
            self.expect(")")
            return inner
        if kind == "name":
            return Rel(self.parse_relational_atom())
        self.fail(f"expected a metric atom, got {text!r}")

    def parse_relational_atom(self) -> RelationalAtom:
        t = self.next()
        if t[0] != "name" or t[1] in KEYWORDS:
            raise self.fault(f"expected predicate name, got {t[1]!r}", t)
        args: list[Term] = []
        if self.peek()[1] == "(":
            self.next()
            while True:
                args.append(self._parse_term())
                nxt = self.next()
                if nxt[1] == ")":
                    break
                if nxt[1] != ",":
                    raise self.fault(f"expected , or ), got {nxt[1]!r}", nxt)
        return RelationalAtom(t[1], tuple(args))

    def _parse_term(self) -> Term:
        t = self.next()
        kind, text, _ = t
        if kind == "number":
            return Constant(text)
        if kind != "name":
            raise self.fault(f"expected a term, got {text!r}", t)
        if text[0].isupper():
            return Variable(text)
        return Constant(text)

    # -- rules and facts

    def parse_rule(self) -> Rule:
        head = self.parse_metric_atom()
        self.expect(":-")
        body = [self.parse_metric_atom()]
        while self.peek()[1] == ",":
            self.next()
            body.append(self.parse_metric_atom())
        end = self.expect(".")
        if not is_valid_head(head):
            raise self.fault(f"forbidden operator in rule head: {head}", end)
        missing = atom_variables(head).difference(*map(atom_variables, body))
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise self.fault(f"unsafe rule: head variable(s) {names} not in body", end)
        return Rule(head, tuple(body))

    def parse_fact(self) -> Fact:
        atom = self.parse_relational_atom()
        if not atom.is_ground():
            self.fail(f"fact must be ground: {atom}")
        self.expect("@")
        iv = self.parse_interval()
        return Fact(atom, iv)

    def at_eof(self) -> bool:
        return self.peek()[0] == "eof"


def parse_program(text: str) -> Program:
    p = _Parser(text)
    rules = []
    while not p.at_eof():
        rules.append(p.parse_rule())
    program = Program(tuple(rules))
    check_arities(program, ())
    return program


def parse_dataset(text: str) -> list[Fact]:
    """The facts of a dataset, one per line; blank and `#` lines are skipped.

    One scan of `_FACT_LINE_RE` over the whole text reads each line such as
    `P(a,b)@[0,5]`: a predicate over lowercase or `_` names, integer
    endpoints, no spaces, ended by `\n` or the end of the text.  Its atom is
    built on the first line with that atom's text, and the later ones share
    it.  Every other line goes through `parse_fact`, one line at a time: a
    matched line whose predicate is a keyword or whose interval is empty,
    and each line between two matches, such as one with `n/d` endpoints.
    So a fault keeps the full parser's message, line and column.  Lines are
    numbered as `text.splitlines()` splits them; a line ended by another
    separator (`\r`, `\r\n`, `\x85`, ...) never matches `_FACT_LINE_RE`,
    as `$` stands only before `\n`.
    """
    facts = []
    atoms: dict[str, RelationalAtom] = {}
    lineno = 1  # the number of the line that starts at `pos`
    pos = 0
    for m in chain(_FACT_LINE_RE.finditer(text), (None,)):
        start = len(text) if m is None else m.start()
        if pos < start:
            for line in text[pos:start].splitlines():
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    facts.append(parse_fact(line, line=lineno))
                lineno += 1
        if m is None:
            return facts
        atom_text, lb, left, right, rb = m.groups()
        atom = atoms.get(atom_text)
        if atom is None:
            pred, _, args = atom_text.partition("(")
            if pred not in KEYWORDS:
                atom = atoms[atom_text] = RelationalAtom.from_key((pred, tuple(args[:-1].split(","))))
        left, right = int(left), int(right)
        if atom is None or right < left or (left == right and (lb == "(" or rb == ")")):
            # a keyword predicate or an empty interval: the fault is the full
            # parser's to report
            facts.append(parse_fact(m.group(), line=lineno))
        else:
            fact = _new(Fact)
            _set_atom(fact, atom)
            _set_interval(fact, _build((left, right, lb == "(", rb == ")")))
            facts.append(fact)
        lineno += 1
        pos = m.end() + 1  # past the `\n`


def parse_fact(text: str, line: int = 1) -> Fact:
    """One fact; `line` is the line number its faults report.

    A fact such as `P(a,b)@[1/2,3]` (name constants, integer or `n/d`
    endpoints, no spaces) is read by `_FACT_RE` alone.  Every other text
    goes through the full parser, which reports each fault with its message,
    line and column: so does a matched text whose predicate is a keyword,
    whose denominator is 0 or whose interval is empty."""
    m = _FACT_RE.fullmatch(text)
    if m is not None:
        atom_text, lb, ln, ld, rn, rd, rb = m.groups()
        pred, _, args = atom_text.partition("(")
        try:
            left = int(ln) if ld is None else rational(Fraction(int(ln), int(ld)))
            right = int(rn) if rd is None else rational(Fraction(int(rn), int(rd)))
        except (ValueError, ZeroDivisionError):
            pass  # `n/0`, or more digits than `int` reads
        else:
            if pred not in KEYWORDS and (left < right or (left == right and lb == "[" and rb == "]")):
                fact = _new(Fact)
                _set_atom(fact, RelationalAtom.from_key((pred, tuple(args[:-1].split(",")))))
                _set_interval(fact, _build((left, right, lb == "(", rb == ")")))
                return fact
    p = _Parser(text, line)
    fact = p.parse_fact()
    if not p.at_eof():
        p.fail("trailing input after fact")
    return fact


def check_arities(program: Program, facts: Sequence[Fact]):
    """Load-time arity consistency check across a program and a dataset.

    The rules' atoms are checked in reading order, then each distinct atom
    object of the facts once, in order of first use: the parser gives all
    facts on one ground atom one shared atom, so a dataset costs one check
    per ground atom, and the first conflict is the one a check of every
    fact would meet."""
    arity: dict[str, int] = {}
    for r in program.rules:
        for m in (r.head, *r.body):
            for atom in relational_atoms(m):
                if arity.setdefault(atom.predicate, len(atom.args)) != len(atom.args):
                    _arity_conflict(atom, arity)
    distinct: dict[int, RelationalAtom] = {}
    for f in facts:
        distinct[id(f.atom)] = f.atom
    for atom in distinct.values():
        if arity.setdefault(atom.predicate, len(atom.args)) != len(atom.args):
            _arity_conflict(atom, arity)


def _arity_conflict(atom: RelationalAtom, arity: dict[str, int]):
    raise SyntaxFault(
        f"arity conflict for predicate {atom.predicate}: {arity[atom.predicate]} vs {len(atom.args)}"
    )


def print_program(program: Program) -> str:
    return "\n".join(str(r) for r in program.rules) + ("\n" if program.rules else "")


def print_dataset(facts: Sequence[Fact]) -> str:
    """One `Fact.__str__` line per fact.  Each atom object is formatted
    once: the parser, the store and the generator give the facts on one
    ground atom one shared atom."""
    prefixes: dict[int, str] = {}
    lines = []
    for f in facts:
        prefix = prefixes.get(id(f.atom))
        if prefix is None:
            prefix = prefixes[id(f.atom)] = f"{f.atom}@"
        lines.append(prefix + repr(f.interval))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Grounding


def ground(program: Program, constants: set[str]) -> KeysView[Rule]:
    """All substitutions of rule variables by the given constants (none for a
    rule with variables when there are no constants), as a set that
    iterates in rule order and, per rule, in sorted constant order, so the
    order does not depend on PYTHONHASHSEED.

    Eager grounding serves the automata, which check every ground rule
    over each window; rule evaluation grounds lazily via index joins instead.
    """
    from itertools import product

    out: dict[Rule, None] = {}
    consts = sorted(constants)
    for r in program.rules:
        variables = sorted(r.variables(), key=lambda v: v.name)
        if not variables:
            out[r] = None
            continue
        for combo in product(consts, repeat=len(variables)):
            sigma = {v: Constant(c) for v, c in zip(variables, combo)}
            out[Rule(substitute(r.head, sigma), tuple(substitute(b, sigma) for b in r.body))] = None
    return out.keys()
