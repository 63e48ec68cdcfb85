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
from typing import Iterator, KeysView, Optional, Sequence, Union

from .intervals import (
    EMPTY,
    NEG_INF,
    POS_INF,
    Bound,
    Interval,
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
        """The ground atom whose key is `key`, built with that key kept."""
        atom = cls(key[0], tuple(map(Constant, key[1])))
        atom.__dict__["_key"] = key
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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<inf>[+-]inf\b)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>:-)
  | (?P<punct>[()\[\],.@])
  | (?P<sign>[+-])
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str, line: int) -> list[_Token]:
    """Tokens of `text`, positioned as if it started at `line`, column 1."""
    tokens = []
    col = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SyntaxFault(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, val, line, col))
        newlines = val.count("\n")
        if newlines:
            line += newlines
            col = len(val) - val.rfind("\n")
        else:
            col += len(val)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


# The common dataset line, matched whole without tokens: a non-keyword
# predicate over name constants, `@`, and an interval with integer endpoints,
# with no spaces.  The character classes are _TOKEN_RE's.
_FACT_LINE_RE = re.compile(
    rf"(?!(?:{'|'.join(KEYWORDS)})\()([A-Za-z_][A-Za-z0-9_]*)"
    r"\(([a-z_][A-Za-z0-9_]*(?:,[a-z_][A-Za-z0-9_]*)*)\)"
    r"@([\[(])(-?\d+),(-?\d+)([\])])"
)


def is_predicate_name(name) -> bool:
    """True iff the parser reads `name` back as a predicate name: one name
    token that is not a keyword."""
    m = _TOKEN_RE.fullmatch(name) if isinstance(name, str) else None
    return m is not None and m.lastgroup == "name" and name not in KEYWORDS


class _Parser:
    def __init__(self, text: str, line: int = 1):
        self.tokens = _tokenize(text, line)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise SyntaxFault(f"expected {text!r}, got {t.text!r}", t.line, t.column)
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise SyntaxFault(msg, t.line, t.column)

    # -- rationals and intervals

    def parse_rational(self) -> Bound:
        t = self.next()
        if t.kind != "number":
            raise SyntaxFault(f"expected a number, got {t.text!r}", t.line, t.column)
        if t.text.isdecimal():  # a plain integer
            return int(t.text)
        try:
            return rational(Fraction(t.text))
        except (ValueError, ZeroDivisionError):
            # the number token also admits 1/0 and 1.5/2
            raise SyntaxFault(f"not a rational number: {t.text!r}", t.line, t.column) from None

    def parse_interval(self, operator_position: bool = False) -> Interval:
        t = self.next()
        if t.text not in ("[", "("):
            raise SyntaxFault(f"expected interval, got {t.text!r}", t.line, t.column)
        left_open = t.text == "("
        left = self._parse_bound()
        if not is_finite(left) and not left_open:
            raise SyntaxFault("infinite endpoint requires an open bracket", t.line, t.column)
        self.expect(",")
        right = self._parse_bound()
        t2 = self.next()
        if t2.text not in ("]", ")"):
            raise SyntaxFault(f"expected ] or ), got {t2.text!r}", t2.line, t2.column)
        right_open = t2.text == ")"
        if not is_finite(right) and not right_open:
            raise SyntaxFault("infinite endpoint requires an open bracket", t2.line, t2.column)
        iv = normalize(left, right, left_open, right_open)
        if iv.is_empty:
            raise SyntaxFault("empty interval", t.line, t.column)
        if operator_position and iv.left < 0:
            raise SyntaxFault("operator interval must be non-negative", t.line, t.column)
        return iv

    def _parse_bound(self):
        t = self.peek()
        if t.kind == "inf":
            self.next()
            return POS_INF if t.text.startswith("+") else NEG_INF
        if t.kind == "sign":
            self.next()
            value = self.parse_rational()
            return -value if t.text == "-" else value
        return self.parse_rational()

    # -- atoms

    def parse_metric_atom(self) -> MetricAtom:
        left = self._parse_operand()
        while self.peek().text in BINARY_OPS:
            op = self.next().text
            iv = self.parse_interval(operator_position=True)
            right = self._parse_operand()
            left = BinaryOp(op, iv, left, right)
        return left

    def _parse_operand(self) -> MetricAtom:
        t = self.peek()
        if t.text in UNARY_OPS:
            self.next()
            iv = self.parse_interval(operator_position=True)
            sub = self._parse_operand()
            return UnaryOp(t.text, iv, sub)
        if t.text == "TOP":
            self.next()
            return Top()
        if t.text == "BOTTOM":
            self.next()
            return Bottom()
        if t.text == "(":
            self.next()
            inner = self.parse_metric_atom()
            self.expect(")")
            return inner
        if t.kind == "name":
            return Rel(self.parse_relational_atom())
        self.fail(f"expected a metric atom, got {t.text!r}")

    def parse_relational_atom(self) -> RelationalAtom:
        t = self.next()
        if t.kind != "name" or t.text in KEYWORDS:
            raise SyntaxFault(f"expected predicate name, got {t.text!r}", t.line, t.column)
        args: list[Term] = []
        if self.peek().text == "(":
            self.next()
            while True:
                args.append(self._parse_term())
                nxt = self.next()
                if nxt.text == ")":
                    break
                if nxt.text != ",":
                    raise SyntaxFault(f"expected , or ), got {nxt.text!r}", nxt.line, nxt.column)
        return RelationalAtom(t.text, tuple(args))

    def _parse_term(self) -> Term:
        t = self.next()
        if t.kind == "number":
            return Constant(t.text)
        if t.kind != "name":
            raise SyntaxFault(f"expected a term, got {t.text!r}", t.line, t.column)
        if t.text[0].isupper():
            return Variable(t.text)
        return Constant(t.text)

    # -- rules and facts

    def parse_rule(self) -> Rule:
        head = self.parse_metric_atom()
        self.expect(":-")
        body = [self.parse_metric_atom()]
        while self.peek().text == ",":
            self.next()
            body.append(self.parse_metric_atom())
        end = self.expect(".")
        if not is_valid_head(head):
            raise SyntaxFault(f"forbidden operator in rule head: {head}", end.line, end.column)
        missing = atom_variables(head).difference(*map(atom_variables, body))
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise SyntaxFault(f"unsafe rule: head variable(s) {names} not in body", end.line, end.column)
        return Rule(head, tuple(body))

    def parse_fact(self) -> Fact:
        atom = self.parse_relational_atom()
        if not atom.is_ground():
            self.fail(f"fact must be ground: {atom}")
        self.expect("@")
        iv = self.parse_interval()
        return Fact(atom, iv)

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"


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

    A line such as `P(a,b)@[0,5]` (a non-keyword predicate over lowercase or
    `_` names, integer endpoints, no spaces, a non-empty interval) is read by
    one pattern match, and lines over the same atom share it.  Every
    other line, each faulty one included, goes through the full parser, so a
    fault keeps its message, line and column.
    """
    facts = []
    atoms: dict[tuple[str, str], RelationalAtom] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _FACT_LINE_RE.fullmatch(line)
        if m:
            pred, args, lb, left, right, rb = m.groups()
            iv = normalize(int(left), int(right), lb == "(", rb == ")")
            if iv is not EMPTY:
                atom = atoms.get((pred, args))
                if atom is None:
                    atom = atoms[pred, args] = RelationalAtom(pred, tuple(map(Constant, args.split(","))))
                facts.append(Fact(atom, iv))
                continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        # each line parses on its own, its faults positioned in the dataset
        facts.append(parse_fact(line, line=lineno))
    return facts


def parse_fact(text: str, line: int = 1) -> Fact:
    """One fact; `line` is the line number its faults report."""
    p = _Parser(text, line)
    fact = p.parse_fact()
    if not p.at_eof():
        p.fail("trailing input after fact")
    return fact


def check_arities(program: Program, facts: Sequence[Fact]):
    """Load-time arity consistency check across a program and a dataset."""
    arity: dict[str, int] = {}

    def check(atom: RelationalAtom):
        seen = arity.setdefault(atom.predicate, len(atom.args))
        if seen != len(atom.args):
            raise SyntaxFault(
                f"arity conflict for predicate {atom.predicate}: {seen} vs {len(atom.args)}"
            )

    for r in program.rules:
        for m in (r.head, *r.body):
            for a in relational_atoms(m):
                check(a)
    for f in facts:
        check(f.atom)


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
