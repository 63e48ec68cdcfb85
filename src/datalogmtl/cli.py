"""Command-line front end.

Exit codes: 0 computed answer, 1 usage error, 2 parse/load error,
3 internal limit reached (e.g. round limit in `materialize`, or the
`--timeout` wall-clock budget).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import signal
import sys
import time
from fractions import Fraction

from . import bench as benchmod
from .analysis import dependency_info, relevant_rules, to_dot
from .automata import consistent
from .intervals import make
from .materialisation import materialise
from .pipeline import check_entailment
from .store import FactStore
from .syntax import (
    SyntaxFault,
    check_arities,
    parse_dataset,
    parse_fact,
    parse_program,
    print_dataset,
)

GRAMMAR_HELP = """\
file formats:
  .dmtl (programs)  one rule per line block, terminated by '.':
      Head :- Body1, Body2 .
    metric atoms: P(a,X) | TOP | BOTTOM | DIAMONDMINUS[1,2] P(X)
      | BOXPLUS(0,+inf) P(X) | P(X) SINCE[0,3] Q(X) | parentheses for grouping
    operators: DIAMONDMINUS DIAMONDPLUS BOXMINUS BOXPLUS SINCE UNTIL
    intervals: [a,b] (a,b] [a,b) (a,b) with rationals 3, 1.5, 7/2, -inf, +inf
    variables start uppercase, constants lowercase or numeric; comments: #
  .dtf (datasets)   one fact per line:  P(a,b)@[0,5/2]
"""

TIMEOUT_HELP = "wall-clock budget in seconds; exit 3 when it runs out"


class WallClockExceeded(BaseException):
    """The --timeout budget ran out.  Like KeyboardInterrupt it is no
    Exception, so the race's `except Exception` does not take it for an
    engine's failure; `finally` blocks still run."""


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive number of seconds, got {text!r}")
    return value


def _rounds(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number of rounds, got {text!r}")
    return value


@contextlib.contextmanager
def _wall_clock(seconds):
    """Raise WallClockExceeded in the main thread once `seconds` of wall
    time have passed, through SIGALRM, so only on POSIX systems.

    The alarm repeats every 0.05 s until the block ends: an exception
    that the handler raises inside a gc callback goes to
    `sys.unraisablehook`, not to the command, so one alarm can be lost."""
    if seconds is None:
        yield
        return

    def expire(_signum, _frame):
        raise WallClockExceeded(f"wall-clock budget of {seconds:g} s exhausted")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, 0.05)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _read(path, parse):
    with open(path) as f:
        return parse(f.read())


def _load(args):
    """The program, the data and the query facts (`--fact` or `--queries`)
    that a command names, with one arity check over all of them."""
    program = _read(args.program, parse_program)
    data = _read(args.data, parse_dataset)
    if "fact" in args:
        queries = [parse_fact(args.fact)]
    elif "queries" in args:
        queries = _read(args.queries, parse_dataset)
    else:
        queries = []
    check_arities(program, [*data, *queries])
    return program, data, queries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="datalogmtl",
        description="DatalogMTL reasoning: materialisation plus an automata-based decision procedure.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the program and the data come first in every command that reads both
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--program", required=True)
    inputs.add_argument("--data", required=True)

    p = sub.add_parser("check", help="decide fact entailment", parents=[inputs])
    p.add_argument("--fact", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--sequential", action="store_true")
    p.add_argument("--max-rounds", type=_rounds, default=1000)
    p.add_argument("--timeout", type=_seconds, default=None, help=TIMEOUT_HELP)

    p = sub.add_parser("materialize", help="run materialisation to fixpoint", parents=[inputs])
    p.add_argument("--max-rounds", type=_rounds, default=1000)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timeout", type=_seconds, default=None, help=TIMEOUT_HELP)

    p = sub.add_parser("consistency", help="automata-based consistency check", parents=[inputs])
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", default=None, help="write search trace to this file")
    p.add_argument("--timeout", type=_seconds, default=None, help=TIMEOUT_HELP)

    p = sub.add_parser("analyze", help="dependency graph, recursion, relevance")
    p.add_argument("--program", required=True)
    p.add_argument("--predicate", default=None, help="report the relevant subprogram for this predicate")
    p.add_argument("--dot", action="store_true", help="emit the dependency graph as DOT")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="JSON generator spec")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("bench", help="time entailment over a query file", parents=[inputs])
    p.add_argument("--queries", required=True)
    p.add_argument("--json", action="store_true")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1

    try:
        with _wall_clock(getattr(args, "timeout", None)):
            return _dispatch(args)
    except BaseException as e:
        failure = _failure(e)
        if failure is None:
            raise
        print(f"{failure[1]}: {e}", file=sys.stderr)
        return failure[0]


def _failure(e: BaseException) -> tuple[int, str] | None:
    """The exit code and message prefix of an error that ends a command, or
    None for one that propagates."""
    if isinstance(e, (OSError, SyntaxFault, ValueError)):
        return 2, "error"
    if isinstance(e, RuntimeError):  # SearchBudgetExceeded among them
        return 3, "limit"
    if isinstance(e, WallClockExceeded):
        return 3, "error"
    return None


def _dispatch(args) -> int:
    if args.command == "check":
        program, data, (query,) = _load(args)
        r = check_entailment(
            program,
            FactStore.from_facts(data),
            query,
            sequential=args.sequential,
            round_budget=args.max_rounds,
        )
        if args.json:
            print(
                json.dumps(
                    {
                        "answer": r.answer,
                        "fact_type": r.fact_type,
                        "rounds": r.rounds,
                        "winner": r.winner,
                        "inconsistent": r.inconsistent,
                        "timings": r.timings,
                    }
                )
            )
        else:
            print("true" if r.answer else "false")
        return 0

    if args.command == "materialize":
        program, data, _ = _load(args)
        start = FactStore.from_facts(data)
        t0 = time.perf_counter()
        out = materialise(program, start, max_rounds=args.max_rounds)
        coalescing_s = time.perf_counter() - t0
        if out.store.contains_bottom:
            spans = ", ".join(map(repr, out.store.bottom_intervals))
            print(f"note: inconsistent, BOTTOM derived on {spans}", file=sys.stderr)
        if args.output:
            with open(args.output, "w") as f:
                f.write(out.store.dump())
        if args.json:
            print(
                json.dumps(
                    {
                        "status": out.status,
                        "rounds": out.rounds,
                        "facts": out.store.fact_count(),
                        "coalescing_s": coalescing_s,
                    }
                )
            )
        elif not args.output:
            sys.stdout.write(out.store.dump())
        if out.status == "RoundLimit":
            return 3
        return 0

    if args.command == "consistency":
        program, data, _ = _load(args)
        trace = [] if args.trace else None
        try:
            flag = consistent(program, data, trace=trace)
            end = f"exit 0: {'consistent' if flag else 'inconsistent'}"
        except BaseException as e:
            failure = _failure(e)
            end = f"exit {failure[0] if failure else '(uncaught)'}: {type(e).__name__}: {e}"
            raise
        finally:
            # written on every way out, so a budget or timeout exit keeps its trace
            if trace is not None:
                with open(args.trace, "w") as f:
                    f.write("\n".join([*trace, end]) + "\n")
        if args.json:
            print(json.dumps({"consistent": flag}))
        else:
            print("consistent" if flag else "inconsistent")
        return 0

    if args.command == "analyze":
        program = _read(args.program, parse_program)
        info = dependency_info(program)
        if args.dot:
            sys.stdout.write(to_dot(info))
            return 0
        report = {
            "recursive_predicates": sorted(info.recursive),
            "recursive_program": bool(info.recursive),
            "sccs": sorted(sorted(c) for c in info.sccs),
        }
        if args.predicate:
            sub = relevant_rules(program, args.predicate)
            report["relevant_rules"] = [str(r) for r in sub.rules]
        if args.json:
            print(json.dumps(report))
        else:
            print(f"recursive: {'yes' if report['recursive_program'] else 'no'}")
            print("recursive predicates:", ", ".join(report["recursive_predicates"]) or "(none)")
            if args.predicate:
                print(f"rules relevant to {args.predicate}:")
                for r in report["relevant_rules"]:
                    print(" ", r)
        return 0

    if args.command == "generate":
        with open(args.spec) as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ValueError("generator spec must be a JSON object")

        def field(name, convert):
            if name not in raw:
                raise ValueError(f"generator spec is missing field {name!r}")
            try:
                return convert(raw[name])
            except (TypeError, ValueError, ZeroDivisionError) as e:
                raise ValueError(f"generator spec field {name!r} is malformed: {e}") from None

        def integer(v):
            if type(v) is not int:  # not bool, which Python's int admits
                raise ValueError(f"expected an integer, got {json.dumps(v)}")
            return v

        def rational(v):
            return Fraction(str(v))

        def closed_range(v):
            lo, hi = (rational(b) for b in v)
            return make(lo, hi, False, False)

        spec = benchmod.GeneratorSpec(
            predicates=field("predicates", lambda v: tuple((p, integer(a)) for p, a in v)),
            constant_pool=field("constant_pool", integer),
            fact_count=field("fact_count", integer),
            endpoint_range=field("endpoint_range", closed_range),
            max_interval_length=field("max_interval_length", rational),
            granularity=field("granularity", rational),
            seed=field("seed", integer) if args.seed is None else args.seed,
        )
        facts = benchmod.generate_dataset(spec)
        text = print_dataset(facts)
        if args.output:
            with open(args.output, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return 0

    if args.command == "bench":
        program, data, queries = _load(args)
        report = benchmod.bench_report(program, FactStore.from_facts(data), queries)
        if args.json:
            print(json.dumps(report))
        else:
            for row in report["queries"]:
                print(
                    f"{row['query']}\t{row['answer']}\t{row['fact_type']}\t"
                    f"rounds={row['rounds']}\ttotal={row['total_s']:.3f}s"
                )
            print("census:", report["census"])
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
