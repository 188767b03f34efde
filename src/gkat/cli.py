"""Command line front end.

Subcommands: learn (run a learner against an expression and write DOT,
per-round table CSVs, trace, stats), compare (sweep the test-set size and
tabulate query counts for both learners), equiv (decide equivalence of two
expressions by a product search over their derivative automata as built,
unfolded into Moore machines one state at a time), and words (list the
words of the derivative automaton up to an action bound). Every answer here
depends only on the languages, so no machine is put in normal form: GL* and
L* both learn the one derivative automaton, as built, of each expression.
The parser is built once per process. `main` looks up `cmd_<command>`
by name on every call, so a patched command is the one that runs, and
calls it inside one mapping of errors to exit codes.
Learner events are observed only for the files written, which `learn`
writes as the run goes: a table CSV at each `hypothesis` and, under
--trace, every event's UTF-8 text (an ask's `answers` as its QUERY lines),
streamed to the trace file. `compare` writes compare.csv, unobserved.
Exit codes: 0 success or equivalent, 1 inequivalent, 2 bad input or an
unwritable output directory, 3 capacity, 4 internal inconsistency.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import nullcontext
from dataclasses import astuple, dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Tuple

from .errors import (
    CapacityError,
    InternalInconsistencyError,
    NotClosedError,
    NotNormalError,
    ParseError,
)
from .syntax import TestSet, atoms, embed_kat, parse_exp
from .language import automaton_words
from .automata import gkat_dot, moore_difference_gs, moore_dot
# bound, never called here: the benchmark's tracer patches embed_kat, kat_moore_automaton
from .construct import gkat_automaton, kat_moore_automaton
from .learning import GkatTeacher, MooreTeacher, event_bytes, glstar, lstar_moore


@dataclass
class RunRecord:
    algorithm: str
    n_tests: int
    membership_queries: int
    zero_filled: int
    equivalence_queries: int
    hypothesis_states: int
    wall_ms: int


CSV_COLUMNS = [f.name for f in fields(RunRecord)]


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _algos(args) -> Tuple[str, ...]:
    return ("glstar", "lstar") if args.algo == "both" else (args.algo,)


def _run_one(algo, target, tests, args, out_dir=None) -> RunRecord:
    """Run one learner against a target; `wall_ms` times it with its files.

    Learner events are observed only when there is an `out_dir`: each
    table snapshot is written at its `hypothesis` and, with `args.trace`,
    each event's trace bytes as it arrives; a learner that raises leaves
    them closed and complete. Without the trace no event is formatted.
    """
    def on_event(kind, payload, table):
        if trace is not None:
            trace.writelines((event_bytes(kind, payload, table), b"\n"))
        if kind == "hypothesis":  # numbered by the hypotheses made so far
            name = "%s_table_%d.csv" % (algo, len(table.stats.hypothesis_sizes))
            (out_dir / name).write_text(table.csv_text(), encoding="utf-8", newline="")

    observe = None if out_dir is None else on_event
    actions = args.actions
    traced = out_dir is not None and args.trace
    with open(out_dir / ("%s_trace.log" % algo), "wb") if traced else nullcontext() as trace:
        start = time.perf_counter()
        if algo == "glstar":
            aut, stats = glstar(GkatTeacher(target), tests, actions, cx_mode=args.cx,
                                zero_fill=args.zero_fill, on_event=observe)
            to_dot = gkat_dot
        else:
            aut, stats = lstar_moore(MooreTeacher(target), tests, actions, on_event=observe)
            to_dot = moore_dot
        wall_ms = int(round((time.perf_counter() - start) * 1000))

    if out_dir is not None:
        (out_dir / ("%s.dot" % algo)).write_text(to_dot(aut), encoding="utf-8")
    return RunRecord(algo, len(tests), stats.membership_queries, stats.zero_filled,
                     stats.equivalence_queries, aut.n_states, wall_ms)


def cmd_learn(args) -> int:
    tests = TestSet(args.tests)
    atoms(tests)  # exit 3 before parsing when there are too many atoms
    target = gkat_automaton(parse_exp(args.expr, tests, args.actions), tests, args.actions)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for algo in _algos(args):
        record = _run_one(algo, target, tests, args, out_dir)
        records.append(record)
        print("%s: %d states, %d membership queries (%d deduced), "
              "%d equivalence queries"
              % (algo, record.hypothesis_states, record.membership_queries,
                 record.zero_filled, record.equivalence_queries))
    _write_csv(out_dir / "stats.csv", CSV_COLUMNS, map(astuple, records))
    return 0


def cmd_compare(args) -> int:
    if args.sweep < 1:
        raise ValueError("sweep must be at least 1")
    if args.sweep > len(args.tests):
        raise ValueError(
            "sweep needs %d test names, got %d" % (args.sweep, len(args.tests))
        )
    TestSet(args.tests)  # exit 2 on any invalid name, as learn does
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for n in range(1, args.sweep + 1):
        tests = TestSet(args.tests[:n])
        atoms(tests)
        target = gkat_automaton(parse_exp(args.expr, tests, args.actions), tests, args.actions)
        for algo in _algos(args):
            record = _run_one(algo, target, tests, args)
            records.append(record)
            print("n=%d %s: %d membership, %d equivalence, %d states"
                  % (n, algo, record.membership_queries, record.equivalence_queries,
                     record.hypothesis_states))
    _write_csv(out_dir / "compare.csv", CSV_COLUMNS, map(astuple, records))
    return 0


def cmd_equiv(args) -> int:
    tests = TestSet(args.tests)
    e1 = parse_exp(args.expr, tests, args.actions)
    e2 = parse_exp(args.expr2, tests, args.actions)
    # the shortlex-least separating string depends only on the languages,
    # so the search runs on the derivative machines as built
    witness = moore_difference_gs(gkat_automaton(e1, tests, args.actions),
                                  gkat_automaton(e2, tests, args.actions))
    if witness is None:
        print("equivalent")
        return 0
    print("inequivalent; witness: %s" % witness)
    return 1


def cmd_words(args) -> int:
    tests = TestSet(args.tests)
    e = parse_exp(args.expr, tests, args.actions)
    if args.max_actions < 0:
        raise ValueError("the action bound must be non-negative, got %d" % args.max_actions)
    for w in automaton_words(gkat_automaton(e, tests, args.actions), args.max_actions):
        print(str(w))
    return 0


def _names(raw: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkat",
        description="Learn, compare, and compare-for-equivalence guarded programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, expr2=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--expr", required=True, help="program text")
        if expr2:
            p.add_argument("--expr2", required=True, help="second program text")
        p.add_argument("--tests", required=True, type=_names,
                       help="comma-separated test names")
        p.add_argument("--actions", required=True, type=_names,
                       help="comma-separated action names")
        return p

    def learner_options(p, algo):
        p.add_argument("--algo", choices=("glstar", "lstar", "both"), default=algo)
        p.add_argument("--cx", choices=("suffix", "optimized"), default="suffix")
        p.add_argument("--zero-fill", action="store_true")

    learn = command("learn", "learn an automaton from an expression")
    learner_options(learn, "glstar")
    learn.add_argument("--out-dir", default="gkat_out")
    learn.add_argument("--trace", action="store_true")

    compare = command("compare", "sweep the test count, tally queries")
    learner_options(compare, "both")
    compare.add_argument("--sweep", type=int, default=1)
    compare.add_argument("--out-dir", default="gkat_out")
    compare.set_defaults(trace=False)

    command("equiv", "decide equivalence of two expressions", expr2=True)

    words = command("words", "list the words of an expression up to an action bound")
    words.add_argument("--max-actions", type=int, default=3)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (CapacityError, RecursionError, MemoryError) as exc:
        # no CLI path recurses per nested block; the catch stays as a backstop
        reason = str(exc) or type(exc).__name__
        print("capacity exceeded: %s" % reason, file=sys.stderr)
        return 3
    except (InternalInconsistencyError, NotClosedError, NotNormalError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
