"""Command line front end.

Subcommands: learn (run a learner against an expression and write DOT,
per-round table CSVs, trace, stats), compare (sweep the test-set size and
tabulate query counts for both learners), equiv (decide equivalence of two
expressions by a product search over their guarded automata, unfolded into
Moore machines one state at a time), and words (dump the bounded semantics).
Exit codes: 0 success or equivalent, 1 inequivalent, 2 bad input or an
unwritable output directory, 3 capacity, 4 internal inconsistency.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import astuple, dataclass
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
from .language import denote
from .automata import (
    gkat_dot,
    moore_difference_gs,
    moore_dot,
    normalize,
)
from .construct import gkat_automaton, kat_moore_automaton
from .learning import GkatTeacher, MooreTeacher, format_event, glstar, lstar_moore

CSV_COLUMNS = [
    "algorithm",
    "n_tests",
    "membership_queries",
    "zero_filled",
    "equivalence_queries",
    "hypothesis_states",
    "wall_ms",
]


@dataclass
class ExperimentConfig:
    expr: str
    tests: Tuple[str, ...]
    actions: Tuple[str, ...]
    algo: str = "glstar"
    cx: str = "suffix"
    zero_fill: bool = False
    sweep: int = 1
    out_dir: str = "gkat_out"
    trace: bool = False

    def __post_init__(self):
        if self.sweep < 1:
            raise ValueError("sweep must be at least 1")


@dataclass
class RunRecord:
    algorithm: str
    n_tests: int
    membership_queries: int
    zero_filled: int
    equivalence_queries: int
    hypothesis_states: int
    wall_ms: int


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _run_one(algo, e, tests, actions, config, out_dir=None):
    """Run one learner against one expression; returns (record, artifacts)."""
    trace_lines = []
    tables = []

    def on_event(kind, payload, table):
        trace_lines.append(format_event(kind, payload))
        if kind == "hypothesis":
            tables.append(table.snapshot())

    start = time.perf_counter()
    if algo == "glstar":
        target = normalize(gkat_automaton(e, tests, actions))
        teacher = GkatTeacher(target)
        aut, stats = glstar(
            teacher,
            tests,
            actions,
            cx_mode=config.cx,
            zero_fill=config.zero_fill,
            on_event=on_event,
        )
        dot = gkat_dot(aut)
    elif algo == "lstar":
        target = kat_moore_automaton(embed_kat(e), tests, actions)
        teacher = MooreTeacher(target)
        aut, stats = lstar_moore(teacher, tests, actions, on_event=on_event)
        dot = moore_dot(aut)
    else:
        raise ValueError("unknown algorithm: %r" % (algo,))
    wall_ms = int(round((time.perf_counter() - start) * 1000))

    if out_dir is not None:
        (out_dir / ("%s.dot" % algo)).write_text(dot, encoding="utf-8")
        for i, (header, body) in enumerate(tables, 1):
            _write_csv(out_dir / ("%s_table_%d.csv" % (algo, i)), header, body)
        if config.trace:
            (out_dir / ("%s_trace.log" % algo)).write_text(
                "\n".join(trace_lines) + "\n", encoding="utf-8"
            )
    record = RunRecord(
        algo,
        len(tests),
        stats.membership_queries,
        stats.zero_filled,
        stats.equivalence_queries,
        aut.n_states,
        wall_ms,
    )
    return record, aut


def cmd_learn(config: ExperimentConfig) -> int:
    tests = TestSet(config.tests)
    actions = config.actions
    atoms(tests)  # exit 3 before parsing when there are too many atoms
    e = parse_exp(config.expr, tests, actions)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    algos = ("glstar", "lstar") if config.algo == "both" else (config.algo,)
    records = []
    for algo in algos:
        record, aut = _run_one(algo, e, tests, actions, config, out_dir)
        records.append(record)
        print(
            "%s: %d states, %d membership queries (%d deduced), "
            "%d equivalence queries"
            % (
                algo,
                record.hypothesis_states,
                record.membership_queries,
                record.zero_filled,
                record.equivalence_queries,
            )
        )
    _write_csv(out_dir / "stats.csv", CSV_COLUMNS, map(astuple, records))
    return 0


def cmd_compare(config: ExperimentConfig) -> int:
    if config.sweep > len(config.tests):
        raise ValueError(
            "sweep needs %d test names, got %d" % (config.sweep, len(config.tests))
        )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    algos = ("glstar", "lstar") if config.algo == "both" else (config.algo,)
    records = []
    for n in range(1, config.sweep + 1):
        tests = TestSet(config.tests[:n])
        atoms(tests)
        e = parse_exp(config.expr, tests, config.actions)
        for algo in algos:
            record, _ = _run_one(algo, e, tests, config.actions, config)
            records.append(record)
            print(
                "n=%d %s: %d membership, %d equivalence, %d states"
                % (
                    n,
                    algo,
                    record.membership_queries,
                    record.equivalence_queries,
                    record.hypothesis_states,
                )
            )
    _write_csv(out_dir / "compare.csv", CSV_COLUMNS, map(astuple, records))
    return 0


def cmd_equiv(expr1: str, expr2: str, tests: TestSet, actions: Tuple[str, ...]) -> int:
    e1 = parse_exp(expr1, tests, actions)
    e2 = parse_exp(expr2, tests, actions)
    a1 = normalize(gkat_automaton(e1, tests, actions))
    a2 = normalize(gkat_automaton(e2, tests, actions))
    # the shortlex-least separating string depends only on the languages
    witness = moore_difference_gs(a1, a2)
    if witness is None:
        print("equivalent")
        return 0
    print("inequivalent; witness: %s" % witness)
    return 1


def cmd_words(expr: str, tests: TestSet, actions: Tuple[str, ...], k: int) -> int:
    e = parse_exp(expr, tests, actions)
    lang = denote(e, k, tests, actions)
    for w in lang.sorted_words(actions):
        print(str(w))
    return 0


def _names(raw: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkat",
        description="Learn, compare, and compare-for-equivalence guarded programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, expr2=False):
        p.add_argument("--expr", required=True, help="program text")
        if expr2:
            p.add_argument("--expr2", required=True, help="second program text")
        p.add_argument("--tests", required=True, help="comma-separated test names")
        p.add_argument("--actions", required=True, help="comma-separated action names")

    learn = sub.add_parser("learn", help="learn an automaton from an expression")
    common(learn)
    learn.add_argument("--algo", choices=("glstar", "lstar", "both"), default="glstar")
    learn.add_argument("--cx", choices=("suffix", "optimized"), default="suffix")
    learn.add_argument("--zero-fill", action="store_true")
    learn.add_argument("--out-dir", default="gkat_out")
    learn.add_argument("--trace", action="store_true")

    compare = sub.add_parser("compare", help="sweep the test count, tally queries")
    common(compare)
    compare.add_argument("--algo", choices=("glstar", "lstar", "both"), default="both")
    compare.add_argument("--cx", choices=("suffix", "optimized"), default="suffix")
    compare.add_argument("--zero-fill", action="store_true")
    compare.add_argument("--sweep", type=int, default=1)
    compare.add_argument("--out-dir", default="gkat_out")

    equiv = sub.add_parser("equiv", help="decide equivalence of two expressions")
    common(equiv, expr2=True)

    words = sub.add_parser("words", help="dump the bounded semantics of an expression")
    common(words)
    words.add_argument("--max-actions", type=int, default=3)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "learn":
            config = ExperimentConfig(
                expr=args.expr,
                tests=_names(args.tests),
                actions=_names(args.actions),
                algo=args.algo,
                cx=args.cx,
                zero_fill=args.zero_fill,
                out_dir=args.out_dir,
                trace=args.trace,
            )
            return cmd_learn(config)
        if args.command == "compare":
            config = ExperimentConfig(
                expr=args.expr,
                tests=_names(args.tests),
                actions=_names(args.actions),
                algo=args.algo,
                cx=args.cx,
                zero_fill=args.zero_fill,
                sweep=args.sweep,
                out_dir=args.out_dir,
            )
            return cmd_compare(config)
        if args.command == "equiv":
            return cmd_equiv(
                args.expr,
                args.expr2,
                TestSet(_names(args.tests)),
                _names(args.actions),
            )
        if args.command == "words":
            return cmd_words(
                args.expr,
                TestSet(_names(args.tests)),
                _names(args.actions),
                args.max_actions,
            )
        raise ValueError("unknown command: %r" % (args.command,))
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (CapacityError, RecursionError, MemoryError) as exc:
        # deep nesting exhausts the interpreter stack before any explicit cap
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
