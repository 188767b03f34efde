import csv
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gkat import (
    Atom,
    GkatTeacher,
    GuardedString,
    IfThenElse,
    MooreTeacher,
    TestSet,
    bisimilar,
    embed_kat,
    embed_moore,
    exp_to_str,
    format_event,
    gkat_automaton,
    gkat_dot,
    glstar,
    is_normal,
    isomorphic,
    kat_moore_automaton,
    lstar_moore,
    minimize,
    moore_difference_gs,
    normalize,
)
import gkat.cli
import gkat.language
import gkat.learning
from gkat.cli import CSV_COLUMNS, main
from gkat.syntax import MACRON
from helpers import (
    csv_from_scratch,
    format_event_from_scratch,
    mutant,
    rand_bexp,
    rand_exp,
    rand_normal_automaton,
)

WHILE_PROG = "(while b do do p); do q"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def drop_wall(rows):
    return [row[:-1] for row in rows]


def test_learn_both_writes_artifacts(tmp_path, capsys):
    rc = main(
        [
            "learn",
            "--expr",
            WHILE_PROG,
            "--tests",
            "b",
            "--actions",
            "p,q",
            "--algo",
            "both",
            "--trace",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "glstar: 2 states, 36 membership queries (0 deduced), 2 equivalence queries" in out
    assert "lstar: 3 states, 78 membership queries (0 deduced), 2 equivalence queries" in out

    for name in (
        "glstar.dot",
        "lstar.dot",
        "glstar_trace.log",
        "lstar_trace.log",
        "glstar_table_1.csv",
        "glstar_table_2.csv",
        "lstar_table_1.csv",
        "lstar_table_2.csv",
        "stats.csv",
    ):
        assert (tmp_path / name).exists(), name

    rows = read_csv(tmp_path / "stats.csv")
    assert rows[0] == CSV_COLUMNS
    assert drop_wall(rows[1:]) == [
        ["glstar", "1", "36", "0", "2", "2"],
        ["lstar", "1", "78", "0", "2", "3"],
    ]

    trace = (tmp_path / "glstar_trace.log").read_text(encoding="utf-8").splitlines()
    assert trace[0] == "COLUMNS {b̄, b}"
    assert trace[-1] == "EQUIV → Yes"
    assert "EQUIV → No(bpb̄qb̄)" in trace

    dot = (tmp_path / "glstar.dot").read_text(encoding="utf-8")
    assert 'label="b̄ | q"' in dot

    final_table = read_csv(tmp_path / "glstar_table_2.csv")
    assert final_table[0] == ["row", "b̄", "b", "bpb̄qb̄", "b̄qb̄"]
    assert final_table[1] == ["ε *", "0", "0", "1", "1"]


def test_learn_zero_fill(tmp_path):
    rc = main(
        [
            "learn",
            "--expr",
            WHILE_PROG,
            "--tests",
            "b",
            "--actions",
            "p,q",
            "--zero-fill",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "stats.csv")
    assert drop_wall(rows[1:]) == [["glstar", "1", "16", "20", "2", "2"]]


def test_learn_trivial_program(tmp_path, capsys):
    rc = main(
        [
            "learn",
            "--expr",
            "assert 0",
            "--tests",
            "b",
            "--actions",
            "p",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert "glstar: 1 states" in capsys.readouterr().out
    assert (tmp_path / "glstar_table_1.csv").exists()
    assert not (tmp_path / "glstar_table_2.csv").exists()


def test_learn_optimized_mode(tmp_path):
    rc = main(
        [
            "learn",
            "--expr",
            WHILE_PROG,
            "--tests",
            "b",
            "--actions",
            "p,q",
            "--cx",
            "optimized",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "stats.csv")
    assert drop_wall(rows[1:]) == [["glstar", "1", "28", "0", "2", "2"]]


def test_compare_sweep(tmp_path, capsys):
    args = [
        "compare",
        "--expr",
        "(while t1 do do p1); do p2",
        "--tests",
        "t1,t2",
        "--actions",
        "p1,p2",
        "--sweep",
        "2",
        "--out-dir",
        str(tmp_path),
    ]
    assert main(args) == 0
    assert "n=2 lstar: 300 membership" in capsys.readouterr().out
    rows = read_csv(tmp_path / "compare.csv")
    assert drop_wall(rows[1:]) == [
        ["glstar", "1", "36", "0", "2", "2"],
        ["lstar", "1", "78", "0", "2", "3"],
        ["glstar", "2", "102", "0", "2", "2"],
        ["lstar", "2", "300", "0", "2", "3"],
    ]


def test_compare_is_deterministic(tmp_path):
    args = [
        "compare",
        "--expr",
        "(while t1 do do p1); do p2",
        "--tests",
        "t1,t2",
        "--actions",
        "p1,p2",
        "--sweep",
        "2",
    ]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    first = drop_wall(read_csv(tmp_path / "a" / "compare.csv"))
    second = drop_wall(read_csv(tmp_path / "b" / "compare.csv"))
    assert first == second


def test_compare_sweep_needs_enough_tests(capsys):
    rc = main(
        [
            "compare",
            "--expr",
            "do p",
            "--tests",
            "t1",
            "--actions",
            "p",
            "--sweep",
            "3",
        ]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


DEAD_LOOP = "while b do (do p; assert 0)"  # its machine steps into a dead state


def test_equiv_equal(capsys):
    rc = main(
        [
            "equiv",
            "--expr",
            "if b then do p else do p",
            "--expr2",
            "do p",
            "--tests",
            "b",
            "--actions",
            "p,q",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "equivalent"
    argv = ["equiv", "--expr", DEAD_LOOP, "--expr2", "assert not b",
            "--tests", "b", "--actions", "p,q"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_equiv_loop_unrolling(capsys):
    rc = main(
        [
            "equiv",
            "--expr",
            WHILE_PROG,
            "--expr2",
            "if b then do p; ((while b do do p); do q) else do q",
            "--tests",
            "b",
            "--actions",
            "p,q",
        ]
    )
    assert rc == 0


def test_equiv_different(capsys):
    rc = main(
        [
            "equiv",
            "--expr",
            "do p",
            "--expr2",
            "do q",
            "--tests",
            "b",
            "--actions",
            "p,q",
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("inequivalent; witness: ")
    assert "b̄pb̄" in out
    argv = ["equiv", "--expr", DEAD_LOOP, "--expr2", "assert 1",
            "--tests", "b", "--actions", "p,q"]
    assert main(argv) == 1
    assert capsys.readouterr().out == "inequivalent; witness: b\n"


def test_parse_error_exit_code(capsys):
    rc = main(
        [
            "equiv",
            "--expr",
            "do p; ",
            "--expr2",
            "do p",
            "--tests",
            "b",
            "--actions",
            "p",
        ]
    )
    assert rc == 2
    assert "parse error" in capsys.readouterr().err


def test_undeclared_action_is_parse_error(capsys):
    rc = main(
        ["words", "--expr", "do r", "--tests", "b", "--actions", "p,q"]
    )
    assert rc == 2


def test_words_output(capsys):
    rc = main(
        [
            "words",
            "--expr",
            WHILE_PROG,
            "--tests",
            "b",
            "--actions",
            "p,q",
            "--max-actions",
            "2",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "b̄qb̄",
        "b̄qb",
        "bpb̄qb̄",
        "bpb̄qb",
    ]


def test_words_past_the_word_limit_print_nothing(monkeypatch, capsys):
    """A language of more than WORD_LIMIT words exits 3 before any word is
    printed."""
    monkeypatch.setattr(gkat.language, "WORD_LIMIT", 3)
    rc = main(["words", "--expr", WHILE_PROG, "--tests", "b", "--actions", "p,q",
               "--max-actions", "2"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert "capacity" in captured.err


def test_words_under_a_huge_action_bound(capsys):
    """A finite language is listed whatever the bound; an infinite one exits
    3 once its count passes WORD_LIMIT, without printing."""
    argv = ["words", "--tests", "b", "--actions", "p", "--max-actions", "1000000000"]
    assert main(argv + ["--expr", "do p"]) == 0
    neg = "b" + MACRON
    assert capsys.readouterr().out.splitlines() == [neg + "p" + neg, neg + "pb",
                                                    "bp" + neg, "bpb"]
    assert main(argv + ["--expr", "while b do do p"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "capacity" in captured.err


def test_capacity_exit_code(tmp_path, capsys):
    tests = ",".join("t%d" % i for i in range(21))
    rc = main(
        [
            "learn",
            "--expr",
            "do p",
            "--tests",
            tests,
            "--actions",
            "p",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 3
    assert "capacity" in capsys.readouterr().err


def _nested_loops(k, last):
    return "; ".join(["while b do do p"] * k) + "; do " + last


def _equiv_deep(e1, e2):
    return main(
        ["equiv", "--expr", e1, "--expr2", e2, "--tests", "b", "--actions", "p,q,r"]
    )


def test_deep_equiv_never_reports_inequivalent(capsys):
    """300 nested loops are decided, not cut off by the interpreter stack."""
    deep = _nested_loops(300, "q")
    assert _equiv_deep(deep, deep) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_deep_equiv_witness(capsys):
    """Sequenced loops get a verdict, and the witness, at every depth the
    parser takes."""
    neg = "b" + MACRON
    for k in (300, 1_000, 5_000):
        assert _equiv_deep(_nested_loops(k, "q"), _nested_loops(k, "q")) == 0
        assert capsys.readouterr().out == "equivalent\n"
        assert _equiv_deep(_nested_loops(k, "q"), _nested_loops(k, "r")) == 1
        assert capsys.readouterr().out == "inequivalent; witness: %s%sq%s\n" % (
            "bp" * k,
            neg,
            neg,
        )


DEEP_BLOCKS = {
    "ifs": lambda k, last: "if b then " * k + "do " + last + " else do q" * k,
    "loops in parentheses":
        lambda k, last: "while b do (" * k + "do " + last + ")" * k + "; do q",
}


def test_deep_blocks_get_a_verdict(capsys):
    """Nested branches and loops nested in parentheses get equiv's verdict
    and witness, and their words, at 1,000 and 5,000 deep: the derivative
    construction keeps its own stack."""
    neg = "b" + MACRON
    witness = {"ifs": "bp" + neg, "loops in parentheses": "bp%sq%s" % (neg, neg)}
    words = {"ifs": [neg + "q" + neg, neg + "qb", "bp" + neg, "bpb"],
             "loops in parentheses": [neg, "bp%sq%s" % (neg, neg)]}
    for k in (1_000, 5_000):
        for name, deep in DEEP_BLOCKS.items():
            assert _equiv_deep(deep(k, "p"), deep(k, "p")) == 0, (name, k)
            assert capsys.readouterr().out == "equivalent\n"
            assert _equiv_deep(deep(k, "p"), deep(k, "r")) == 1, (name, k)
            assert capsys.readouterr().out == "inequivalent; witness: %s\n" % witness[name]
            assert main(["words", "--expr", deep(k, "p"), "--tests", "b",
                         "--actions", "p,q", "--max-actions", "2"]) == 0, (name, k)
            assert capsys.readouterr().out.splitlines() == words[name], (name, k)


DEEP_NOTS = "not " * 5_000 + "b"


def test_5000_negations_get_verdicts(tmp_path, capsys):
    """Guard evaluation keeps its own stack: a guard of 5,000 negations
    gets equiv's verdicts and witness, and words, learn --algo both and
    compare answer for it as they do for the guard b it equals."""
    loop = "while %s do do %s"
    assert _equiv_deep(loop % (DEEP_NOTS, "p"), loop % (DEEP_NOTS, "p")) == 0
    assert capsys.readouterr().out == "equivalent\n"
    assert _equiv_deep(loop % (DEEP_NOTS, "p"), loop % (DEEP_NOTS, "q")) == 1
    assert capsys.readouterr().out == "inequivalent; witness: bp%s\n" % ("b" + MACRON)
    base = ["--tests", "b", "--actions", "p,q"]
    commands = {
        "words": (["words", "--max-actions", "2"] + base, None),
        "learn": (["learn", "--algo", "both"] + base, "stats.csv"),
        "compare": (["compare"] + base, "compare.csv"),
    }
    for command, (argv, csv_name) in commands.items():
        answers = []
        for name, guard in (("b", "b"), ("deep", DEEP_NOTS)):
            out_dir = tmp_path / command / name
            extra = ["--out-dir", str(out_dir)] if csv_name else []
            assert main(argv + extra + ["--expr", loop % (guard, "p")]) == 0, command
            answer = [capsys.readouterr().out]
            if csv_name:
                answer.append(drop_wall(read_csv(out_dir / csv_name)))
            answers.append(answer)
        assert answers[0] == answers[1], command


def test_deep_blocks_are_a_capacity_limit_past_the_derivative(tmp_path, capsys):
    """The layer that still recurses per nested block, the KAT route behind
    L* and compare, exits 3 on 1,000 nested branches or parenthesized loops,
    without a traceback."""
    base = ["--tests", "b", "--actions", "p,q", "--out-dir", str(tmp_path)]
    commands = {
        "lstar": ["learn", "--algo", "lstar"] + base,
        "compare": ["compare"] + base,
    }
    for name, deep in DEEP_BLOCKS.items():
        for command, argv in commands.items():
            assert main(argv + ["--expr", deep(1_000, "p")]) == 3, (name, command)
            err = capsys.readouterr().err
            assert "capacity" in err, (name, command)
            assert "Traceback" not in err, (name, command)


def _equiv_by_minimization(a1, a2):
    """Verdict and witness by the earlier route: minimize both sides, test
    isomorphism, and take the witness from bisimilar."""
    m1, m2 = minimize(a1), minimize(a2)
    if isomorphic(m1, m2)[0]:
        return None
    return bisimilar(m1, m1.initial, m2, m2.initial)[1]


def test_equiv_agrees_with_minimization_route(capsys):
    """`equiv` on programs that agree except under one guard, and the
    difference search on automata that differ in one entry, give the
    verdicts and witnesses of the minimization route."""
    rng = random.Random(218)
    actions = ("p", "q")
    for trial in range(200):
        tests = TestSet(("b", "c")[: 1 + trial % 2])
        e1 = rand_exp(rng, tests, actions, 3)
        e2 = IfThenElse(rand_bexp(rng, tests, 2), e1, rand_exp(rng, tests, actions, 3))
        rc = main(["equiv", "--expr", exp_to_str(e1), "--expr2", exp_to_str(e2),
                   "--tests", ",".join(tests.tests), "--actions", ",".join(actions)])
        out = capsys.readouterr().out
        auts = [normalize(gkat_automaton(e, tests, actions)) for e in (e1, e2)]
        witness = _equiv_by_minimization(*auts)
        if witness is None:
            assert (rc, out) == (0, "equivalent\n")
        else:
            assert (rc, out) == (1, "inequivalent; witness: %s\n" % witness)

        a1 = rand_normal_automaton(rng, tests, actions, 6)
        a2 = mutant(rng, a1)
        assert moore_difference_gs(embed_moore(a1), embed_moore(a2)) == (
            _equiv_by_minimization(a1, a2)
        )


def _glstar_record(target, tests, actions, cx_mode, zero_fill):
    """Everything `learn` writes from one GL* run against target: the trace
    lines, the table snapshots, the DOT text and the query statistics."""
    lines, snapshots = [], []

    def on_event(kind, payload, table):
        lines.append(format_event(kind, payload))
        if kind == "hypothesis":
            snapshots.append(table.snapshot())

    aut, stats = glstar(GkatTeacher(target), tests, actions, cx_mode=cx_mode,
                        zero_fill=zero_fill, on_event=on_event)
    return lines, snapshots, gkat_dot(aut), stats


def test_answers_depend_only_on_the_language(capsys):
    """`equiv`'s witness and everything GL* learns from a teacher are the
    same on a derivative machine as built and on its normal form, which
    sends steps into dead states to the implicit sink instead."""
    rng = random.Random(5)
    actions = ("p", "q")
    modes = [(cx, zero) for cx in ("suffix", "optimized") for zero in (False, True)]
    not_normal = 0
    for trial in range(300):
        tests = TestSet(("b", "c")[: 1 + trial % 2])
        e = rand_exp(rng, tests, actions, 4)
        raw = gkat_automaton(e, tests, actions)
        normal = normalize(raw)
        not_normal += not is_normal(raw)
        assert moore_difference_gs(raw, normal) is None
        fresh = rand_exp(rng, tests, actions, 4)
        guarded = IfThenElse(rand_bexp(rng, tests, 2), e, fresh)
        for other in (fresh, guarded):
            other_raw = gkat_automaton(other, tests, actions)
            witness = moore_difference_gs(normal, normalize(other_raw))
            assert moore_difference_gs(raw, other_raw) == witness
            rc = main(["equiv", "--expr", exp_to_str(e), "--expr2", exp_to_str(other),
                       "--tests", ",".join(tests.tests), "--actions", ",".join(actions)])
            out = capsys.readouterr().out
            if witness is None:
                assert (rc, out) == (0, "equivalent\n")
            else:
                assert (rc, out) == (1, "inequivalent; witness: %s\n" % witness)
        for cx_mode, zero_fill in modes:
            assert _glstar_record(raw, tests, actions, cx_mode, zero_fill) == (
                _glstar_record(normal, tests, actions, cx_mode, zero_fill)
            ), (exp_to_str(e), cx_mode, zero_fill)
    assert not_normal >= 30  # at least 10% of the machines step into a dead state


def test_main_runs_a_command_patched_between_calls(monkeypatch, capsys):
    """The parser is built once per process, yet each call of `main` runs
    the command bound to its name at that moment."""
    argv = ["equiv", "--expr", "do p", "--expr2", "do p", "--tests", "b",
            "--actions", "p"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "equivalent\n"
    seen = []
    monkeypatch.setattr(gkat.cli, "cmd_equiv", lambda args: seen.append(args) or 7)
    assert main(argv) == 7
    assert [(a.command, a.expr, a.expr2) for a in seen] == [("equiv", "do p", "do p")]
    assert capsys.readouterr().out == ""


def test_usage_error_is_systemexit():
    with pytest.raises(SystemExit) as info:
        main(["learn", "--tests", "b", "--actions", "p"])
    assert info.value.code == 2


def test_compare_has_no_trace_option():
    with pytest.raises(SystemExit) as info:
        main(["compare", "--expr", "do p", "--tests", "b", "--actions", "p", "--trace"])
    assert info.value.code == 2


def _exit_code(argv):
    """main's exit code, argparse's usage errors included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_exit_code_contract(tmp_path, capsys):
    """Bad arguments end with exit 0, 1, 2 or 3 and a message, never a
    traceback; an unwritable output directory and a negative action bound
    are bad input."""
    (tmp_path / "f").write_text("", encoding="utf-8")
    unwritable = str(tmp_path / "f" / "sub")
    base = ["--expr", "do p", "--tests", "b", "--actions", "p"]
    assert _exit_code(["learn"] + base + ["--out-dir", unwritable]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert _exit_code(["words"] + base + ["--max-actions", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""

    rng = random.Random(707)

    def pick(good, bad):
        return rng.choice(good if rng.random() < 0.7 else bad)

    exprs = (["do p", "while b do do p", "if b then do p else do q"],
             ["do r", "assert c", "while b do", "(do p", "",
              DEEP_BLOCKS["ifs"](1_000, "p"), "assert " + DEEP_NOTS])
    for _ in range(100):
        command = rng.choice(["learn", "compare", "equiv", "words"])
        argv = [command, "--expr", pick(*exprs),
                "--tests", pick(["b", "b,c"], ["", ",", "b,b", "b c", "1b",
                                               ",".join("t%d" % i for i in range(21))]),
                "--actions", pick(["p,q", "q,p"], ["", "p", "p,p", "q r"])]
        if command == "equiv":
            argv += ["--expr2", pick(*exprs)]
        if command == "words":
            argv += ["--max-actions", pick(["0", "2"], ["-1", "x"])]
        if command in ("learn", "compare"):
            argv += ["--out-dir", pick([str(tmp_path / "out")], [unwritable])]
        if command == "compare":
            argv += ["--sweep", pick(["1", "2"], ["-2", "0", "3"])]
        code = _exit_code(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err
        assert code in (0, 1) or err, argv


def test_sweep_must_be_positive(tmp_path, capsys):
    rc = main(["compare", "--expr", "do p", "--tests", "b", "--actions", "p",
               "--sweep", "0", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: sweep must be at least 1\n"


def test_events_are_formatted_only_for_a_trace(tmp_path, monkeypatch, capsys):
    """Neither compare nor learn without --trace formats a learner event."""

    def refuse(kind, payload):
        raise AssertionError("formatted a %s event" % kind)

    monkeypatch.setattr(gkat.cli, "format_event", refuse)
    base = ["--expr", WHILE_PROG, "--tests", "b,c", "--actions", "p,q",
            "--out-dir", str(tmp_path)]
    assert main(["compare"] + base + ["--sweep", "2"]) == 0
    assert main(["learn"] + base + ["--algo", "both"]) == 0
    assert capsys.readouterr().err == ""


def test_trace_builds_no_query_word(tmp_path, monkeypatch, capsys):
    """With the built-in teachers, a traced learn renders each ask's QUERY
    lines from its row and columns: it never joins a per-query guarded
    string, and its trace files match a run that could."""
    argv = ["learn", "--expr", WHILE_PROG, "--tests", "b,c", "--actions", "p,q",
            "--algo", "both", "--trace", "--zero-fill", "--cx", "optimized"]
    assert main(argv + ["--out-dir", str(tmp_path / "joined")]) == 0

    def refuse(word, tail):
        raise AssertionError("joined %s" % (tail,))

    monkeypatch.setattr(gkat.learning, "join", refuse)
    assert main(argv + ["--out-dir", str(tmp_path / "rows")]) == 0
    assert capsys.readouterr().err == ""
    for name in ("glstar_trace.log", "lstar_trace.log"):
        assert (tmp_path / "rows" / name).read_bytes() == (
            tmp_path / "joined" / name
        ).read_bytes(), name


def test_trace_changes_no_other_file(tmp_path):
    """learn writes the same DOT, table CSVs and stats rows with and without
    --trace, in every learner mode; the trace adds only the trace logs.
    Both modes ask the teachers the same way and observe the same events;
    only the trace formats them."""
    modes = [("b", []), ("b,c", ["--zero-fill"]), ("b,c", ["--cx", "optimized"]),
             ("b,c", ["--zero-fill", "--cx", "optimized"])]
    for i, (tests, extra) in enumerate(modes):
        base = ["learn", "--expr", WHILE_PROG, "--tests", tests, "--actions", "p,q",
                "--algo", "both"] + extra
        plain, traced = tmp_path / ("plain%d" % i), tmp_path / ("traced%d" % i)
        assert main(base + ["--out-dir", str(plain)]) == 0
        assert main(base + ["--trace", "--out-dir", str(traced)]) == 0
        names = sorted(f.name for f in plain.iterdir())
        assert sorted(f.name for f in traced.iterdir()) == sorted(
            names + ["glstar_trace.log", "lstar_trace.log"]
        )
        for name in names:
            if name == "stats.csv":
                assert drop_wall(read_csv(plain / name)) == drop_wall(
                    read_csv(traced / name)
                )
            else:
                assert (plain / name).read_bytes() == (traced / name).read_bytes(), name


def _artifacts_from_scratch(e, tests, actions, algo, cx, zero_fill):
    """The trace text and table CSVs of one learner run as `learn` wrote
    them before it kept rendered text: every QUERY line concatenated on its
    own, every table through `csv.writer` from freshly rendered rows."""
    lines, tables = [], []

    def on_event(kind, payload, table):
        lines.append(format_event_from_scratch(kind, payload))
        if kind == "hypothesis":
            tables.append(csv_from_scratch(table))

    if algo == "glstar":
        glstar(GkatTeacher(gkat_automaton(e, tests, actions)), tests, actions,
               cx_mode=cx, zero_fill=zero_fill, on_event=on_event)
    else:
        lstar_moore(MooreTeacher(kat_moore_automaton(embed_kat(e), tests, actions)),
                    tests, actions, on_event=on_event)
    return "\n".join(lines) + "\n", tables


def test_learn_artifacts_equal_the_from_scratch_renderers(tmp_path, monkeypatch):
    """On seeded random programs over one and two tests, in every learner
    mode, the trace and every table CSV that `learn` writes equal the
    from-scratch renderers' byte for byte. This holds on the built-in row
    walks and with `membership` wrapped on both teacher classes, as the
    benchmark's tracer does: then every row crosses to the teacher as a
    letter word, and the wrapper gets each query as a guarded string over
    atoms, as many as `stats.csv` counts."""
    rng = random.Random(29)
    actions = ("p", "q")
    calls = []

    def counting(fn):
        def wrapper(self, w):
            calls.append(w)
            return fn(self, w)
        return wrapper

    for trial in range(10):
        tests = TestSet(("b", "c")[: 1 + trial % 2])
        e = rand_exp(rng, tests, actions, 4)
        for cx in ("suffix", "optimized"):
            for zero in (False, True):
                want = {algo: _artifacts_from_scratch(e, tests, actions, algo, cx, zero)
                        for algo in ("glstar", "lstar")}
                for wrapped in (False, True):
                    out = tmp_path / ("%d-%s-%d-%d" % (trial, cx, zero, wrapped))
                    argv = ["learn", "--expr", exp_to_str(e), "--tests", ",".join(tests.tests),
                            "--actions", ",".join(actions), "--algo", "both", "--trace",
                            "--cx", cx, "--out-dir", str(out)] + ["--zero-fill"] * zero
                    del calls[:]
                    with monkeypatch.context() as m:
                        for cls in (GkatTeacher, MooreTeacher) if wrapped else ():
                            m.setattr(cls, "membership", counting(cls.membership))
                        assert main(argv) == 0
                    asked = sum(int(row[2]) for row in read_csv(out / "stats.csv")[1:])
                    assert len(calls) == (asked if wrapped else 0)
                    assert all(type(w) is GuardedString and all(type(a) is Atom for a in w.atoms)
                               for w in calls)
                    for algo, (trace, tables) in want.items():
                        got = (out / ("%s_trace.log" % algo)).read_bytes().decode("utf-8")
                        assert got == trace, (trial, algo)
                        names = sorted(out.glob("%s_table_*.csv" % algo))
                        assert len(names) == len(tables)
                        for i, text in enumerate(tables, 1):
                            got = (out / ("%s_table_%d.csv" % (algo, i))).read_bytes()
                            assert got.decode("utf-8") == text, (trial, algo, i)


def test_compare_validates_every_test_name(tmp_path, capsys):
    rc = main(["compare", "--expr", "do p", "--tests", "b,1c", "--actions", "p",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: invalid test name: '1c'\n"
    assert not (tmp_path / "compare.csv").exists()


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "gkat", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: gkat")


def test_console_script_installed():
    exe = shutil.which("gkat")
    assert exe, "console script should be on PATH after install"
    proc = subprocess.run(
        [exe, "words", "--expr", "do p", "--tests", "b", "--actions", "p",
         "--max-actions", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["b̄pb̄", "b̄pb", "bpb̄", "bpb"]
