import hashlib
import random

import pytest

from gkat import (
    GkatTeacher,
    GlObservationTable,
    GuardedString,
    InternalInconsistencyError,
    LStarObservationTable,
    MooreTeacher,
    NotClosedError,
    QueryStats,
    Teacher,
    TestSet,
    atoms,
    bisimilar,
    embed_moore,
    format_event,
    gkat_automaton,
    gkat_dot,
    glstar,
    join,
    lstar_moore,
    minimize,
    minimize_moore,
    moore_dot,
    moore_isomorphic,
    normalize,
    optimized_counterexample,
    parse_exp,
    word_to_str,
)
from gkat.learning import ObservationTable
from helpers import (
    all_rows_from_scratch,
    format_event_from_scratch,
    rand_normal_automaton,
    snapshot_from_scratch,
)

T1 = TestSet(("b",))
ACTS = ("p", "q")
NEG, POS = atoms(T1)

TARGET_DELTA = ((("q", 1), ("p", 0)), (1, 1))


def loop_target():
    """Minimal automaton of 'loop on p while b, then q'."""
    e = parse_exp("(while b do do p); do q", T1, ACTS)
    return gkat_automaton(e, T1, ACTS)


def record_events():
    log = []

    def on_event(kind, payload, table):
        log.append((kind, payload))

    return log, on_event


def lines_of(log):
    """The trace lines of a log, an `answers` event giving one QUERY line
    per query."""
    return "\n".join(format_event(kind, payload) for kind, payload in log).split("\n")


def control_lines(log):
    return [
        format_event(kind, payload) for kind, payload in log if kind != "answers"
    ]


def query_kinds(log):
    """The event kinds of a log, an `answers` event counted as one `query`
    per query it answers."""
    return [
        k for kind, payload in log
        for k in (["query"] * len(payload[1]) if kind == "answers" else [kind])
    ]


# ===== the guarded learner, step by step =====

def test_glstar_full_run_trace():
    target = loop_target()
    log, on_event = record_events()
    aut, stats = glstar(GkatTeacher(target), T1, ACTS, on_event=on_event)

    assert aut.delta == TARGET_DELTA
    assert bisimilar(aut, 0, target, 0) == (1, None)
    assert stats.membership_queries == 36
    assert stats.zero_filled == 0
    assert stats.equivalence_queries == 2
    assert stats.hypothesis_sizes == [2, 2]

    kinds = query_kinds(log)
    assert kinds == (
        ["columns"]
        + ["query"] * 10
        + ["promote"]
        + ["query"] * 8
        + ["hypothesis", "equiv", "columns"]
        + ["query"] * 18
        + ["hypothesis", "equiv"]
    )
    assert control_lines(log) == [
        "COLUMNS {b̄, b}",
        "PROMOTE b̄q",
        "HYPOTHESIS 2 states",
        "EQUIV → No(bpb̄qb̄)",
        "COLUMNS {b̄, b, bpb̄qb̄, b̄qb̄}",
        "HYPOTHESIS 2 states",
        "EQUIV → Yes",
    ]
    # the first fill walks rows in order, columns within each row
    assert lines_of(log)[1:11] == [
        "QUERY b̄ → 0",
        "QUERY b → 0",
        "QUERY b̄pb̄ → 0",
        "QUERY b̄pb → 0",
        "QUERY b̄qb̄ → 1",
        "QUERY b̄qb → 1",
        "QUERY bpb̄ → 0",
        "QUERY bpb → 0",
        "QUERY bqb̄ → 0",
        "QUERY bqb → 0",
    ]


def test_glstar_table_milestones():
    """Drive the table by hand through the same run."""
    target = loop_target()
    teacher = GkatTeacher(target)
    stats = QueryStats()
    table = GlObservationTable(T1, ACTS, teacher, stats)
    table.fill()

    unmatched = table.unclosed_row()
    assert table.word(unmatched) == ((NEG, "q"),)
    with pytest.raises(NotClosedError):
        table.hypothesis()

    table.close()
    assert [word_to_str(table.word(s)) for s in table.S] == ["ε", "b̄q"]
    hyp = table.hypothesis()
    assert hyp.n_states == 2
    assert hyp.delta[0][POS.bits] == 0  # loop atom wrongly rejects so far

    z = teacher.equivalence(hyp)
    assert str(z) == "bpb̄qb̄"
    old_columns = list(table.E)
    table.add_counterexample(z)
    assert [str(e) for e in table.E] == ["b̄", "b", "bpb̄qb̄", "b̄qb̄"]

    # the new columns close the table immediately, yet change row(ε):
    # zero in every old column, one under both new suffixes
    assert table.unclosed_row() is None
    assert table.cells[()][: len(old_columns)] == [0] * len(old_columns)
    assert table.cells[()][2] == 1
    fixed = table.hypothesis()
    assert fixed.delta == TARGET_DELTA
    assert stats.membership_queries == 36


def test_glstar_optimized_counterexample():
    target = loop_target()
    teacher = GkatTeacher(target)
    stats = QueryStats()
    table = GlObservationTable(T1, ACTS, teacher, stats)
    table.fill()
    table.close()
    hyp = table.hypothesis()
    z = teacher.equivalence(hyp)
    before = stats.membership_queries

    shrunk = optimized_counterexample(table, z, hyp)
    assert str(shrunk) == "b̄qb̄"
    # the longer split dies during hypothesis replay, so only one probe
    assert stats.membership_queries == before + 1


def test_glstar_optimized_full_run():
    target = loop_target()
    log, on_event = record_events()
    aut, stats = glstar(
        GkatTeacher(target), T1, ACTS, cx_mode="optimized", on_event=on_event
    )
    assert aut.delta == TARGET_DELTA
    assert stats.membership_queries == 28
    assert control_lines(log) == [
        "COLUMNS {b̄, b}",
        "PROMOTE b̄q",
        "HYPOTHESIS 2 states",
        "EQUIV → No(bpb̄qb̄)",
        "COLUMNS {b̄, b, b̄qb̄}",
        "HYPOTHESIS 2 states",
        "EQUIV → Yes",
    ]


def test_glstar_zero_fill_deduces_without_asking():
    target = loop_target()
    teacher = GkatTeacher(target)
    aut, stats = glstar(teacher, T1, ACTS, zero_fill=True)
    assert aut.delta == TARGET_DELTA
    assert stats.membership_queries == 16
    assert stats.zero_filled == 20
    assert stats.membership_queries + stats.zero_filled == 36


def test_zero_fill_audit():
    """Every deduced cell holds the value the teacher would have given."""
    target = loop_target()
    teacher = GkatTeacher(target)
    stats = QueryStats()
    table = GlObservationTable(T1, ACTS, teacher, stats, zero_fill=True)
    table.fill()
    table.close()
    z = teacher.equivalence(table.hypothesis())
    table.add_counterexample(z)
    assert table.deduced
    for t, i in table.deduced:
        assert table.cells[t][i] == 0
        assert teacher.membership(join(table.word(t), table.E[i])) == 0


def test_glstar_rejects_unknown_mode():
    with pytest.raises(ValueError):
        glstar(GkatTeacher(loop_target()), T1, ACTS, cx_mode="fancy")


def test_hypothesis_reports_duplicate_upper_rows():
    target = loop_target()
    stats = QueryStats()
    table = GlObservationTable(T1, ACTS, GkatTeacher(target), stats)
    table.fill()
    table.close()
    table.promote((table.letters.index((POS, "p")),))  # same row as the empty word
    with pytest.raises(InternalInconsistencyError):
        table.hypothesis()


class _ChaosTeacher(Teacher):
    """Answers yes to every word; not a guarded language. Defines only
    `membership`, and keeps every word it is asked."""

    def __init__(self):
        self.asked = []

    def membership(self, w):
        self.asked.append(w)
        return 1

    def equivalence(self, hypothesis):
        return None


def test_hypothesis_reports_branching_observations():
    stats = QueryStats()
    table = GlObservationTable(T1, ACTS, _ChaosTeacher(), stats)
    table.fill()
    table.close()
    with pytest.raises(InternalInconsistencyError):
        table.hypothesis()


class _StuckTeacher(GkatTeacher):
    """Keeps returning the same counterexample after convergence."""

    def __init__(self, target, broken_record):
        super().__init__(target)
        self.broken_record = broken_record

    def equivalence(self, hypothesis):
        return self.broken_record


def test_equivalence_cap_stops_a_stuck_run():
    target = loop_target()
    z = GuardedString((POS, NEG, NEG), ("p", "q"))
    with pytest.raises(InternalInconsistencyError):
        glstar(_StuckTeacher(target, z), T1, ACTS)


# ===== the letter-word learner =====

def test_lstar_full_run_trace():
    target = loop_target()
    moore_target = minimize_moore(embed_moore(target))
    log, on_event = record_events()
    result, stats = lstar_moore(
        MooreTeacher(moore_target), T1, ACTS, on_event=on_event
    )

    assert result.n_states == 3
    assert result.delta == ((2, 1, 0, 2), (2, 2, 2, 2), (2, 2, 2, 2))
    assert result.outputs == ((0, 0), (1, 1), (0, 0))
    assert moore_isomorphic(result, moore_target)[0] == 1
    assert stats.membership_queries == 78
    assert stats.equivalence_queries == 2
    assert stats.hypothesis_sizes == [2, 3]

    kinds = query_kinds(log)
    assert kinds == (
        ["columns"]
        + ["query"] * 10
        + ["promote"]
        + ["query"] * 8
        + ["hypothesis", "equiv", "columns"]
        + ["query"] * 36
        + ["promote"]
        + ["query"] * 24
        + ["hypothesis", "equiv"]
    )
    assert control_lines(log) == [
        "COLUMNS {ε}",
        "PROMOTE b̄q",
        "HYPOTHESIS 2 states",
        "EQUIV → No(b̄pb̄q)",
        "COLUMNS {ε, b̄pb̄q, b̄q}",
        "PROMOTE b̄p",
        "HYPOTHESIS 3 states",
        "EQUIV → Yes",
    ]


def test_lstar_not_closed_error():
    target = loop_target()
    moore_target = minimize_moore(embed_moore(target))
    stats = QueryStats()
    table = LStarObservationTable(T1, ACTS, MooreTeacher(moore_target), stats)
    table.fill()
    with pytest.raises(NotClosedError):
        table.hypothesis()


# ===== teachers =====

def test_gkat_teacher_membership_and_equivalence():
    target = loop_target()
    teacher = GkatTeacher(target)
    assert teacher.membership(GuardedString((NEG, POS), ("q",))) == 1
    assert teacher.membership(GuardedString((POS, POS), ("q",))) == 0
    assert teacher.equivalence(target) is None

    from gkat import GkatAutomaton

    silent = GkatAutomaton(T1, ACTS, ((0, 0),), 0)
    z = teacher.equivalence(silent)
    assert str(z) == "b̄qb̄"
    assert teacher.membership(z) == 1


def test_moore_teacher():
    target = minimize_moore(embed_moore(loop_target()))
    teacher = MooreTeacher(target)
    assert teacher.membership(GuardedString((NEG, NEG), ("q",))) == 1
    assert teacher.equivalence(target) is None


# ===== row answers =====

def _rand_word(rng, ats, length):
    return tuple((rng.choice(ats), rng.choice(ACTS)) for _ in range(length))


def _rand_gs(rng, ats):
    n = rng.randint(0, 3)
    return GuardedString(
        tuple(rng.choice(ats) for _ in range(n + 1)),
        tuple(rng.choice(ACTS) for _ in range(n)),
    )


class _PerCell(Teacher):
    """The per-cell fallback of `Teacher` on another teacher's membership."""

    def __init__(self, teacher):
        self.membership = teacher.membership


def _reached(machine, t):
    """The state of the machine's Moore reading that the letter word t
    reaches; a guarded machine reads as its `embed_moore`."""
    from gkat import MooreAutomaton, letters

    moore = machine if isinstance(machine, MooreAutomaton) else embed_moore(machine)
    alphabet = letters(machine.tests, machine.actions)
    x = moore.initial
    for letter in t:
        x = moore.delta[x][alphabet.index(letter)]
    return x, moore


def _error_text(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_row_methods_answer_from_the_reached_state():
    """On a GL* and an L* target, rows that reach one state, rows at the
    sink, a column list changed in place and an atoms list reordered
    between asks all get the per-cell answers; the answers handed out are
    copies; a bad column raises the same text on every ask, from any row,
    and its letters are checked before the atoms."""
    from gkat import Atom, embed_kat, kat_moore_automaton, letters

    tests = TestSet(("b", "c"))
    ats = atoms(tests)
    e = parse_exp("(while b do (if c then do p else do q)); do p; assert c", tests, ACTS)
    targets = (
        GkatTeacher(normalize(gkat_automaton(e, tests, ACTS))),
        MooreTeacher(kat_moore_automaton(embed_kat(e), tests, ACTS)),
    )
    alphabet = letters(tests, ACTS)
    rows = [()] + [(x,) for x in alphabet] + [(x, y) for x in alphabet for y in alphabet]
    for teacher in targets:
        ref = _PerCell(teacher)
        by_state, sinks = {}, set()
        for t in rows:
            x, moore = _reached(teacher.target, t)
            by_state.setdefault(x, []).append(t)
            if set(moore.delta[x]) == {x} and not any(moore.outputs[x]):
                sinks.add(x)
        assert sinks & by_state.keys() and max(map(len, by_state.values())) > 1
        columns = [GuardedString((a,), ()) for a in ats] + [
            GuardedString((a, b), (p,)) for a in ats for b in ats[:2] for p in ACTS
        ]
        words = [(), ((ats[0], "p"),), ((ats[3], "q"), (ats[1], "p")), ((ats[2], "q"),)]
        picked = list(ats)

        def answers():
            return ([ref.answer_row(t, columns) for t in rows],
                    [ref.answer_outputs(t, words, picked) for t in rows])

        def ask_rows():
            for t in rows:
                got = teacher.answer_row(t, columns)
                assert got == ref.answer_row(t, columns)
                got.append(2)

        def ask_outputs():
            for t in rows:
                got = teacher.answer_outputs(t, words, picked)
                assert got == ref.answer_outputs(t, words, picked)
                got.append(())

        # each change is made in place between two asks of one method and
        # alters some per-cell answer
        rounds = [
            (ask_rows, [columns.reverse, lambda: columns.append(columns[-1])]),
            (ask_outputs, [
                picked.reverse,
                lambda: words.__setitem__(slice(None), words[1:] + words[:1]),
            ]),
        ]
        for ask, changes in rounds:
            ask()
            for change in changes:
                before = answers()
                change()
                assert answers() != before
                ask()

        sink_row = by_state[min(sinks & by_state.keys())][0]
        live_rows = [ts[-1] for x, ts in by_state.items() if x not in sinks]
        bad_column = [columns[0], GuardedString((ats[0], ats[3]), ("r",))]
        bad_word = [words[0], ((ats[1], "p"), (ats[2], "r"))]
        other_tests = [Atom(("b",), 1)]
        asks = [
            (lambda t: teacher.answer_row(t, bad_column), "undeclared actions: r"),
            (lambda t: teacher.answer_outputs(t, bad_word, ats), "undeclared actions: r"),
            (lambda t: teacher.answer_outputs(t, bad_word, other_tests),
             "undeclared actions: r"),
            (lambda t: teacher.answer_outputs(t, words, other_tests),
             "word atoms use different tests"),
        ]
        for bad_ask, text in asks:
            for t in live_rows + [sink_row] + live_rows:
                assert _error_text(lambda: bad_ask(t)) == text
        for t in live_rows + [sink_row]:
            assert _error_text(lambda: ref.answer_row(t, bad_column)) == asks[0][1]


def _rand_moore(rng, tests, n):
    from gkat import MooreAutomaton

    width = 2 ** len(tests) * len(ACTS)
    return MooreAutomaton(
        tests, ACTS,
        tuple(tuple(rng.randrange(n) for _ in range(width)) for _ in range(n)),
        tuple(tuple(rng.randint(0, 1) for _ in range(2 ** len(tests)))
              for _ in range(n)),
        rng.randrange(n),
    )


def test_row_methods_equal_per_cell_membership():
    """One walk per row gives the per-cell membership answers, for rows
    whose prefix dies partway, rows that live, and the empty row."""
    from gkat import run_gkat_prefix

    rng = random.Random(61)
    prefixes = {"dies partway": 0, "lives": 0}
    for tests in (T1, TestSet(("b", "c"))):
        ats = atoms(tests)
        for _ in range(20):
            target = rand_normal_automaton(rng, tests, ACTS, 5)
            teacher = GkatTeacher(target)
            moore = MooreTeacher(_rand_moore(rng, tests, rng.randint(1, 5)))
            for _ in range(15):
                t = _rand_word(rng, ats, rng.randint(0, 4))
                columns = [_rand_gs(rng, ats) for _ in range(rng.randint(0, 4))]
                assert teacher.answer_row(t, columns) == [
                    teacher.membership(join(t, e)) for e in columns
                ]
                if run_gkat_prefix(target, target.initial, t) is not None:
                    prefixes["lives"] += 1
                elif run_gkat_prefix(target, target.initial, t[:1]) is not None:
                    prefixes["dies partway"] += 1
                words = [_rand_word(rng, ats, rng.randint(0, 3))
                         for _ in range(rng.randint(0, 3))]
                # all atoms, reversed, a subset and a single atom, in one
                # list changed in place between asks
                picked = []
                for selection in (ats, ats[::-1], ats[1:], ats[-1:]):
                    picked[:] = selection
                    assert moore.answer_outputs(t, words, picked) == [
                        tuple(moore.membership(GuardedString(
                            tuple(a for a, _ in t + e) + (atom,),
                            tuple(p for _, p in t + e),
                        )) for atom in picked)
                        for e in words
                    ]
            assert teacher.answer_row((), []) == []
            assert moore.answer_outputs((), [], ats) == []
    assert prefixes["dies partway"] and prefixes["lives"]


def test_row_methods_reject_foreign_atoms():
    """An atom over other tests is rejected wherever it sits: in the row, or
    as a column's second or last atom, on rows that live and on rows that
    have left the machine."""
    target = loop_target()
    other = atoms(TestSet(("c",)))
    c = other[0]
    live, dead = ((POS, "p"),), ((POS, "q"),)
    gkat = GkatTeacher(target)
    moore = MooreTeacher(minimize_moore(embed_moore(target)))
    calls = [
        lambda: gkat.answer_row(((c, "p"),), [GuardedString((NEG,), ())]),
        lambda: gkat.answer_row(((POS, "p"), (c, "p")), [GuardedString((NEG,), ())]),
        lambda: moore.answer_outputs((), [()], other),
        lambda: moore.answer_outputs((), [((c, "p"),)], atoms(T1)),
        lambda: moore.answer_outputs(((POS, "p"), (c, "p")), [()], atoms(T1)),
    ]
    for t in (live, dead):
        for column in ((POS, c, NEG), (POS, NEG, c)):
            calls.append(lambda t=t, column=column: gkat.answer_row(
                t, [GuardedString((NEG,), ()), GuardedString(column, ("p", "q"))]))
        for word in (((POS, "p"), (c, "q")), ((c, "p"),)):
            calls.append(lambda t=t, word=word: moore.answer_outputs(
                t, [(), word], atoms(T1)))
    for call in calls:
        with pytest.raises(ValueError, match="different tests"):
            call()


def test_a_target_over_another_action_order_is_asked_by_words():
    """Letter numbers follow the table's action order. A built-in teacher
    whose target declares the actions in another order gets each row as a
    letter word, and the closed tables hold the same rows and cells."""
    e = parse_exp("(while b do do p); do q", T1, ACTS)
    targets = [gkat_automaton(e, T1, order) for order in (ACTS, ACTS[::-1])]
    for kind, teacher in ((GlObservationTable, GkatTeacher),
                          (LStarObservationTable, lambda t: MooreTeacher(embed_moore(t)))):
        tables = [kind(T1, ACTS, teacher(t), QueryStats()).fill().close() for t in targets]
        assert tables[0].S == tables[1].S and len(tables[0].S) > 1
        assert tables[0].cells == tables[1].cells


def test_membership_only_teacher_is_asked_once_per_cell():
    for table_kind in (GlObservationTable, LStarObservationTable):
        teacher = _ChaosTeacher()
        stats = QueryStats()
        table = table_kind(T1, ACTS, teacher, stats).fill()
        table.close()
        assert len(teacher.asked) == stats.membership_queries > 0
    teacher = _ChaosTeacher()
    table = GlObservationTable(T1, ACTS, teacher, QueryStats()).fill()
    assert teacher.asked == [
        join(table.word(t), e) for t in table.all_rows() for e in table.E
    ]


class _LoggingGkatTeacher(GkatTeacher):
    def __init__(self, target):
        super().__init__(target)
        self.asked = []

    def membership(self, w):
        self.asked.append(w)
        return super().membership(w)


class _LoggingMooreTeacher(MooreTeacher):
    def __init__(self, target):
        super().__init__(target)
        self.asked = []

    def membership(self, w):
        self.asked.append(w)
        return super().membership(w)


def _query_words(log) -> list:
    """The word of each query a log's `answers` events answer, in order."""
    return [
        join(payload[0], e) for kind, payload in log if kind == "answers"
        for e in payload[1]
    ]


def test_membership_override_sees_every_query():
    """A `membership` override is asked every query, one at a time, and an
    observer gets the same events from that per-query path as from the
    built-in teachers' row walks, their queries in the order asked."""
    target = loop_target()
    teacher = _LoggingGkatTeacher(target)
    aut, stats = glstar(teacher, T1, ACTS)
    assert aut.delta == TARGET_DELTA
    assert len(teacher.asked) == stats.membership_queries == 36
    moore = _LoggingMooreTeacher(minimize_moore(embed_moore(target)))
    _, stats = lstar_moore(moore, T1, ACTS)
    assert len(moore.asked) == stats.membership_queries == 78
    rng = random.Random(67)
    tests = TestSet(("b", "c"))
    for _ in range(5):
        target = rand_normal_automaton(rng, tests, ACTS, 5)
        for mode in ("suffix", "optimized"):
            for deduce in (False, True):
                logs = []
                for make in (GkatTeacher, _LoggingGkatTeacher):
                    log, on_event = record_events()
                    teacher = make(target)
                    glstar(teacher, tests, ACTS, cx_mode=mode, zero_fill=deduce,
                           on_event=on_event)
                    logs.append(log)
                assert logs[0] == logs[1]
                assert teacher.asked and teacher.asked == _query_words(logs[1])
        moore_target = minimize_moore(embed_moore(target))
        logs = []
        for make in (MooreTeacher, _LoggingMooreTeacher):
            log, on_event = record_events()
            moore = make(moore_target)
            lstar_moore(moore, tests, ACTS, on_event=on_event)
            logs.append(log)
        assert logs[0] == logs[1]
        assert moore.asked and moore.asked == _query_words(logs[1])


def test_builtin_teachers_never_take_the_per_cell_path(monkeypatch):
    """Under an observer of every kind, `GkatTeacher` and `MooreTeacher`
    still answer each row in one walk: the base row methods, which ask
    `membership` once per query, are never reached."""
    calls = []

    def spy(fn):
        def wrapper(self, *args):
            calls.append(fn.__name__)
            return fn(self, *args)
        return wrapper

    monkeypatch.setattr(Teacher, "answer_row", spy(Teacher.answer_row))
    monkeypatch.setattr(Teacher, "answer_outputs", spy(Teacher.answer_outputs))
    target = loop_target()
    for mode in ("suffix", "optimized"):
        for deduce in (False, True):
            log, on_event = record_events()
            aut, stats = glstar(GkatTeacher(target), T1, ACTS, cx_mode=mode,
                                zero_fill=deduce, on_event=on_event)
            assert aut.delta == TARGET_DELTA
            assert stats.membership_queries == len(_query_words(log))
            if (mode, deduce) == ("suffix", False):
                assert stats.membership_queries == 36
    log, on_event = record_events()
    _, stats = lstar_moore(MooreTeacher(minimize_moore(embed_moore(target))), T1, ACTS,
                           on_event=on_event)
    assert stats.membership_queries == len(_query_words(log)) == 78
    assert calls == []


def test_wrapped_membership_counts_every_query(monkeypatch):
    """A counting wrapper on the teachers' `membership` sees exactly the
    queries the learners report, each a guarded string over atoms though
    the tables keep rows as letter numbers, whether it is set on both
    classes or on one; the learner of a class left unwrapped stays on the
    row walk and never reaches the per-query path."""
    from gkat import Atom
    calls = []
    per_cell = []

    def counting(fn):
        def wrapper(self, w):
            calls.append(w)
            return fn(self, w)
        return wrapper

    def spy(fn):
        def wrapper(self, *args):
            per_cell.append(type(self))
            return fn(self, *args)
        return wrapper

    monkeypatch.setattr(Teacher, "answer_row", spy(Teacher.answer_row))
    monkeypatch.setattr(Teacher, "answer_outputs", spy(Teacher.answer_outputs))
    rng = random.Random(63)
    tests = TestSet(("b", "c"))
    targets = [rand_normal_automaton(rng, tests, ACTS, 5) for _ in range(5)]
    for wrapped in ((GkatTeacher, MooreTeacher), (GkatTeacher,), (MooreTeacher,)):
        with monkeypatch.context() as m:
            for cls in wrapped:
                m.setattr(cls, "membership", counting(cls.membership))
            for target in targets:
                for mode in ("suffix", "optimized"):
                    for deduce in (False, True):
                        del calls[:], per_cell[:]
                        _, stats = glstar(GkatTeacher(target), tests, ACTS,
                                          cx_mode=mode, zero_fill=deduce)
                        if GkatTeacher in wrapped:
                            assert len(calls) == stats.membership_queries
                            assert all(type(w) is GuardedString for w in calls)
                            assert {type(a) for w in calls for a in w.atoms} == {Atom}
                        else:
                            assert calls == per_cell == []
                del calls[:], per_cell[:]
                _, stats = lstar_moore(
                    MooreTeacher(minimize_moore(embed_moore(target))), tests, ACTS
                )
                if MooreTeacher in wrapped:
                    assert len(calls) == stats.membership_queries > 0
                    assert all(type(w) is GuardedString for w in calls)
                    assert {type(a) for w in calls for a in w.atoms} == {Atom}
                else:
                    assert calls == per_cell == []


def test_each_fill_walks_a_reached_state_once(monkeypatch):
    """On the walking path a fill walks the target's answers at most once
    per (reached state, first missing column), and every other row that
    reaches that pair shares them: checked over one learner run of each
    table, whose fills ask more rows than they walk."""
    from gkat.automata import _Reading

    fills = []  # per fill: the (state, columns asked) walks, then the rows filled
    current = []

    def walked(method):
        def wrapper(reading, x, columns, *rest):
            if current:
                current[0].append((x, len(columns)))
            return method(reading, x, columns, *rest)
        return wrapper

    def counted(fill):
        def wrapper(table):
            width = len(table.E)
            rows = sum(len(table.cells.get(t, ())) < width
                       for t in table.all_rows()[table._filled:])
            current[:] = [[]]
            try:
                return fill(table)
            finally:
                fills.append((current.pop(), rows))
        return wrapper

    monkeypatch.setattr(_Reading, "accepts", walked(_Reading.accepts))
    monkeypatch.setattr(_Reading, "output_rows", walked(_Reading.output_rows))
    monkeypatch.setattr(ObservationTable, "fill", counted(ObservationTable.fill))
    tests = TestSet(("b", "c"))
    e = parse_exp("(while b do (if c then do p else do q)); do p; assert c", tests, ACTS)
    target = gkat_automaton(e, tests, ACTS)
    runs = [lambda: glstar(GkatTeacher(target), tests, ACTS),
            lambda: lstar_moore(MooreTeacher(embed_moore(target)), tests, ACTS)]
    for run in runs:
        del fills[:]
        run()
        assert fills and all(len(set(walks)) == len(walks) <= rows for walks, rows in fills)
        walks = sum(len(walks) for walks, _ in fills)
        rows = sum(rows for _, rows in fills)
        assert 0 < walks < rows / 4, (walks, rows)


def test_a_sibling_filled_earlier_in_the_pass_deduces_a_later_row(monkeypatch):
    """Zero-fill deduces row by row in row order, so a fringe row can be
    forced to zero by a sibling filled earlier in the same fill. The
    walking path deduces the same cells as the per-cell path that a
    wrapped `membership` takes: `deduced`, the zero-filled count and the
    trace are equal."""
    from gkat.learning import _learn

    sibling_forced = []

    def watched(deduce):
        def wrapper(table, t, have):
            hit = deduce(table, t, have)
            if hit:  # forced by a sibling's one that this fill asked?
                parent, (bits, action) = t[:-1], divmod(t[-1], len(table.actions))
                siblings = [parent + (t[-1] - action + q,) for q in range(len(table.actions))
                            if q != action]
                sibling_forced.append(table.cells[parent][bits] != 1 and any(
                    1 in table.cells.get(u, [])[table._before.get(u, 0):] for u in siblings))
            return hit
        return wrapper

    def marked(fill):
        def wrapper(table):
            table._before = {t: len(cells) for t, cells in table.cells.items()}
            return fill(table)
        return wrapper

    def run(target, tests):
        log, on_event = record_events()
        table = GlObservationTable(tests, ACTS, GkatTeacher(target), QueryStats(),
                                   zero_fill=True, on_event=on_event)
        _learn(table, False)
        return sorted(table.deduced), table.stats.zero_filled, lines_of(log)

    monkeypatch.setattr(GlObservationTable, "_deduce", watched(GlObservationTable._deduce))
    monkeypatch.setattr(ObservationTable, "fill", marked(ObservationTable.fill))
    asked = []

    def counting(fn):
        def wrapper(self, w):
            asked.append(w)
            return fn(self, w)
        return wrapper

    tests = TestSet(("b", "c"))
    e = parse_exp("(while b do (if c then do p else do q)); do p; assert c", tests, ACTS)
    for target, tests in ((loop_target(), T1), (gkat_automaton(e, tests, ACTS), tests)):
        del sibling_forced[:]
        walked = run(target, tests)
        assert any(sibling_forced)
        with monkeypatch.context() as m:
            m.setattr(GkatTeacher, "membership", counting(GkatTeacher.membership))
            del asked[:]
            assert run(target, tests) == walked
            assert asked
        assert walked[1] == len(walked[0]) > 0


def _query_lines(log) -> list:
    """The QUERY lines of a log, one per query."""
    return [line for line in lines_of(log) if line.startswith("QUERY ")]


class _CountingGkatTeacher(GkatTeacher):
    """Counts the calls to its one override, `answer_row`."""

    def __init__(self, target):
        super().__init__(target)
        self.asks = 0

    def answer_row(self, t, columns):
        self.asks += 1
        return super().answer_row(t, columns)


class _CountingMooreTeacher(MooreTeacher):
    """Counts the calls to its one override, `answer_outputs`."""

    def __init__(self, target):
        super().__init__(target)
        self.asks = 0

    def answer_outputs(self, t, columns, atoms):
        self.asks += 1
        return super().answer_outputs(t, columns, atoms)


def test_every_observer_gets_one_answers_event_per_ask():
    """Each teacher ask reaches an observer as one non-empty `answers` event
    whose QUERY lines are the asked words with their answers, one line per
    membership query; an empty ask emits nothing, and `query` is no kind."""
    rng = random.Random(73)
    wide = TestSet(("b", "c"))
    cases = [(T1, loop_target())] + [
        (wide, rand_normal_automaton(rng, wide, ACTS, 5)) for _ in range(5)
    ]
    spans = 0
    for tests, target in cases:
        runs = [
            (_CountingGkatTeacher(target), lambda teacher, on, mode=mode, deduce=deduce:
             glstar(teacher, tests, ACTS, cx_mode=mode, zero_fill=deduce, on_event=on))
            for mode in ("suffix", "optimized") for deduce in (False, True)
        ]
        runs.append((_CountingMooreTeacher(minimize_moore(embed_moore(target))),
                     lambda teacher, on: lstar_moore(teacher, tests, ACTS, on_event=on)))
        for teacher, run in runs:
            log, on_event = record_events()
            _, stats = run(teacher, on_event)
            asks = [payload for kind, payload in log if kind == "answers"]
            assert len(asks) == teacher.asks > 0
            assert all(tails for _, tails, _ in asks)
            assert _query_lines(log) == [
                "QUERY %s → %d" % (w, teacher.membership(w)) for w in _query_words(log)
            ]
            assert len(_query_lines(log)) == stats.membership_queries
            if isinstance(teacher, MooreTeacher):
                spans += sum(len(tails) > len(atoms(tests)) for _, tails, _ in asks)
    assert spans  # some L* asks cover several columns
    target = loop_target()
    for table_kind, teacher in (
        (GlObservationTable, GkatTeacher(target)),
        (LStarObservationTable, MooreTeacher(minimize_moore(embed_moore(target)))),
    ):
        log, on_event = record_events()
        table = table_kind(T1, ACTS, teacher, QueryStats(), on_event=on_event)
        del log[:]
        assert table._ask((), []) == [] and log == []
    with pytest.raises(ValueError, match="unknown event kind"):
        format_event("query", (GuardedString((NEG,), ()), 0))


def test_every_event_renders_alike_with_and_without_its_table(monkeypatch):
    """`format_event(kind, payload, table)`, which renders a table's own
    `answers` event from the table's encoded pieces and the ends kept in
    its memo entry, equals `format_event(kind, payload)` and the
    from-scratch renderer on every event of GL* in each mode and of L*.
    This holds on the built-in row walks, where rows share memo entries,
    and with `membership` wrapped, where every row has its own entry."""
    rng = random.Random(41)
    targets = [(tests, rand_normal_automaton(rng, tests, ACTS, 5))
               for tests in (T1, TestSet(("b", "c"))) for _ in range(10)]

    def wrapped(fn):
        return lambda self, w: fn(self, w)

    for wrap in (False, True):
        asked = []

        def on_event(kind, payload, table):
            text = format_event(kind, payload)
            assert format_event(kind, payload, table) == text
            assert format_event_from_scratch(kind, payload) == text
            if kind == "answers":
                asked.append(payload[2])  # kept alive, so ids stay distinct

        with monkeypatch.context() as m:
            for cls in (GkatTeacher, MooreTeacher) if wrap else ():
                m.setattr(cls, "membership", wrapped(cls.membership))
            for tests, target in targets:
                for mode in ("suffix", "optimized"):
                    for deduce in (False, True):
                        glstar(GkatTeacher(target), tests, ACTS, cx_mode=mode,
                               zero_fill=deduce, on_event=on_event)
                lstar_moore(MooreTeacher(target), tests, ACTS, on_event=on_event)
        shared = len(asked) - len({id(bits) for bits in asked})
        assert (shared == 0) if wrap else (shared > len(asked) // 2), (wrap, shared)


def test_observed_tables_hold_no_reference_cycle():
    """A finished table is freed at once, not at the next full collection,
    also when an observer gets its events."""
    import gc
    import weakref

    target = loop_target()
    moore_target = minimize_moore(embed_moore(target))
    gc.disable()
    try:
        for make in (
            lambda on: GlObservationTable(T1, ACTS, GkatTeacher(target), QueryStats(),
                                          on_event=on),
            lambda on: LStarObservationTable(T1, ACTS, MooreTeacher(moore_target),
                                             QueryStats(), on_event=on),
        ):
            for on_event in (None, record_events()[1]):
                table = make(on_event).fill()
                ref = weakref.ref(table)
                del table
                assert ref() is None
    finally:
        gc.enable()

# ===== invariants on random targets =====

def _check_every_fill(table):
    """Wrap the table's fill: afterwards every row holds one cell per
    column, and the snapshot shows no empty cell."""
    fill = table.fill

    def checked_fill():
        fill()
        assert all(len(table.cells[t]) == len(table.E) for t in table.all_rows())
        _, body = table.snapshot()
        assert all(cell != "" for row in body for cell in row[1:])
        return table

    table.fill = checked_fill
    return table


def test_columns_only_append_to_rows():
    """Counterexample columns go at the end of E: each row keeps its earlier
    cells and gains exactly the new ones."""
    rng = random.Random(41)
    targets = [loop_target()] + [
        rand_normal_automaton(rng, T1, ACTS, rng.randint(2, 5)) for _ in range(8)
    ]
    counterexamples = {GlObservationTable: 0, LStarObservationTable: 0}
    for target in targets:
        moore_target = minimize_moore(embed_moore(target))
        tables = [
            GlObservationTable(T1, ACTS, GkatTeacher(target), QueryStats(), zero_fill=deduce)
            for deduce in (False, True)
        ]
        tables.append(
            LStarObservationTable(T1, ACTS, MooreTeacher(moore_target), QueryStats())
        )
        for table in tables:
            _check_every_fill(table).fill()
            while True:
                z = table.teacher.equivalence(table.close().hypothesis())
                if z is None:
                    break
                columns = list(table.E)
                before = {t: list(cells) for t, cells in table.cells.items()}
                table.add_counterexample(z)
                counterexamples[type(table)] += 1
                assert table.E[: len(columns)] == columns
                for t, cells in before.items():
                    assert table.cells[t][: len(cells)] == cells
    assert all(counterexamples.values())


def test_kept_rows_and_snapshots_equal_fresh_ones(monkeypatch):
    """`all_rows` and `snapshot` keep what they built; after every fill,
    promote and counterexample they equal the from-scratch renderers, on
    both tables, both counterexample modes and with zero-fill."""
    seen = set()

    def checked(method):
        def wrapper(table, *args):
            result = method(table, *args)
            assert table.all_rows() == all_rows_from_scratch(table)
            assert table.snapshot() == snapshot_from_scratch(table)
            seen.add((type(table), method.__name__))
            return result
        return wrapper

    for name in ("fill", "promote", "add_counterexample"):
        monkeypatch.setattr(ObservationTable, name, checked(getattr(ObservationTable, name)))
    rng = random.Random(71)
    for tests in (T1, TestSet(("b", "c"))):
        for _ in range(6):
            target = rand_normal_automaton(rng, tests, ACTS, 5)
            for mode in ("suffix", "optimized"):
                for deduce in (False, True):
                    aut, _ = glstar(GkatTeacher(target), tests, ACTS, cx_mode=mode,
                                    zero_fill=deduce)
                    assert bisimilar(aut, 0, target, 0)[0] == 1
            lstar_moore(MooreTeacher(minimize_moore(embed_moore(target))), tests, ACTS)
    assert len(seen) == 6


def _table_invariants(table):
    for s in table.S:
        for i in range(len(s)):
            assert s[:i] in table._s_set
    from gkat import suffixes_gs

    for e in table.E:
        for suf in suffixes_gs(e):
            assert suf in table._e_set


def test_glstar_learns_random_targets():
    rng = random.Random(31)
    for trial in range(15):
        target = rand_normal_automaton(rng, T1, ACTS, rng.randint(1, 5))
        smallest = minimize(target)
        for mode in ("suffix", "optimized"):
            checked = []

            def on_event(kind, payload, table):
                if kind == "hypothesis":
                    _table_invariants(table)
                    checked.append(kind)

            aut, stats = glstar(
                GkatTeacher(target), T1, ACTS, cx_mode=mode, on_event=on_event
            )
            assert checked
            assert bisimilar(aut, 0, target, 0) == (1, None)
            assert aut.n_states == smallest.n_states
            assert stats.equivalence_queries == len(stats.hypothesis_sizes)


def test_lstar_learns_random_targets():
    rng = random.Random(32)
    for trial in range(10):
        target = minimize_moore(
            embed_moore(rand_normal_automaton(rng, T1, ACTS, rng.randint(1, 4)))
        )
        result, stats = lstar_moore(MooreTeacher(target), T1, ACTS)
        assert moore_isomorphic(minimize_moore(result), target)[0] == 1


# ===== artifact digest =====

def _learner_artifacts(rng, tests, n_targets, max_states):
    """Every text artifact of both learners on a seeded corpus: trace lines,
    table snapshots at each hypothesis, DOT of the result, query stats."""
    out = []

    def on_event(kind, payload, table):
        out.append(format_event(kind, payload))
        if kind == "hypothesis":
            header, body = table.snapshot()
            out.extend(",".join(row) for row in [header] + body)

    def finish(dot, stats):
        out.append(dot)
        out.append(repr(stats))

    for _ in range(n_targets):
        target = rand_normal_automaton(rng, tests, ACTS, max_states)
        for mode in ("suffix", "optimized"):
            for deduce in (False, True):
                aut, stats = glstar(
                    GkatTeacher(target), tests, ACTS,
                    cx_mode=mode, zero_fill=deduce, on_event=on_event,
                )
                finish(gkat_dot(aut), stats)
        moore_target = minimize_moore(embed_moore(target))
        result, stats = lstar_moore(
            MooreTeacher(moore_target), tests, ACTS, on_event=on_event
        )
        finish(moore_dot(result), stats)
    return out


LEARNER_ARTIFACTS_SHA256 = (
    "31b7f5026c1ebc6910f84698364d4fb245ebe3794ad8c62516e26101feeadd52"
)


def test_learner_artifacts_unchanged():
    """Trace text, table snapshots and learned machines stay byte-identical."""
    rng = random.Random(2204)
    lines = _learner_artifacts(rng, T1, 30, 6)
    lines += _learner_artifacts(rng, TestSet(("b", "c")), 10, 5)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == LEARNER_ARTIFACTS_SHA256

