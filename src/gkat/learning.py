"""Active learning from observation tables.

Both learners run one loop over one table engine: fill the table, close it
by promoting unmatched fringe rows, read off a hypothesis, and ask the
teacher for equivalence; counterexamples contribute all their suffixes as
new columns. Rows of both tables are (atom, action) letter words. The
guarded table's columns are guarded strings, a cell is one membership
query, and only fringe rows holding a one need a matching upper row. The
Moore table's columns are letter words, a cell is the word's output row,
one query per atom, and every fringe row needs a matching upper row.

Each table reaches its teacher in one method, `_ask`: one call answers a
row's missing cells, `answer_row` for guarded-string columns and
`answer_outputs` for letter-word ones, which by default ask `membership`
once per query. `GkatTeacher` and `MooreTeacher` share a base whose row
methods answer a row from the state of the target's Moore reading that its
prefix reaches, walking each state's answers once per column list and
checking every letter, as long as `membership` is the base's own function:
a subclass override or a wrapper set on either class (a logger, a counter,
a tracer) gets every query.
An observer `on_event(kind, payload, table)` gets every event, and
observed and unobserved runs ask alike. A non-empty ask is one `answers`
event (prefix, tails, bits), bit i answering join(prefix, tails[i]); a
guarded ask's tails are its columns, a Moore ask's e·a for each of its
columns e and each atom a. Query counters tally every cell a table asks,
however the teacher answers it; an optional guarded-table mode fills
forced-zero cells without a query.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .errors import InternalInconsistencyError, NotClosedError
from .automata import (
    GkatAutomaton,
    MooreAutomaton,
    accepts_gkat,
    moore_difference,
    moore_difference_gs,
    run_gkat_prefix,
)
from .syntax import (
    GuardedString,
    TestSet,
    atoms,
    join,
    letters,
    suffixes_gs,
    suffixes_word,
    word_to_str,
)


@dataclass
class QueryStats:
    membership_queries: int = 0
    zero_filled: int = 0
    equivalence_queries: int = 0
    hypothesis_sizes: List[int] = field(default_factory=list)


# ===== Teachers =====


class Teacher:
    """Black box for a fixed guarded language."""

    def membership(self, w: GuardedString) -> int:
        raise NotImplementedError

    def equivalence(self, hypothesis):
        """None when the hypothesis matches, else a counterexample."""
        raise NotImplementedError

    def answer_row(self, t: tuple, columns: List[GuardedString]) -> list:
        """The membership bit of t joined to each guarded-string column."""
        return [self.membership(join(t, e)) for e in columns]

    def answer_outputs(self, t: tuple, columns: List[tuple], atoms) -> list:
        """The output row of t + e for each letter-word column e: one bit
        per atom of `atoms`, in the order given."""
        singles = [GuardedString((a,), ()) for a in atoms]
        return [tuple(self.answer_row(t + e, singles)) for e in columns]


class _MachineTeacher(Teacher):
    """Teacher for the guarded language of a machine of either kind; its
    row methods walk the target's reading while `membership` is this
    class's own function (see the module docstring)."""

    def __init__(self, target):
        self.target = target

    def membership(self, w: GuardedString) -> int:
        return accepts_gkat(self.target, self.target.initial, w)

    _own_membership = membership

    def _walks(self) -> bool:
        return getattr(self.membership, "__func__", None) is _MachineTeacher._own_membership

    def answer_row(self, t: tuple, columns: List[GuardedString]) -> list:
        if not self._walks():
            return super().answer_row(t, columns)
        return self.target._reading.accepts(self.target.initial, t, columns)

    def answer_outputs(self, t: tuple, columns: List[tuple], atoms) -> list:
        if not self._walks():
            return super().answer_outputs(t, columns, atoms)
        return self.target._reading.output_rows(self.target.initial, t, columns, atoms)


class GkatTeacher(_MachineTeacher):
    """Teacher for the language of a guarded automaton.

    Equivalence is a product search over the Moore unfoldings of
    hypothesis and target, each state unfolded only when the search
    reaches it; counterexamples are shortest in the canonical order,
    returned as complete guarded strings.
    """

    def equivalence(self, hypothesis: GkatAutomaton) -> Optional[GuardedString]:
        return moore_difference_gs(hypothesis, self.target)


class MooreTeacher(_MachineTeacher):
    """Teacher for the guarded language of a Moore machine; counterexamples
    are letter words."""

    def equivalence(self, hypothesis: MooreAutomaton):
        return moore_difference(hypothesis, self.target)


# ===== Event formatting =====


def _payload_str(value) -> str:
    return str(value) if isinstance(value, GuardedString) else word_to_str(value)


def format_event(kind: str, payload) -> str:
    """One trace line per learner event; an `answers` event gives one QUERY
    line per tail, joined by newlines, with the prefix rendered once."""
    if kind == "answers":
        prefix, tails, bits = payload
        head = "QUERY " + "".join([str(a) + p for a, p in prefix])
        ends = (" → 0", " → 1")
        return "\n".join([head + e._text + ends[bit] for e, bit in zip(tails, bits)])
    if kind == "promote":
        return "PROMOTE %s" % _payload_str(payload)
    if kind == "columns":
        return "COLUMNS {%s}" % ", ".join(_payload_str(e) for e in payload)
    if kind == "hypothesis":
        return "HYPOTHESIS %d states" % payload
    if kind == "equiv":
        if payload is None:
            return "EQUIV → Yes"
        return "EQUIV → No(%s)" % _payload_str(payload)
    raise ValueError("unknown event kind: %r" % (kind,))


# ===== Table engine =====


class ObservationTable:
    """Letter-word rows S and columns E, with cells stored row-major.

    The upper rows S start at the empty word and stay prefix-closed; the
    columns E stay suffix-closed and only grow at their end. Fringe rows
    extend an upper row by one (atom, action) letter. `cells[t]` lists row
    t's values for E[0], E[1], ...; after `fill` it holds one per column.
    Subclasses set the cell kind: the first columns, how a counterexample
    splits into suffixes, how a row's last missing cells are filled, which
    fringe rows need an upper match, the hypothesis read-off, and how a
    cell is written in snapshots.
    """

    def __init__(
        self,
        tests: TestSet,
        actions: Tuple[str, ...],
        teacher: Teacher,
        stats: QueryStats,
        on_event: Optional[Callable] = None,
    ):
        self.tests = tests
        self.actions = tuple(actions)
        self.teacher = teacher
        self.stats = stats
        self.on_event = on_event
        self.atoms = atoms(tests)
        self.letters = letters(tests, self.actions)
        self.S = [()]
        self._s_set = {()}
        self.E = self._first_columns()
        self._e_set = set(self.E)
        self.cells: Dict[tuple, list] = {}
        self._rows = None
        self._rendered: Dict[tuple, list] = {}
        self._tails: List[GuardedString] = []  # a Moore table's, see its _ask
        self._emit("columns", tuple(self.E))

    def _emit(self, kind, payload):
        if self.on_event is not None:
            self.on_event(kind, payload, self)

    def all_rows(self) -> list:
        """The upper rows, then the fringe rows not already upper. The list
        is kept until the next `promote`; callers must not change it."""
        if self._rows is None:
            fringe = [s + (letter,) for s in self.S for letter in self.letters]
            self._rows = list(dict.fromkeys(self.S + fringe))
        return self._rows

    def row(self, t) -> tuple:
        return tuple(self.cells[t])

    def fill(self):
        for t in self.all_rows():
            have = len(self.cells.setdefault(t, []))
            if have < len(self.E):
                self._fill_row(t, self.E[have:])
        return self

    def unclosed_row(self):
        upper = {self.row(s) for s in self.S}
        for t in self.all_rows()[len(self.S):]:
            r = self.row(t)
            if self._needs_match(r) and r not in upper:
                return t
        return None

    def promote(self, t):
        self.S.append(t)
        self._s_set.add(t)
        self._rows = None
        self._emit("promote", t)
        self.fill()

    def close(self):
        while (t := self.unclosed_row()) is not None:
            self.promote(t)
        return self

    def add_counterexample(self, z):
        for e in self._suffixes(z):
            if e not in self._e_set:
                self.E.append(e)
                self._e_set.add(e)
        self._emit("columns", tuple(self.E))
        self.fill()

    def _upper_index(self) -> Dict[tuple, int]:
        """State number of each upper row's contents; state i is S[i]."""
        index = {self.row(s): i for i, s in enumerate(self.S)}
        if len(index) < len(self.S):
            raise InternalInconsistencyError("duplicate upper rows")
        return index

    def _state(self, index: Dict[tuple, int], t) -> int:
        r = self.row(t)
        if r not in index:
            raise NotClosedError("fringe row has no upper match")
        return index[r]

    def snapshot(self):
        """Header and rows for external dumps. Each row's label and cells are
        rendered once and kept, since cells never change once written."""
        header = ["row"] + [_payload_str(e) for e in self.E]
        body = []
        for t in self.all_rows():
            text = self._rendered.get(t) or self._rendered.setdefault(t, [_payload_str(t)])
            cells = self.cells.get(t, ())
            text += map(self._cell_str, cells[len(text) - 1:])
            label = text[0] + " *" if t in self._s_set else text[0]
            body.append([label] + text[1:] + [""] * (len(self.E) - len(cells)))
        return header, body


# ===== Guarded observation table =====


class GlObservationTable(ObservationTable):
    """Rows are letter words, columns are guarded strings.

    The columns start with all length-one atoms, so the column of atom a
    is E[a.bits]. A cell is one membership query; only fringe rows with a
    one somewhere need a matching upper row for the table to be closed.
    `deduced` holds one (row, column) pair per zero-filled cell.
    """

    def __init__(
        self,
        tests: TestSet,
        actions: Tuple[str, ...],
        teacher: Teacher,
        stats: QueryStats,
        zero_fill: bool = False,
        on_event: Optional[Callable] = None,
    ):
        self.zero_fill = zero_fill
        self.deduced = set()
        super().__init__(tests, actions, teacher, stats, on_event)

    def _first_columns(self) -> List[GuardedString]:
        return [GuardedString((a,), ()) for a in self.atoms]

    _suffixes = staticmethod(suffixes_gs)
    _needs_match = staticmethod(any)
    _cell_str = staticmethod(str)

    def _deducible_zero(self, t: tuple) -> bool:
        # Fringe rows only: a cell is forced to zero when the parent row
        # accepts at the last atom, or when a sibling on another action is
        # already known to reach an accepting continuation.
        if not t or t in self._s_set:
            return False
        parent = t[:-1]
        if parent not in self._s_set or parent not in self.cells:
            return False
        atom, action = t[-1]
        if self.cells[parent][atom.bits] == 1:
            return True
        return any(
            1 in self.cells.get(parent + ((atom, q),), ())
            for q in self.actions
            if q != action
        )

    def _ask(self, t: tuple, columns: List[GuardedString]) -> list:
        """The membership bit of t joined to each column, one query each."""
        bits = self.teacher.answer_row(t, columns)
        self.stats.membership_queries += len(columns)
        if columns and self.on_event is not None:
            self._emit("answers", (t, columns, bits))
        return bits

    def _fill_row(self, t: tuple, columns: List[GuardedString]):
        # Deducibility reads only the parent's and the siblings' cells, never
        # row t's own, so one answer holds while the row fills.
        if self.zero_fill and self._deducible_zero(t):
            self.cells[t] += [0] * len(columns)
            self.deduced.update((t, e) for e in columns)
            self.stats.zero_filled += len(columns)
        else:
            self.cells[t] += self._ask(t, columns)

    def hypothesis(self) -> GkatAutomaton:
        """Read off the automaton; state i is the row of S[i].

        Per state and atom: step to the row of the unique live extension
        if there is one, else accept iff the atom column holds a one, else
        reject.
        """
        index = self._upper_index()
        delta = []
        for s in self.S:
            entries = []
            for atom in self.atoms:
                live = [p for p in self.actions if 1 in self.cells[s + ((atom, p),)]]
                accepts = self.cells[s][atom.bits] == 1
                if len(live) > 1 or (live and accepts):
                    raise InternalInconsistencyError(
                        "observations branch at %s under %s" % (word_to_str(s), atom)
                    )
                if live:
                    p = live[0]
                    entries.append((p, self._state(index, s + ((atom, p),))))
                else:
                    entries.append(1 if accepts else 0)
            delta.append(tuple(entries))
        return GkatAutomaton(self.tests, self.actions, tuple(delta), 0)


# ===== Letter-word observation table =====


class LStarObservationTable(ObservationTable):
    """Classic observation table over (atom, action) letter words.

    The only first column is the empty word. A cell holds the whole output
    row of the word: one bit per atom, each bit one membership query.
    Closedness has no one-entry side condition here; every fringe row
    needs a matching upper row.
    """

    def _first_columns(self) -> List[tuple]:
        return [()]

    _suffixes = staticmethod(suffixes_word)

    @staticmethod
    def _needs_match(r: tuple) -> bool:
        return True

    @staticmethod
    def _cell_str(vec: tuple) -> str:
        return "%d" * len(vec) % vec

    def _ask(self, t: tuple, columns: List[tuple]) -> list:
        """The output row of t + e for each column e, one query per atom.
        The columns are the last ones of E; `_tails` holds each column's
        tails e·a, built once."""
        outputs = self.teacher.answer_outputs(t, columns, self.atoms)
        n = len(self.atoms)
        self.stats.membership_queries += len(columns) * n
        if columns and self.on_event is not None:
            for e in self.E[len(self._tails) // n:]:
                heads, acts = zip(*e) if e else ((), ())
                self._tails += [GuardedString(heads + (a,), acts) for a in self.atoms]
            bits = [bit for row in outputs for bit in row]
            self._emit("answers", (t, self._tails[(len(self.E) - len(columns)) * n:], bits))
        return outputs

    def _fill_row(self, t: tuple, columns: List[tuple]):
        self.cells[t] += self._ask(t, columns)

    def hypothesis(self) -> MooreAutomaton:
        """Read off the Moore machine; state i is the row of S[i]."""
        index = self._upper_index()
        delta = tuple(
            tuple(self._state(index, s + (letter,)) for letter in self.letters)
            for s in self.S
        )
        outputs = tuple(self.cells[s][0] for s in self.S)
        return MooreAutomaton(self.tests, self.actions, delta, outputs, 0)


# ===== Learners =====


def _learn(table: ObservationTable, shrink: bool):
    """The learner loop shared by both tables, asking the table's teacher.
    With `shrink`, each counterexample is cut to an informative suffix
    before it is added."""
    stats = table.stats
    table.fill()
    while True:
        table.close()
        hyp = table.hypothesis()
        stats.hypothesis_sizes.append(hyp.n_states)
        table._emit("hypothesis", hyp.n_states)
        if stats.equivalence_queries > 10 * (len(table.S) + 1):
            raise InternalInconsistencyError("equivalence query cap exceeded")
        z = table.teacher.equivalence(hyp)
        stats.equivalence_queries += 1
        table._emit("equiv", z)
        if z is None:
            return hyp, stats
        if shrink:
            z = optimized_counterexample(table, z, hyp)
        table.add_counterexample(z)


def optimized_counterexample(
    table: GlObservationTable, z: GuardedString, hypothesis: GkatAutomaton
) -> GuardedString:
    """Shrink a counterexample before suffixing it into the table.

    Scans suffixes of z from shortest to longest; for each, replays the
    consumed part through the hypothesis, replants the suffix on that
    state's access word, and compares the table's teacher against the
    hypothesis state. The first disagreement found is the informative
    suffix; one always exists when z has at least one action.
    """
    if z.n_actions == 0:
        return z
    for k in range(z.n_actions, 0, -1):
        consumed = zip(z.atoms[: k - 1], z.actions[: k - 1])
        state = run_gkat_prefix(hypothesis, hypothesis.initial, consumed)
        if state is None:
            continue
        tail = GuardedString(z.atoms[k - 1 :], z.actions[k - 1 :])
        bit = table._ask(table.S[state], [tail])[0]
        if accepts_gkat(hypothesis, state, tail) != bit:
            return GuardedString(z.atoms[k:], z.actions[k:])
    raise InternalInconsistencyError("counterexample has no informative suffix")


def glstar(
    teacher: Teacher,
    tests: TestSet,
    actions: Tuple[str, ...],
    cx_mode: str = "suffix",
    zero_fill: bool = False,
    on_event: Optional[Callable] = None,
) -> Tuple[GkatAutomaton, QueryStats]:
    """Learn a guarded automaton for the teacher's language.

    cx_mode 'suffix' adds all suffixes of each counterexample as columns;
    'optimized' first shrinks the counterexample to an informative suffix.
    """
    if cx_mode not in ("suffix", "optimized"):
        raise ValueError("unknown counterexample mode: %r" % (cx_mode,))
    stats = QueryStats()
    table = GlObservationTable(tests, actions, teacher, stats, zero_fill, on_event)
    return _learn(table, cx_mode == "optimized")


def lstar_moore(
    teacher: Teacher,
    tests: TestSet,
    actions: Tuple[str, ...],
    on_event: Optional[Callable] = None,
) -> Tuple[MooreAutomaton, QueryStats]:
    """Learn a Moore machine for the teacher's language over letter words."""
    stats = QueryStats()
    table = LStarObservationTable(tests, actions, teacher, stats, on_event)
    return _learn(table, False)
