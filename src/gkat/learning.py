"""Active learning from observation tables.

Both learners run one loop over one table engine: fill the table, close it
by promoting unmatched fringe rows, read off a hypothesis, and ask the
teacher for equivalence; counterexamples contribute all their suffixes as
new columns. The two tables differ only in their cell kind.

The guarded learner's rows are dangling words and its columns are guarded
strings; a cell is one membership query, and only fringe rows holding a
one need a matching upper row. The classic Moore learner's rows and
columns are (atom, action) letter words; a cell is the word's output row,
one query per atom, and every fringe row needs a matching upper row.
Query counters tally raw queries as issued, with no memoization across
cells; an optional deduction mode of the guarded table fills cells that
are forced to zero by determinacy of guarded languages without consulting
the teacher.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .errors import InternalInconsistencyError, NotClosedError
from .automata import (
    GkatAutomaton,
    MooreAutomaton,
    accepts_gkat,
    accepts_moore,
    moore_difference,
    moore_difference_gs,
    run_gkat_prefix,
)
from .syntax import (
    Atom,
    EMPTY_PREFIX,
    GuardedPrefix,
    GuardedString,
    TestSet,
    atoms,
    suffixes_gs,
    suffixes_word,
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


class GkatTeacher(Teacher):
    """Teacher for the language of a guarded automaton.

    Equivalence is a product search over the Moore unfoldings of
    hypothesis and target, each state unfolded only when the search
    reaches it; counterexamples are shortest in the canonical order,
    returned as complete guarded strings.
    """

    def __init__(self, target: GkatAutomaton):
        self.target = target

    def membership(self, w: GuardedString) -> int:
        return accepts_gkat(self.target, self.target.initial, w)

    def equivalence(self, hypothesis: GkatAutomaton) -> Optional[GuardedString]:
        return moore_difference_gs(hypothesis, self.target)


class MooreTeacher(Teacher):
    """Teacher for the guarded language of a Moore machine; counterexamples
    are letter words."""

    def __init__(self, target: MooreAutomaton):
        self.target = target

    def membership(self, w: GuardedString) -> int:
        return accepts_moore(self.target, self.target.initial, w)

    def equivalence(self, hypothesis: MooreAutomaton):
        return moore_difference(hypothesis, self.target)


# ===== Event formatting =====


def _word_str(word) -> str:
    if not word:
        return "ε"
    return "".join(str(a) + p for a, p in word)


def _payload_str(value) -> str:
    if isinstance(value, (GuardedString, GuardedPrefix)):
        return str(value)
    return _word_str(value)


def format_event(kind: str, payload) -> str:
    """One trace line per learner event."""
    if kind == "query":
        w, bit = payload
        return "QUERY %s → %d" % (w, bit)
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
    """Rows S and columns E with one filled cell per (row, column) pair.

    The upper rows S start at the empty word and stay prefix-closed; the
    columns E stay suffix-closed. Fringe rows extend an upper row by one
    (atom, action) letter. Subclasses set the cell kind: the empty row,
    the first columns, how a row grows by a letter, how a counterexample
    splits into suffixes, how a row's missing cells are filled, which
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
        self.letters = [(a, p) for a in self.atoms for p in self.actions]
        self.S = [self._empty_row]
        self._s_set = {self._empty_row}
        self.E = self._first_columns()
        self._e_set = set(self.E)
        self.cells: Dict[tuple, object] = {}
        self._emit("columns", tuple(self.E))

    def _emit(self, kind, payload):
        if self.on_event is not None:
            self.on_event(kind, payload, self)

    def _query(self, w: GuardedString) -> int:
        """Ask the teacher one membership query, counted and traced."""
        bit = self.teacher.membership(w)
        self.stats.membership_queries += 1
        self._emit("query", (w, bit))
        return bit

    def all_rows(self) -> list:
        rows = list(self.S)
        seen = set(self._s_set)
        for s in self.S:
            for letter in self.letters:
                t = self._extend(s, letter)
                if t not in seen:
                    seen.add(t)
                    rows.append(t)
        return rows

    def row(self, t) -> tuple:
        return tuple(self.cells[(t, e)] for e in self.E)

    def fill(self):
        for t in self.all_rows():
            missing = [e for e in self.E if (t, e) not in self.cells]
            if missing:
                self._fill_row(t, missing)
        return self

    def unclosed_row(self):
        upper = {self.row(s) for s in self.S}
        for t in self.all_rows():
            if t in self._s_set:
                continue
            r = self.row(t)
            if self._needs_match(r) and r not in upper:
                return t
        return None

    def promote(self, t):
        self.S.append(t)
        self._s_set.add(t)
        self._emit("promote", t)
        self.fill()

    def close(self):
        while True:
            t = self.unclosed_row()
            if t is None:
                return self
            self.promote(t)

    def add_counterexample(self, z):
        for e in self._suffixes(z):
            if e not in self._e_set:
                self.E.append(e)
                self._e_set.add(e)
        self._emit("columns", tuple(self.E))
        self.fill()

    def _upper_index(self) -> Dict[tuple, int]:
        """State number of each upper row's contents; state i is S[i]."""
        if self.unclosed_row() is not None:
            raise NotClosedError("table has an unmatched fringe row")
        index = {}
        for i, s in enumerate(self.S):
            r = self.row(s)
            if r in index:
                raise InternalInconsistencyError("duplicate upper rows")
            index[r] = i
        return index

    def _state(self, index: Dict[tuple, int], t) -> int:
        r = self.row(t)
        if r not in index:
            raise NotClosedError("fringe row has no upper match")
        return index[r]

    def snapshot(self):
        """Header and rows for external dumps."""
        header = ["row"] + [_payload_str(e) for e in self.E]
        body = []
        for t in self.all_rows():
            label = _payload_str(t) + (" *" if t in self._s_set else "")
            values = [self.cells.get((t, e)) for e in self.E]
            cells = ["" if v is None else self._cell_str(v) for v in values]
            body.append([label] + cells)
        return header, body


# ===== Guarded observation table =====


class GlObservationTable(ObservationTable):
    """Rows are dangling words, columns are guarded strings.

    The columns start with all length-one atoms. A cell is one membership
    query; only fringe rows with a one somewhere need a matching upper
    row for the table to be closed.
    """

    _empty_row = EMPTY_PREFIX

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
        return [self._atom_column(a) for a in self.atoms]

    @staticmethod
    def _extend(s: GuardedPrefix, letter) -> GuardedPrefix:
        return s.extend(*letter)

    _suffixes = staticmethod(suffixes_gs)
    _needs_match = staticmethod(any)
    _cell_str = staticmethod(str)

    def _atom_column(self, atom: Atom) -> GuardedString:
        return GuardedString((atom,), ())

    def _deducible_zero(self, t: GuardedPrefix) -> bool:
        # Fringe rows only: a cell is forced to zero when the parent row
        # accepts at the last atom, or when a sibling on another action is
        # already known to reach an accepting continuation.
        if not t.pairs or t in self._s_set:
            return False
        parent = GuardedPrefix(t.pairs[:-1])
        if parent not in self._s_set:
            return False
        atom, action = t.pairs[-1]
        if self.cells.get((parent, self._atom_column(atom))) == 1:
            return True
        for q in self.actions:
            if q == action:
                continue
            sibling = parent.extend(atom, q)
            for e in self.E:
                if self.cells.get((sibling, e)) == 1:
                    return True
        return False

    def _deduce_zero(self, key):
        self.cells[key] = 0
        self.deduced.add(key)
        self.stats.zero_filled += 1

    def _fill_row(self, t: GuardedPrefix, columns: List[GuardedString]):
        # Deducibility reads only the parent's and the siblings' cells, never
        # row t's own, so one answer holds while the row fills.
        if self.zero_fill and self._deducible_zero(t):
            for e in columns:
                self._deduce_zero((t, e))
        else:
            for e in columns:
                self.cells[(t, e)] = self._query(t.join(e))

    def apply_zero_fill(self):
        """Fill every missing cell whose value determinacy already forces,
        without consulting the teacher."""
        for t in self.all_rows():
            if not self._deducible_zero(t):
                continue
            for e in self.E:
                if (t, e) not in self.cells:
                    self._deduce_zero((t, e))
        return self

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
                live = [p for p in self.actions if any(self.row(s.extend(atom, p)))]
                accepts = self.cells[(s, self._atom_column(atom))] == 1
                if len(live) > 1 or (live and accepts):
                    raise InternalInconsistencyError(
                        "observations branch at %s under %s" % (s, atom)
                    )
                if live:
                    p = live[0]
                    entries.append((p, self._state(index, s.extend(atom, p))))
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

    _empty_row = ()

    def _first_columns(self) -> List[tuple]:
        return [()]

    @staticmethod
    def _extend(s: tuple, letter) -> tuple:
        return s + (letter,)

    _suffixes = staticmethod(suffixes_word)

    @staticmethod
    def _needs_match(r: tuple) -> bool:
        return True

    @staticmethod
    def _cell_str(vec: tuple) -> str:
        return "".join(str(b) for b in vec)

    def _fill_row(self, t: tuple, columns: List[tuple]):
        for e in columns:
            word = t + e
            head = tuple(a for a, _ in word)
            acts = tuple(p for _, p in word)
            self.cells[(t, e)] = tuple(
                self._query(GuardedString(head + (atom,), acts)) for atom in self.atoms
            )

    def hypothesis(self) -> MooreAutomaton:
        """Read off the Moore machine; state i is the row of S[i]."""
        index = self._upper_index()
        delta = tuple(
            tuple(self._state(index, s + (letter,)) for letter in self.letters)
            for s in self.S
        )
        outputs = tuple(self.cells[(s, ())] for s in self.S)
        return MooreAutomaton(self.tests, self.actions, delta, outputs, 0)


# ===== Learners =====


def _learn(table: ObservationTable, teacher: Teacher, shrink: bool):
    """The learner loop shared by both tables. With `shrink`, each
    counterexample is cut to an informative suffix before it is added."""
    stats = table.stats
    table.fill()
    while True:
        table.close()
        hyp = table.hypothesis()
        stats.hypothesis_sizes.append(hyp.n_states)
        table._emit("hypothesis", hyp.n_states)
        if stats.equivalence_queries > 10 * (len(table.S) + 1):
            raise InternalInconsistencyError("equivalence query cap exceeded")
        z = teacher.equivalence(hyp)
        stats.equivalence_queries += 1
        table._emit("equiv", z)
        if z is None:
            return hyp, stats
        if shrink:
            z = optimized_counterexample(table, z, teacher, hyp)
        table.add_counterexample(z)


def optimized_counterexample(
    table: GlObservationTable,
    z: GuardedString,
    teacher: Teacher,
    hypothesis: GkatAutomaton,
) -> GuardedString:
    """Shrink a counterexample before suffixing it into the table.

    Scans suffixes of z from shortest to longest; for each, replays the
    consumed part through the hypothesis, replants the suffix on that
    state's access word, and compares the teacher against the hypothesis
    state. The first disagreement found is the informative suffix; one
    always exists when z has at least one action.
    """
    m = z.n_actions
    if m == 0:
        return z
    for k in range(m, 0, -1):
        consumed = GuardedPrefix(tuple(zip(z.atoms[: k - 1], z.actions[: k - 1])))
        state = run_gkat_prefix(hypothesis, hypothesis.initial, consumed)
        if state is None:
            continue
        tail = GuardedString(z.atoms[k - 1 :], z.actions[k - 1 :])
        hyp_bit = accepts_gkat(hypothesis, state, tail)
        if hyp_bit != table._query(table.S[state].join(tail)):
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
    return _learn(table, teacher, cx_mode == "optimized")


def lstar_moore(
    teacher: Teacher,
    tests: TestSet,
    actions: Tuple[str, ...],
    on_event: Optional[Callable] = None,
) -> Tuple[MooreAutomaton, QueryStats]:
    """Learn a Moore machine for the teacher's language over letter words."""
    stats = QueryStats()
    table = LStarObservationTable(tests, actions, teacher, stats, on_event)
    return _learn(table, teacher, False)
