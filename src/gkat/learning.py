"""Active learning from observation tables.

Both learners run one loop over one table engine: fill the table, close it
by promoting unmatched fringe rows, read off a hypothesis, and ask the
teacher for equivalence; counterexamples contribute all their suffixes as
new columns. A row is a tuple of letter numbers, letter i being
`letters(tests, actions)[i]`; rows leave a table only as (atom, action)
letter words, in events and public teacher calls. The guarded table's
columns are guarded strings, a cell is one membership query, and only
fringe rows holding a one need a matching upper row. The Moore table's
columns are letter words, a cell is the word's output row, one query per
atom, and every fringe row needs a matching upper row. A row's contents
are its cells' CSV text, extended as cells fill; an index maps the upper
rows' contents to states, and a fill touches only rows missing cells.

Each fill decides once how its teacher answers (`Teacher._reading_for`).
`GkatTeacher` and `MooreTeacher` share a base whose target's Moore
reading the fill walks, while `membership` and the row method are the
base's own: a row costs its walk to a state, and the answers for each
(reached state, first missing column), their text, event bits and QUERY
line ends are made once per fill and shared by every row that reaches
it. Else each row goes as a letter word to `answer_row` (guarded-string
columns) or `answer_outputs` (letter-word ones), which by default ask
`membership` once per query, so a subclass override or a wrapper set on
either class (a logger, a counter, a tracer) gets every query. `_ask`
asks one row alone, the same way.
An observer `on_event(kind, payload, table)` gets every event, and
observed and unobserved runs ask alike. A non-empty ask is one `answers`
event (prefix, tails, bits), bit i answering join(prefix, tails[i]); a
guarded ask's tails are its columns, a Moore ask's e·a for each of its
columns e and each atom a; `event_bytes` renders an event's trace text.
Query counters tally every cell a table asks, however the teacher answers
it; an optional guarded-table mode fills forced-zero cells without a query.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import getitem
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

    def _reading_for(self, table):
        """The target reading whose letter numbers a table's rows walk, or
        None: each row then goes to the table's public row method."""
        return None


class _MachineTeacher(Teacher):
    """Teacher for the guarded language of a machine of either kind; its
    row methods walk the target's reading while `membership` is this
    class's own function (see the module docstring)."""

    def __init__(self, target):
        self.target = target

    def membership(self, w: GuardedString) -> int:
        return accepts_gkat(self.target, self.target.initial, w)

    def _walks(self, method: str = "membership") -> bool:
        """True while `membership` and `method` are this class's own."""
        return (getattr(self.membership, "__func__", None) is _OWN["membership"]
                and getattr(getattr(self, method), "__func__", None) is _OWN[method])

    def _reading_for(self, table):
        # walk only when no override would miss the ask and the table's letter
        # numbers name the target's letters
        reading = self.target._reading
        same = reading.tests == table.tests.tests and reading.actions == table.actions
        return reading if same and self._walks(table._method) else None

    def answer_row(self, t: tuple, columns: List[GuardedString]) -> list:
        if not self._walks():
            return super().answer_row(t, columns)
        reading = self.target._reading
        return reading.accepts(reading.walk(reading.initial, t), columns)

    def answer_outputs(self, t: tuple, columns: List[tuple], atoms) -> list:
        if not self._walks():
            return super().answer_outputs(t, columns, atoms)
        reading = self.target._reading
        return reading.output_rows(reading.walk(reading.initial, t), columns, atoms)


_OWN = {name: vars(_MachineTeacher)[name]  # as defined, whatever is set later
        for name in ("membership", "answer_row", "answer_outputs")}


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
    """Teacher for the guarded language of a machine of either kind, a
    guarded one read as its Moore unfolding; counterexamples are letter words."""

    def equivalence(self, hypothesis: MooreAutomaton):
        return moore_difference(hypothesis, self.target)


# ===== Event formatting =====

_DIGITS = bytes.maketrans(b"\0\1", b"01")  # bytes of bits to their digits


def _payload_str(value) -> str:
    return str(value) if isinstance(value, GuardedString) else word_to_str(value)


def _end_pair(tail: GuardedString) -> tuple:
    """The two UTF-8 ends of a QUERY line for this tail: its text, then its bit."""
    text = str(tail)
    return (text + " → 0").encode(), (text + " → 1").encode()


def event_bytes(kind: str, payload, table=None) -> bytes:
    """`format_event`'s text in UTF-8: an `answers` event's QUERY lines join
    its prefix, encoded once, to each tail's end for its bit. The event a
    table has just told (`_tell`) joins the table's letter bytes and its
    ends per tail, selected once per memo entry and kept in the entry."""
    if kind != "answers":
        return format_event(kind, payload).encode()
    prefix, tails, bits = payload
    told = None if table is None else table._told
    if told is not None and told[0] is payload:
        _, t, hit = told
        if hit[4] is None:
            own, pairs = table._tails, table._pairs
            pairs += map(_end_pair, own[len(pairs):])
            first = len(own) - len(tails)
            hit[4] = list(map(getitem, pairs[first:] if own[first:] == tails
                              else map(_end_pair, tails), bits))
        head, ends = b"\nQUERY " + table._text(t), hit[4]
    else:
        head = ("\nQUERY " + "".join([str(a) + p for a, p in prefix])).encode()
        ends = map(getitem, map(_end_pair, tails), bits)
    return head[1:] + head.join(ends)


def format_event(kind: str, payload, table=None) -> str:
    """One trace line per learner event; an `answers` event gives one QUERY
    line per tail, joined by newlines, as `event_bytes` renders them."""
    if kind == "answers":
        return event_bytes(kind, payload, table).decode()
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
    """Rows S and columns E, with cells stored row-major.

    A row is a tuple of letter numbers (`word` gives its letter word); the
    upper rows S start at the empty row and stay prefix-closed; the
    columns E stay suffix-closed and only grow at their end. Fringe rows
    extend an upper row by one letter. `cells[t]` lists row t's values for
    E[0], E[1], ...; after `fill` it holds one per column. Subclasses set
    the cell kind: the first columns, how a counterexample splits into
    suffixes, how a row's missing cells are asked, which fringe rows need
    an upper match, the hypothesis read-off, and the cells' CSV text.
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
        self._letter_bytes = None  # each letter's UTF-8 text; see _text
        self.S = [()]
        self._s_set = {()}
        self.E = self._first_columns()
        self._e_set = set(self.E)
        self.cells: Dict[tuple, list] = {}
        self._rows = None
        self._filled = 0  # all_rows()[:_filled] hold a cell per column
        self._contents: Dict[tuple, str] = {}  # row -> its cells' CSV text
        self._index: Dict[str, int] = {}  # upper row contents -> state
        self._labels: Dict[tuple, str] = {}  # row -> its CSV label
        self._header = ["row"]  # "row", then each column's text
        self._tails: list = []  # the guarded strings asked after a row; see _ask
        self._pairs: list = []  # the QUERY line end pairs of each of _tails
        self._told = None  # the last answers event, its row and memo entry
        self._emit("columns", tuple(self.E))

    zero_fill = False  # only the guarded table deduces cells

    def _emit(self, kind, payload):
        if self.on_event is not None:
            self.on_event(kind, payload, self)

    def word(self, t: tuple) -> tuple:
        """Row t as its (atom, action) letter word."""
        return tuple(map(self.letters.__getitem__, t))

    def _text(self, t: tuple) -> bytes:
        """Row t's letter word as UTF-8 text, empty for the empty row."""
        if self._letter_bytes is None:  # on first use: `compare` renders no row
            self._letter_bytes = [(str(a) + p).encode() for a, p in self.letters]
        return b"".join(map(self._letter_bytes.__getitem__, t))

    def _tell(self, t: tuple, hit: list):
        """Emit row t's `answers` event; `_told` keeps it with t and `hit`."""
        payload = (self.word(t),) + hit[3]
        self._told = payload, t, hit
        self._emit("answers", payload)

    def all_rows(self) -> list:
        """The upper rows, then the fringe rows not already upper. The list
        is kept until the next `promote`; callers must not change it."""
        if self._rows is None:
            fringe = [s + (i,) for s in self.S for i in range(len(self.letters))]
            self._rows = list(dict.fromkeys(self.S + fringe))
        return self._rows

    def fill(self):
        """Fill the missing cells of rows from `_filled` on, in row order, and
        index the upper rows. How the teacher answers is decided once per
        fill (`Teacher._reading_for`). On its target's reading a row costs
        its walk to a state, and `memo` keeps the answers for each (state,
        first missing column), with their text and event bits, for every row
        that reaches it; else each row goes to the public row method.
        Zero-fill deduces row by row, after the siblings filled before."""
        rows, cells, contents, E = self.all_rows(), self.cells, self._contents, self.E
        width, reading, memo, stats = len(E), self.teacher._reading_for(self), {}, self.stats
        delta, x0 = (reading.delta, reading.initial) if reading else ((), 0)
        for t in rows[self._filled:]:
            row = cells.setdefault(t, [])
            have = len(row)
            if have == width:
                continue
            if self.zero_fill and (hit := self._deduce(t, have)):
                pass  # deduced: zeros, no query
            elif reading is None:
                hit = self._answer(t, E[have:])
            else:
                x = x0
                for i in t:
                    x = delta[x][i]
                if (hit := memo.get((x, have))) is None:
                    hit = memo[x, have] = self._answer(t, E[have:], reading, x)
            row += hit[0]
            contents[t] = contents.get(t, "") + hit[1]
            stats.membership_queries += hit[2]
            if hit[2] and self.on_event is not None:
                self._tell(t, hit)
        self._filled = len(rows)
        self._index = {contents[s]: i for i, s in enumerate(self.S)}
        return self

    def _ask(self, t: tuple, columns: list) -> list:
        """Row t's answers for these columns, asked on its own as `fill`
        asks a row: `_answer` gives the cells, their text, the query count,
        the `answers` event's tails and bits, and a slot for its QUERY ends."""
        reading = self.teacher._reading_for(self)
        hit = self._answer(t, columns, reading, reading and reading.walk(
            reading.initial, self.word(t)))
        self.stats.membership_queries += hit[2]
        if hit[2] and self.on_event is not None:
            self._tell(t, hit)
        return hit[0]

    def unclosed_row(self):
        index, contents = self._index, self._contents
        for t in self.all_rows()[len(self.S):]:
            r = contents[t]
            if self._needs_match(r) and r not in index:
                return t
        return None

    def promote(self, t):
        self.S.append(t)
        self._s_set.add(t)
        self._rows = None
        if t not in self._contents:  # not a fringe row: rows before it move
            self._filled = 0
        self._emit("promote", self.word(t))
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
        self._filled = 0
        self.fill()

    def _upper_index(self) -> Dict[str, int]:
        """State number of each upper row's contents; state i is S[i]."""
        if len(self._index) < len(self.S):
            raise InternalInconsistencyError("duplicate upper rows")
        return self._index

    def _state(self, index: Dict[str, int], t) -> int:
        r = self._contents[t]
        if r not in index:
            raise NotClosedError("fringe row has no upper match")
        return index[r]

    def csv_text(self) -> str:
        """The table as CSV text: a header of the columns, then one line per
        row of `all_rows`: its label, marked ` *` on the upper rows, which
        come first, then its contents, with empty cells while not filled."""
        header, labels, contents = self._header, self._labels, self._contents
        header += map(_payload_str, self.E[len(header) - 1:])
        lines = [",".join(header)]
        width, upper = len(self.E), len(self.S)
        for i, t in enumerate(self.all_rows()):
            label = labels.get(t) or labels.setdefault(t, self._text(t).decode() or "ε")
            lines.append(label + (" *" if i < upper else "") + contents.get(t, "")
                         + "," * (width - len(self.cells.get(t, ()))))
        lines.append("")
        return "\r\n".join(lines)

    def snapshot(self):
        """The header and rows of `csv_text`, split into fields."""
        header, *body = self.csv_text().split("\r\n")[:-1]
        return header.split(","), [line.split(",") for line in body]


# ===== Guarded observation table =====


class GlObservationTable(ObservationTable):
    """Rows are letter-number tuples, columns are guarded strings.

    The columns start with all length-one atoms, so the column of atom a
    is E[a.bits]. A cell is one membership query; only fringe rows with a
    one somewhere need a matching upper row for the table to be closed.
    `deduced` holds one (row, column index) pair per zero-filled cell.
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
        self._tails = self.E

    def _first_columns(self) -> List[GuardedString]:
        return [GuardedString((a,), ()) for a in self.atoms]

    _suffixes = staticmethod(suffixes_gs)
    _method = "answer_row"
    _needs_match = staticmethod(lambda r: "1" in r)
    _cells_text = staticmethod(  # of one or more new cells
        lambda cells: "," + ",".join(bytes(cells).translate(_DIGITS).decode()))

    def _answer(self, t: tuple, columns: List[GuardedString], reading=None, x=None):
        """Row t's bit for each column, one query each, read from state x of
        the reading if given, else asked by `answer_row`."""
        bits = (self.teacher.answer_row(self.word(t), columns) if reading is None
                else reading.accepts(x, columns))
        return [bits, self._cells_text(bits), len(columns), (columns, bits), None]

    def _deduce(self, t: tuple, have: int):
        # Fringe rows only: a cell is forced to zero when the parent row
        # accepts at the last atom, or when a sibling on another action is
        # already known to reach an accepting continuation. This reads only
        # the parent's and the siblings' cells, never row t's own.
        parent, cells = t[:-1], self.cells
        if not t or t in self._s_set or parent not in self._s_set or parent not in cells:
            return None
        bits, action = divmod(t[-1], len(self.actions))
        first = t[-1] - action
        if cells[parent][bits] != 1 and not any(
                1 in cells.get(parent + (first + q,), ())
                for q in range(len(self.actions)) if q != action):
            return None
        zeros = [0] * (len(self.E) - have)
        self.deduced.update((t, i) for i in range(have, len(self.E)))
        self.stats.zero_filled += len(zeros)
        return zeros, self._cells_text(zeros), 0, None

    def hypothesis(self) -> GkatAutomaton:
        """Read off the automaton; state i is the row of S[i].

        Per state and atom: step to the row of the unique live extension
        if there is one, else accept iff the atom column holds a one, else
        reject.
        """
        index, contents, k = self._upper_index(), self._contents, len(self.actions)
        delta = []
        for s in self.S:
            entries = []
            for atom in self.atoms:
                first = atom.bits * k
                live = [q for q in range(k) if "1" in contents[s + (first + q,)]]
                accepts = self.cells[s][atom.bits] == 1
                if len(live) > 1 or (live and accepts):
                    raise InternalInconsistencyError(
                        "observations branch at %s under %s" % (word_to_str(self.word(s)), atom)
                    )
                if live:
                    q = live[0]
                    entries.append((self.actions[q], self._state(index, s + (first + q,))))
                else:
                    entries.append(1 if accepts else 0)
            delta.append(tuple(entries))
        return GkatAutomaton(self.tests, self.actions, tuple(delta), 0)


# ===== Letter-word observation table =====


class LStarObservationTable(ObservationTable):
    """Classic observation table over letter-number rows and letter-word
    columns.

    The only first column is the empty word. A cell holds the whole output
    row of the word: one bit per atom, each bit one membership query.
    Closedness has no one-entry side condition here; every fringe row
    needs a matching upper row.
    """

    def _first_columns(self) -> List[tuple]:
        return [()]

    _suffixes = staticmethod(suffixes_word)
    _method = "answer_outputs"

    @staticmethod
    def _needs_match(r: str) -> bool:
        return True

    @staticmethod
    def _cells_text(cells: list) -> str:
        return b"".join(map(b",".__add__, map(bytes, cells))).translate(_DIGITS).decode()

    def _answer(self, t: tuple, columns: List[tuple], reading=None, x=None):
        """The output row of t + e for each column e, one query per atom,
        read from state x of the reading if given, else asked by
        `answer_outputs`. The columns are the last ones of E; `_tails`
        holds each column's tails e·a, built once."""
        ats, n = self.atoms, len(self.atoms)
        outputs = (self.teacher.answer_outputs(self.word(t), columns, ats) if reading is None
                   else reading.output_rows(x, columns, ats))
        told = None
        if self.on_event is not None:
            for e in self.E[len(self._tails) // n:]:
                heads, acts = zip(*e) if e else ((), ())
                self._tails += [GuardedString(heads + (a,), acts) for a in ats]
            told = (self._tails[(len(self.E) - len(columns)) * n:],
                    [bit for row in outputs for bit in row])
        return [outputs, self._cells_text(outputs), len(columns) * n, told, None]

    def hypothesis(self) -> MooreAutomaton:
        """Read off the Moore machine; state i is the row of S[i]."""
        index, numbers = self._upper_index(), range(len(self.letters))
        delta = tuple(
            tuple(self._state(index, s + (i,)) for i in numbers) for s in self.S
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
