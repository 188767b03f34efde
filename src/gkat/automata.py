"""Guarded automata and Moore machines over guarded alphabets.

A guarded automaton maps each state and atom to one of: accept (1),
reject (0), or a step (action, next state). A Moore machine reads
(atom, action) letters, numbered by `letters`, and outputs, per state,
one bit per atom. Both carry their test and action declarations so
words can be checked against them.

Acceptance runs and the built-in teachers' row methods walk a machine's
Moore reading (`_Reading`), built once per machine, and check every
letter of a word, but not the tables' rows of letter numbers. Also:
reachability with shortest witnesses, normalization, bisimilarity and
similarity checks, minimization for both machine kinds, isomorphism
checks, the embedding of guarded automata into Moore machines, and DOT
emitters.

Both kinds are compared through one view (`_split`): each state has a
label and ordered successors. A guarded state's label is its row with
each step (p, y) replaced by p, its successors the step targets in atom
order; a Moore state's label is its output row, its successors its delta
row. A second view (`_unfold`) reads either kind as a Moore machine:
a guarded state's label is its accept bits (a step reads 0), its
successors one target per (atom, action) letter, and `None` stands for
the implicit sink where the state does not step; `embed_moore` is built
from it. Three routines work on these views: `_bfs` (forward
reachability) for `reachable` (on `_unfold`), `moore_reachable` and the
minimizations; `_refine` (partition refinement from the label partition,
whose rounds after the first re-key only the predecessors of states that
changed block) for `minimize`, `minimize_moore` and the observability
check of `isomorphic`; and `_pairs` (a pair search that stops at the
first pair whose labels differ) for `bisimilar`, `isomorphic` and
`moore_isomorphic` on `_split`, and for the difference searches on
`_unfold`, which accept either machine kind on either side. `_word`
reads both searches' links on `_unfold` back as letter words.
`similar` walks its own pairs: simulation is one-sided (an accept must
be matched, a reject need not be), so it is not equality of labels, but
the automata are deterministic, so one walk over the pairs reachable
from (x, y) by steps on the same action decides it.

Each whole-machine routine reads a machine once per call. `minimize`,
`minimize_moore` and the isomorphism checks build its `_table` (every
state's `_split`, in a list) and pass that lookup to each routine they
run; `minimize` checks normality from it too. `bisimilar` and the
difference searches stay lazy: they split only the pairs they visit. The
isomorphism checks test that a is reachable, then (for `isomorphic`)
observable, then that b is reachable, and then run the pair search; b is
refined only when the search proves no map, since a copy of an
observable machine is observable. `normalize` keeps every row without a
step into a dead state as the same tuple.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple, Union

from .errors import NotNormalError
from .syntax import (
    Atom,
    GuardedString,
    TestSet,
    _check_declared,
    atoms,
    join,
    letters,
)

Trans = Union[int, Tuple[str, int]]


@dataclass(frozen=True)
class GkatAutomaton:
    """delta[state][atom.bits] is 0, 1, or (action, next_state)."""

    tests: TestSet
    actions: Tuple[str, ...]
    delta: Tuple[Tuple[Trans, ...], ...]
    initial: int

    def __post_init__(self):
        n = len(self.delta)
        if n == 0:
            raise ValueError("need at least one state")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        width, actions = 2 ** len(self.tests), self.actions
        for row in self.delta:
            if len(row) != width:
                raise ValueError("row width %d, expected %d" % (len(row), width))
            for e in row:
                if not (
                    e == 0
                    or e == 1
                    or (
                        isinstance(e, tuple)
                        and len(e) == 2
                        and e[0] in actions
                        and isinstance(e[1], int)
                        and 0 <= e[1] < n
                    )
                ):
                    raise ValueError("bad transition entry: %r" % (e,))

    @property
    def n_states(self) -> int:
        return len(self.delta)

    _reading = cached_property(lambda self: _Reading(self))


@dataclass(frozen=True)
class MooreAutomaton:
    """delta[state][i] reads letter i of `letters(tests, actions)`;
    outputs[state][atom.bits] is the acceptance bit."""

    tests: TestSet
    actions: Tuple[str, ...]
    delta: Tuple[Tuple[int, ...], ...]
    outputs: Tuple[Tuple[int, ...], ...]
    initial: int

    def __post_init__(self):
        n = len(self.delta)
        if n == 0 or len(self.outputs) != n:
            raise ValueError("delta and outputs must cover the same states")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        n_atoms = 2 ** len(self.tests)
        width = n_atoms * len(self.actions)
        for row in self.delta:
            if len(row) != width or (row and not 0 <= min(row) <= max(row) < n):
                raise ValueError("bad transition row: %r" % (row,))
        for row in self.outputs:
            if len(row) != n_atoms or row.count(0) + row.count(1) != len(row):
                raise ValueError("bad output row: %r" % (row,))

    @property
    def n_states(self) -> int:
        return len(self.delta)

    _reading = cached_property(lambda self: _Reading(self))


# ===== Acceptance =====


def _check_state(aut, x):
    if not 0 <= x < len(aut.delta):
        raise ValueError("state %r out of range" % (x,))


class _Reading:
    """A machine's Moore reading, built once per machine (`_reading`):
    delta[x][a.bits * len(actions) + index[p]] is the state after letter
    (a, p), letter number i of `letters`, and outputs[x] the output row; a
    guarded machine reads as its `embed_moore`. The row methods answer a
    row from the state its prefix reaches, so `asked` keeps the last
    column list (and atoms) asked, as copies, with each state's answers."""

    def __init__(self, aut):
        moore = aut if isinstance(aut, MooreAutomaton) else embed_moore(aut)
        self.tests, self.delta, self.outputs = aut.tests.tests, moore.delta, moore.outputs
        self.actions, self.initial = aut.actions, aut.initial
        self.index = {p: i for i, p in enumerate(aut.actions)}
        self.asked = ((), None, {})  # columns, atoms (None: accepts), answers by state

    def walk(self, x, word, last=None):
        """The state reached from x by a word of (atom, action) letters, or the
        output bit at a last atom; each letter's tests and action are checked."""
        tests, index, delta, k = self.tests, self.index, self.delta, len(self.index)
        try:
            for atom, p in word:
                if atom.tests is not tests and atom.tests != tests:
                    raise ValueError("word atoms use different tests")
                x = delta[x][atom.bits * k + index[p]]
        except KeyError:
            _check_declared((p,), index)  # raises: p is undeclared
        if last is not None and last.tests != tests:
            raise ValueError("word atoms use different tests")
        return x if last is None else self.outputs[x][last.bits]

    def reach(self, t) -> int:
        """The state reached from the initial state by letter numbers t."""
        x, delta = self.initial, self.delta
        for i in t:
            x = delta[x][i]
        return x

    def _answers(self, columns, atoms) -> dict:
        """The answers by reached state for these columns and atoms; a new
        column list or atoms list starts an empty dict."""
        if columns != self.asked[0] or atoms != self.asked[1]:
            self.asked = (list(columns), None if atoms is None else list(atoms), {})
        return self.asked[2]

    def accepts(self, x, columns) -> list:
        """The output bit at the end of each guarded string in columns,
        each read from state x."""
        answers = self._answers(columns, None)
        if x not in answers:
            answers[x] = [self.walk(x, zip(e.atoms, e.actions), e.atoms[-1]) for e in columns]
        return answers[x].copy()

    def output_rows(self, x, columns, atoms) -> list:
        """The output bits at `atoms` after each letter word e of columns
        from state x; canonical atoms read whole rows."""
        answers, outputs = self._answers(columns, atoms), self.outputs
        if x not in answers:
            rows = [outputs[self.walk(x, e)] for e in columns]
            if rows and any(a.tests != self.tests for a in atoms):
                raise ValueError("word atoms use different tests")
            picked = [a.bits for a in atoms]
            if rows and picked != list(range(len(outputs[0]))):
                rows = [tuple([row[i] for i in picked]) for row in rows]
            answers[x] = rows
        return answers[x].copy()


def accepts_gkat(aut, state: int, w: GuardedString) -> int:
    """1 iff a machine of either kind accepts w from the given state."""
    _check_state(aut, state)
    return aut._reading.walk(state, zip(w.atoms, w.actions), w.atoms[-1])


def run_gkat_prefix(aut: GkatAutomaton, state: int, word) -> Optional[int]:
    """Follow a letter word of (atom, action) pairs; None when some step is
    missing or mislabeled, ValueError on a letter aut does not declare."""
    _check_state(aut, state)
    x = aut._reading.walk(state, word)
    return None if x == aut.n_states else x


# ===== Labels and successors =====


def _split(aut):
    """The function from a state to its (label, successors)."""
    delta = aut.delta
    if isinstance(aut, MooreAutomaton):
        outputs = aut.outputs
        return lambda x: (outputs[x], delta[x])

    def split(x):
        label = []
        succ = []
        for e in delta[x]:
            if isinstance(e, tuple):
                label.append(e[0])
                succ.append(e[1])
            else:
                label.append(e)
        return tuple(label), succ

    return split


def _table(aut):
    """`_split` read once for every state: the same function, as a lookup
    in a list of each state's (label, successors)."""
    return list(map(_split(aut), range(len(aut.delta)))).__getitem__


def _unfold(aut):
    """The function from a state to its Moore (label, successors); in a
    guarded automaton, letters without a step go to None, the sink."""
    if isinstance(aut, MooreAutomaton):
        return _split(aut)
    delta = aut.delta
    width = len(aut.actions)
    index = {p: i for i, p in enumerate(aut.actions)}
    template = [None] * (len(delta[0]) * width)
    sink = (0,) * len(delta[0]), tuple(template)

    def unfold(x):
        if x is None:
            return sink
        label = []
        succ = template.copy()
        for bits, e in enumerate(delta[x]):
            if isinstance(e, tuple):
                label.append(0)
                succ[bits * width + index[e[0]]] = e[1]
            else:
                label.append(e)
        return tuple(label), succ

    return unfold


def _bfs(split, start):
    """Forward reachability from start: maps each reachable state, in
    breadth-first discovery order, to (parent, successor index), or to
    None for start itself."""
    pred = {start: None}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for i, y in enumerate(split(x)[1]):
            if y not in pred:
                pred[y] = (x, i)
                queue.append(y)
    return pred


def _refine(split, states):
    """Bisimilarity classes of `states`, a list closed under successors.

    The first round keys every state by its label block and the label
    blocks of its successors; it ends the refinement if it splits no block
    or leaves every state alone. Each later round re-keys only the
    predecessors of states that changed block in the round before (all
    states, after the first): a block's untouched members share one
    signature, and the largest part of a split block keeps its number
    (Hopcroft's rule), so a state changes block O(log n) times. Returns
    the block of each state, blocks numbered by first occurrence in
    `states`, and the first state of each block.
    """
    rows = [split(x) for x in states]
    keys = {}
    block = {x: keys.setdefault(label, len(keys)) for x, (label, _) in zip(states, rows)}
    n_labels = len(keys)
    keys = {}
    block = {
        x: keys.setdefault((block[x], tuple(map(block.__getitem__, succ))), len(keys))
        for x, (_, succ) in zip(states, rows)
    }
    if n_labels < len(keys) < len(states):
        pred, members, rows = {x: [] for x in states}, {}, dict(zip(states, rows))
        for x, (_, ys) in rows.items():
            members.setdefault(block[x], set()).add(x)
            for y in ys:
                pred[y].append(x)
        members = {b: xs for b, xs in members.items() if len(xs) > 1}
        moved, fresh = states, len(keys)

        def sig(x):
            return tuple(map(block.__getitem__, rows[x][1]))

        while moved:
            touched = {x for y in moved for x in pred[y] if block[x] in members}
            by_block = {}
            for x in touched:
                by_block.setdefault(block[x], []).append(x)
            moves = {}
            for b, xs in by_block.items():
                mem, groups = members[b], {}
                for x in xs:
                    groups.setdefault(sig(x), []).append(x)
                size = {s: len(g) for s, g in groups.items()}
                rest = len(mem) - len(xs)
                if rest:
                    ref = sig(next(x for x in mem if x not in touched))
                    size[ref] = size.get(ref, 0) + rest
                keep = max(size, key=size.get)
                for s in size.keys() - {keep}:
                    part = groups.get(s, [])
                    if rest and s == ref:
                        part = part + [x for x in mem if x not in touched]
                    mem.difference_update(part)
                    if len(part) > 1:
                        members[fresh] = set(part)
                    moves.update(dict.fromkeys(part, fresh))
                    fresh += 1
            block.update(moves)
            moved = moves
        keys = {}
        block = {x: keys.setdefault(block[x], len(keys)) for x in states}
    reps = []
    for x in states:
        if block[x] == len(reps):
            reps.append(x)
    return block, reps


def _pairs(split_a, split_b, start, limit=None):
    """Synchronized breadth-first search over state pairs from start.

    Returns (pred, pair): pred maps each visited pair, in discovery order,
    to (previous pair, successor index), or to None for start; pair is
    the first dequeued pair whose labels differ, or None when there is
    none. With a limit, the search also stops once more than `limit`
    pairs have been visited.
    """
    pred = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        label_a, succ_a = split_a(pair[0])
        label_b, succ_b = split_b(pair[1])
        if label_a != label_b:
            return pred, pair
        for i, nxt in enumerate(zip(succ_a, succ_b)):
            if nxt not in pred:
                pred[nxt] = (pair, i)
                queue.append(nxt)
        if limit is not None and len(pred) > limit:
            break
    return pred, None


# ===== Reachability and normalization =====


def _word(pred, node, alphabet) -> Tuple[Tuple[Atom, str], ...]:
    """The letter word along the links of a search on `_unfold` from its
    start to node; successor i reads alphabet[i]."""
    word = []
    while pred[node] is not None:
        node, i = pred[node]
        word.append(alphabet[i])
    return tuple(reversed(word))


def _quotient(aut, reps, block):
    """The machine of either kind whose state i is reps[i], each target y
    renumbered block[y]."""
    if isinstance(aut, MooreAutomaton):
        delta = tuple([tuple([block[y] for y in aut.delta[x]]) for x in reps])
        outputs = tuple([aut.outputs[x] for x in reps])
        return MooreAutomaton(aut.tests, aut.actions, delta, outputs, block[aut.initial])
    delta = tuple([
        tuple([(e[0], block[e[1]]) if isinstance(e, tuple) else e for e in aut.delta[x]])
        for x in reps
    ])
    return GkatAutomaton(aut.tests, aut.actions, delta, block[aut.initial])


def reachable(aut: GkatAutomaton):
    """Restrict to states reachable from the initial one.

    Returns the restricted automaton (states renumbered in breadth-first
    discovery order) and, per new state, a shortest letter word of
    (atom, action) pairs reaching it.
    """
    pred = _bfs(_unfold(aut), aut.initial)
    pred.pop(None, None)
    order = list(pred)
    alphabet = letters(aut.tests, aut.actions)
    witnesses = tuple(_word(pred, x, alphabet) for x in order)
    return _quotient(aut, order, {x: i for i, x in enumerate(order)}), witnesses


def _live_states(aut, split):
    """States with a nonempty language, by a backward search from the
    states that accept on some atom, and the states with a step to a state
    outside them; split is `_split` of the machine or its `_table`. The
    accepts are read from the rows, not the labels, where an action could
    equal 1."""
    preds = [[] for _ in aut.delta]
    stack = []
    for x, row in enumerate(aut.delta):
        if 1 in row:
            stack.append(x)
        for y in split(x)[1]:
            preds[y].append(x)
    live = set(stack)
    while stack:
        for x in preds[stack.pop()]:
            if x not in live:
                live.add(x)
                stack.append(x)
    return live, {x for y, xs in enumerate(preds) if y not in live for x in xs}


def is_normal(aut: GkatAutomaton) -> int:
    """1 iff every step leads to a state with nonempty language."""
    return int(not _live_states(aut, _split(aut))[1])


def normalize(aut: GkatAutomaton) -> GkatAutomaton:
    """Rewrite steps into dead states as rejections; preserves languages.
    A row without such a step is kept as the same tuple."""
    live, dirty = _live_states(aut, _split(aut))
    delta = tuple([
        tuple([0 if isinstance(e, tuple) and e[1] not in live else e for e in row])
        if x in dirty or type(row) is not tuple else row
        for x, row in enumerate(aut.delta)
    ])
    return GkatAutomaton(aut.tests, aut.actions, delta, aut.initial)


# ===== Comparison =====


def _check_same_alphabet(a, b):
    if a.tests != b.tests or a.actions != b.actions:
        raise ValueError("automata declare different tests or actions")


def bisimilar(
    a: GkatAutomaton, x: int, b: GkatAutomaton, y: int
) -> Tuple[int, Optional[GuardedString]]:
    """Decide bisimilarity of two states.

    On failure, also search for a shortest guarded string the two states
    disagree on; for normal automata one always exists, otherwise the
    witness may be None even though the states are not bisimilar.
    """
    _check_same_alphabet(a, b)
    _check_state(a, x)
    _check_state(b, y)
    if _pairs(_split(a), _split(b), (x, y))[1] is None:
        return 1, None
    found = _difference(a, b, (x, y))
    return 0, None if found is None else found[1]


def similar(a: GkatAutomaton, x: int, b: GkatAutomaton, y: int) -> int:
    """Decide the one-sided simulation: accepts of x must be matched by y,
    steps of x must be matched by steps of y on the same action."""
    _check_same_alphabet(a, b)
    _check_state(a, x)
    _check_state(b, y)
    # both automata are deterministic, so x is simulated by y exactly when
    # every pair reachable from (x, y) by matched steps passes the local check
    seen = {(x, y)}
    stack = [(x, y)]
    while stack:
        u, v = stack.pop()
        for e1, e2 in zip(a.delta[u], b.delta[v]):
            if e1 == 1 and e2 != 1:
                return 0
            if isinstance(e1, tuple):
                if not isinstance(e2, tuple) or e1[0] != e2[0]:
                    return 0
                pair = (e1[1], e2[1])
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
    return 1


# ===== Minimization =====


def minimize(aut: GkatAutomaton) -> GkatAutomaton:
    """Quotient the reachable part by bisimilarity.

    Requires a normal automaton; for those the result is the unique
    smallest normal automaton for the language, up to isomorphism.
    """
    split = _table(aut)
    if _live_states(aut, split)[1]:
        raise NotNormalError("minimize needs a normal automaton")
    block, reps = _refine(split, list(_bfs(split, aut.initial)))
    return _quotient(aut, reps, block)


def _isomorphism(a, b, name, observable):
    """Isomorphism of reachable inputs (observable too, if asked): the
    pair search from the initial states finds no label difference and its
    visited pairs form a bijection. Each input is read once, into its
    table; b is refined only when the search proves no map."""
    _check_same_alphabet(a, b)
    split_a = _table(a)
    order = list(_bfs(split_a, a.initial))
    if len(order) != a.n_states:
        raise ValueError("%s needs reachable inputs" % name)
    if observable and len(_refine(split_a, order)[1]) != a.n_states:
        raise ValueError("%s needs observable inputs" % name)
    split_b = _table(b)
    order = list(_bfs(split_b, b.initial))
    if len(order) != b.n_states:
        raise ValueError("%s needs reachable inputs" % name)
    pred, differ = _pairs(split_a, split_b, (a.initial, b.initial), limit=a.n_states)
    if differ is None and len(pred) == a.n_states == b.n_states:
        return 1, dict(pred.keys())
    if observable and len(_refine(split_b, order)[1]) != b.n_states:
        raise ValueError("%s needs observable inputs" % name)
    return 0, None


def isomorphic(
    a: GkatAutomaton, b: GkatAutomaton
) -> Tuple[int, Optional[Dict[int, int]]]:
    """Check isomorphism of two minimal automata.

    Both inputs must be reachable and observable (minimization outputs);
    then the only candidate map is the one forced by synchronized
    traversal from the initial states.
    """
    return _isomorphism(a, b, "isomorphic", observable=True)


# ===== Moore machines =====


def embed_moore(aut: GkatAutomaton) -> MooreAutomaton:
    """Unfold a guarded automaton into a Moore machine.

    Adds one sink state collecting every (atom, action) letter the source
    state does not step on; the sink outputs 0 everywhere, so both
    machines describe the same guarded language.
    """
    unfold, sink = _unfold(aut), aut.n_states
    labels, succs = zip(*[unfold(x) for x in [*range(sink), None]])
    delta = tuple(tuple(sink if y is None else y for y in succ) for succ in succs)
    return MooreAutomaton(aut.tests, aut.actions, delta, labels, aut.initial)


def moore_reachable(aut: MooreAutomaton) -> MooreAutomaton:
    """Restrict to reachable states, renumbered in discovery order."""
    order = list(_bfs(_split(aut), aut.initial))
    return _quotient(aut, order, {x: i for i, x in enumerate(order)})


def minimize_moore(aut: MooreAutomaton) -> MooreAutomaton:
    """Standard Moore machine minimization, deterministic state order."""
    split = _table(aut)
    block, reps = _refine(split, list(_bfs(split, aut.initial)))
    return _quotient(aut, reps, block)


def moore_isomorphic(
    a: MooreAutomaton, b: MooreAutomaton
) -> Tuple[int, Optional[Dict[int, int]]]:
    """Isomorphism of reachable Moore machines by synchronized traversal."""
    return _isomorphism(a, b, "moore_isomorphic", observable=False)


def _difference(a, b, start):
    """A shortest letter word from the pair `start` to a pair of states
    whose Moore labels differ, and that word completed to a guarded string
    by the first atom where the labels differ; None if there is none."""
    _check_same_alphabet(a, b)
    unfold_a, unfold_b = _unfold(a), _unfold(b)
    pred, pair = _pairs(unfold_a, unfold_b, start)
    if pair is None:
        return None
    label_a, label_b = unfold_a(pair[0])[0], unfold_b(pair[1])[0]
    word = _word(pred, pair, letters(a.tests, a.actions))
    bits = next(i for i, bit in enumerate(label_a) if bit != label_b[i])
    return word, join(word, GuardedString((Atom(a.tests.tests, bits),), ()))


def moore_difference(
    a: Union[GkatAutomaton, MooreAutomaton], b: Union[GkatAutomaton, MooreAutomaton]
) -> Optional[Tuple[Tuple[Atom, str], ...]]:
    """Shortest letter word after which the two machines' output rows
    differ, or None if they agree everywhere (same guarded language).
    Either machine may be guarded, read through its Moore unfolding."""
    found = _difference(a, b, (a.initial, b.initial))
    return None if found is None else found[0]


def moore_difference_gs(
    a: Union[GkatAutomaton, MooreAutomaton], b: Union[GkatAutomaton, MooreAutomaton]
) -> Optional[GuardedString]:
    """Like moore_difference, extended with the first atom whose output
    bit disagrees, making a complete guarded string."""
    found = _difference(a, b, (a.initial, b.initial))
    return None if found is None else found[1]


# ===== DOT output =====


def _dot_quote(s: str) -> str:
    s = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + s + '"'


def _dot(name: str, initial: int, nodes, edges) -> str:
    """Graphviz text in which state x is labelled nodes[x] and each edge
    (x, y, label) is an arrow."""
    lines = ["digraph %s {" % name, "  rankdir=LR;", "  node [shape=circle];"]
    lines.append("  init [shape=point];")
    lines += ["  s%d [label=%s];" % (x, _dot_quote(label)) for x, label in enumerate(nodes)]
    lines.append("  init -> s%d;" % initial)
    lines += ["  s%d -> s%d [label=%s];" % (x, y, _dot_quote(label)) for x, y, label in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def gkat_dot(aut: GkatAutomaton) -> str:
    """Graphviz rendering; accepting atoms are listed inside the node."""
    ats = atoms(aut.tests)
    nodes = [
        "\n".join(["x%d" % x] + ["%s | 1" % a for a, e in zip(ats, row) if e == 1])
        for x, row in enumerate(aut.delta)
    ]
    edges = [
        (x, e[1], "%s | %s" % (a, e[0]))
        for x, row in enumerate(aut.delta)
        for a, e in zip(ats, row)
        if isinstance(e, tuple)
    ]
    return _dot("gkat", aut.initial, nodes, edges)


def moore_dot(aut: MooreAutomaton) -> str:
    """Graphviz rendering; node labels carry the per-atom output bits."""
    ats = atoms(aut.tests)
    nodes = [
        "x%d\n%s" % (x, " + ".join("%d%s" % (bit, a) for bit, a in zip(row, ats)))
        for x, row in enumerate(aut.outputs)
    ]
    alphabet = letters(aut.tests, aut.actions)
    edges = [
        (x, y, "%s%s" % letter)
        for x, row in enumerate(aut.delta)
        for y, letter in zip(row, alphabet)
    ]
    return _dot("moore", aut.initial, nodes, edges)
