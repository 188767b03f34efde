"""Shared generators and independent oracles for the test suite."""
import csv
import io
import random
import re
from dataclasses import replace
from typing import List, Optional, Tuple

from gkat import (
    Act,
    And,
    GkatAutomaton,
    GuardedString,
    IfThenElse,
    Not,
    NotNormalError,
    One,
    Or,
    ParseError,
    Seq,
    Test,
    TestSet,
    While,
    Zero,
    accepts_gkat,
    atom_satisfies,
    atoms,
    format_event,
    normalize,
    word_to_str,
)
from gkat.automata import _bfs, _check_same_alphabet, _pairs, _split
from gkat.construct import _numbering, _Residuals
from gkat.syntax import (
    KEYWORDS,
    KONE,
    KZERO,
    KAct,
    KPlus,
    KStar,
    KTest,
    KZero,
    _check_names,
    is_bexp,
    kat_to_str,
    kseq,
)


def rand_bexp(rng: random.Random, tests: TestSet, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        choices = [Zero(), One()] + [Test(t) for t in tests]
        return rng.choice(choices)
    kind = rng.randrange(3)
    if kind == 0:
        return Not(rand_bexp(rng, tests, depth - 1))
    if kind == 1:
        return And(rand_bexp(rng, tests, depth - 1), rand_bexp(rng, tests, depth - 1))
    return Or(rand_bexp(rng, tests, depth - 1), rand_bexp(rng, tests, depth - 1))


def rand_exp(rng: random.Random, tests: TestSet, actions: Tuple[str, ...], depth: int):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return Act(rng.choice(actions))
        return rand_bexp(rng, tests, 1)
    kind = rng.randrange(3)
    if kind == 0:
        return Seq(
            rand_exp(rng, tests, actions, depth - 1),
            rand_exp(rng, tests, actions, depth - 1),
        )
    if kind == 1:
        return IfThenElse(
            rand_bexp(rng, tests, 2),
            rand_exp(rng, tests, actions, depth - 1),
            rand_exp(rng, tests, actions, depth - 1),
        )
    return While(rand_bexp(rng, tests, 2), rand_exp(rng, tests, actions, depth - 1))


def rand_automaton(
    rng: random.Random,
    tests: TestSet,
    actions: Tuple[str, ...],
    max_states: int,
) -> GkatAutomaton:
    """Random automaton, not necessarily normal."""
    n = rng.randint(1, max_states)
    n_atoms = 2 ** len(tests)
    delta = []
    for _ in range(n):
        row = []
        for _ in range(n_atoms):
            roll = rng.random()
            if roll < 0.25:
                row.append(1)
            elif roll < 0.5:
                row.append(0)
            else:
                row.append((rng.choice(actions), rng.randrange(n)))
        delta.append(tuple(row))
    return GkatAutomaton(tests, actions, tuple(delta), 0)


def rand_normal_automaton(rng, tests, actions, max_states) -> GkatAutomaton:
    return normalize(rand_automaton(rng, tests, actions, max_states))


def mutant(rng: random.Random, aut: GkatAutomaton) -> GkatAutomaton:
    """The automaton with one transition entry redrawn, normalized."""
    delta = [list(row) for row in aut.delta]
    x = rng.randrange(aut.n_states)
    delta[x][rng.randrange(len(delta[x]))] = rng.choice(
        [0, 1, (rng.choice(aut.actions), rng.randrange(aut.n_states))]
    )
    return normalize(replace(aut, delta=tuple(tuple(row) for row in delta)))


def renumbered(rng: random.Random, aut: GkatAutomaton) -> GkatAutomaton:
    """The same automaton with its states shuffled, initial state included."""
    perm = list(range(aut.n_states))
    rng.shuffle(perm)
    delta = [None] * aut.n_states
    for old, new in enumerate(perm):
        delta[new] = tuple(
            (e[0], perm[e[1]]) if isinstance(e, tuple) else e for e in aut.delta[old]
        )
    return GkatAutomaton(aut.tests, aut.actions, tuple(delta), perm[aut.initial])


def rand_live_normal_automaton(rng, tests, actions, max_states) -> GkatAutomaton:
    """Normal automaton whose initial state accepts at least one word."""
    while True:
        aut = rand_normal_automaton(rng, tests, actions, max_states)
        if any(aut.delta[aut.initial][a] != 0 for a in range(2 ** len(tests))):
            return aut


def rand_kat(rng: random.Random, tests: TestSet, actions: Tuple[str, ...], depth: int,
             plus):
    """Random KAT term whose sums are all built by `plus`."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.randrange(5)
        if roll < 2:
            return KAct(rng.choice(actions))
        if roll < 4:
            return KTest(rand_bexp(rng, tests, 1))
        return rng.choice([KZERO, KONE])
    kind = rng.randrange(3)
    if kind == 0:
        return kseq(*[rand_kat(rng, tests, actions, depth - 1, plus) for _ in range(2)])
    if kind == 1:
        n = rng.randint(0, 3)
        return plus(*[rand_kat(rng, tests, actions, depth - 1, plus) for _ in range(n)])
    return KStar(rand_kat(rng, tests, actions, depth - 1, plus))


def kplus_by_text(*terms):
    """KAT sum normalized by printed text: terms are deduplicated and sorted
    by `kat_to_str`, stored as a tuple; 0 is the unit."""
    flat = []
    for k in terms:
        if isinstance(k, KZero):
            continue
        if isinstance(k, KPlus):
            flat.extend(k.terms)
        else:
            flat.append(k)
    keyed = {}
    for k in flat:
        keyed.setdefault(kat_to_str(k), k)
    ordered = [keyed[key] for key in sorted(keyed)]
    if not ordered:
        return KZERO
    if len(ordered) == 1:
        return ordered[0]
    return KPlus(tuple(ordered))


def enumerate_guarded_strings(
    tests: TestSet, actions: Tuple[str, ...], max_actions: int
) -> List[GuardedString]:
    """All guarded strings with up to max_actions actions, canonical order."""
    ats = atoms(tests)
    level = [GuardedString((a,), ()) for a in ats]
    out = list(level)
    for _ in range(max_actions):
        nxt = []
        for w in level:
            for p in actions:
                for a in ats:
                    nxt.append(GuardedString(w.atoms + (a,), w.actions + (p,)))
        out.extend(nxt)
        level = nxt
    return out


def bounded_inclusion_violation(
    a: GkatAutomaton, x: int, b: GkatAutomaton, y: int, max_actions: int
) -> Optional[GuardedString]:
    """Search for a word of at most max_actions actions accepted from x but
    not from y, by a breadth-first product walk where the right side may
    fall off the automaton. Any witness found is replayed through
    accepts_gkat on both sides before being returned."""
    ats = atoms(a.tests)
    start = (x, y)
    frontier = {start: ()}
    seen = {start}
    for _ in range(max_actions + 1):
        nxt = {}
        for (u, v), path in frontier.items():
            for bits in range(len(ats)):
                e1 = a.delta[u][bits]
                e2 = None if v is None else b.delta[v][bits]
                if e1 == 1 and e2 != 1:
                    w = GuardedString(
                        tuple(at for at, _ in path) + (ats[bits],),
                        tuple(p for _, p in path),
                    )
                    assert accepts_gkat(a, x, w) == 1
                    assert accepts_gkat(b, y, w) == 0
                    return w
                if isinstance(e1, tuple):
                    p, u2 = e1
                    if isinstance(e2, tuple) and e2[0] == p:
                        v2 = e2[1]
                    else:
                        v2 = None
                    key = (u2, v2)
                    if key not in seen:
                        seen.add(key)
                        nxt[key] = path + ((ats[bits], p),)
        frontier = nxt
    return None


def similar_fixpoint(a: GkatAutomaton, b: GkatAutomaton) -> List[List[bool]]:
    """The simulation relation between all states of a and b, as the
    greatest fixpoint: start from all pairs and drop a pair while some atom
    has an accept of the left unmatched, or a step of the left not matched
    by a step of the right on the same action into a kept pair."""
    rel = [[True] * b.n_states for _ in range(a.n_states)]
    changed = True
    while changed:
        changed = False
        for u in range(a.n_states):
            for v in range(b.n_states):
                if not rel[u][v]:
                    continue
                for e1, e2 in zip(a.delta[u], b.delta[v]):
                    if e1 == 1 and e2 != 1 or isinstance(e1, tuple) and (
                        not isinstance(e2, tuple) or e1[0] != e2[0] or not rel[e1[1]][e2[1]]
                    ):
                        rel[u][v] = False
                        changed = True
                        break
    return rel


def refine_rounds(split, states):
    """Bisimilarity classes of `states`, a list closed under successors.

    Starts from the label partition and splits blocks by the blocks of
    their successors until nothing changes. Returns the block of each
    state, blocks numbered by first occurrence in `states`, and the first
    state of each block.
    """
    rows = [split(x) for x in states]
    keys = {}
    block = {x: keys.setdefault(label, len(keys)) for x, (label, _) in zip(states, rows)}
    while True:
        n_blocks = len(keys)
        keys = {}
        block = {
            x: keys.setdefault((block[x], tuple(map(block.__getitem__, succ))), len(keys))
            for x, (_, succ) in zip(states, rows)
        }
        if len(keys) == n_blocks:
            reps = []
            for x in states:
                if block[x] == len(reps):
                    reps.append(x)
            return block, reps


# The whole-machine routines as they were when each one read every state
# through `_split` once per pass, kept as the oracles that the table-reading
# versions are held to; `refine_rounds` stands in for `_refine`.


def _reference_live_states(aut):
    preds = [[] for _ in range(aut.n_states)]
    for x, row in enumerate(aut.delta):
        for e in row:
            if isinstance(e, tuple):
                preds[e[1]].append(x)
    stack = [x for x in range(aut.n_states) if 1 in aut.delta[x]]
    live = set(stack)
    while stack:
        for x in preds[stack.pop()]:
            if x not in live:
                live.add(x)
                stack.append(x)
    return live


def reference_is_normal(aut: GkatAutomaton) -> int:
    live = _reference_live_states(aut)
    return int(all(e[1] in live for row in aut.delta for e in row if isinstance(e, tuple)))


def reference_normalize(aut: GkatAutomaton) -> GkatAutomaton:
    live = _reference_live_states(aut)
    delta = tuple(
        tuple(0 if isinstance(e, tuple) and e[1] not in live else e for e in row)
        for row in aut.delta
    )
    return GkatAutomaton(aut.tests, aut.actions, delta, aut.initial)


def reference_minimize(aut: GkatAutomaton) -> GkatAutomaton:
    if not reference_is_normal(aut):
        raise NotNormalError("minimize needs a normal automaton")
    split = _split(aut)
    block, reps = refine_rounds(split, list(_bfs(split, aut.initial)))
    delta = tuple(
        tuple((e[0], block[e[1]]) if isinstance(e, tuple) else e for e in aut.delta[x])
        for x in reps
    )
    return GkatAutomaton(aut.tests, aut.actions, delta, block[aut.initial])


def reference_isomorphism(a, b, name, observable):
    """`automata._isomorphism` checking both inputs before the pair search."""
    _check_same_alphabet(a, b)
    for aut in (a, b):
        split = _split(aut)
        order = list(_bfs(split, aut.initial))
        if len(order) != aut.n_states:
            raise ValueError("%s needs reachable inputs" % name)
        if observable and len(refine_rounds(split, order)[1]) != aut.n_states:
            raise ValueError("%s needs observable inputs" % name)
    pred, differ = _pairs(_split(a), _split(b), (a.initial, b.initial), limit=a.n_states)
    if differ is not None or not len(pred) == a.n_states == b.n_states:
        return 0, None
    return 1, dict(pred.keys())


def all_rows_from_scratch(table) -> list:
    """The rows of an observation table, built afresh: the upper rows, then
    the fringe rows not already upper."""
    fringe = [s + (i,) for s in table.S for i in range(len(table.letters))]
    return list(dict.fromkeys(table.S + fringe))


def _text(value):
    return str(value) if isinstance(value, GuardedString) else word_to_str(value)


def snapshot_from_scratch(table):
    """The header and rows of `table.snapshot()`, every label and cell
    rendered afresh; upper rows are marked ` *`, cells not yet filled are
    empty. A GL* cell is its bit, an L* cell its output row's bits."""
    header = ["row"] + [_text(e) for e in table.E]
    body = []
    for t in all_rows_from_scratch(table):
        label = _text(table.word(t)) + (" *" if t in table.S else "")
        cells = [str(v) if isinstance(v, int) else "".join(map(str, v))
                 for v in table.cells.get(t, ())]
        body.append([label] + cells + [""] * (len(table.E) - len(cells)))
    return header, body


def csv_from_scratch(table) -> str:
    """A table file as `learn` wrote it through `csv.writer`: the rows of
    `snapshot_from_scratch`."""
    handle = io.StringIO(newline="")
    header, body = snapshot_from_scratch(table)
    writer = csv.writer(handle)
    writer.writerow(header)
    writer.writerows(body)
    return handle.getvalue()


def format_event_from_scratch(kind, payload) -> str:
    """`learning.format_event` as it rendered an `answers` event by one
    concatenation per query, each tail printed afresh; other kinds as
    `format_event` renders them."""
    if kind != "answers":
        return format_event(kind, payload)
    prefix, tails, bits = payload
    head = "QUERY " + "".join([str(a) + p for a, p in prefix])
    ends = (" → 0", " → 1")
    return "\n".join([head + str(e) + ends[bit] for e, bit in zip(tails, bits)])


# The parser that `syntax.parse_exp` replaced, kept as the oracle that the
# differential test holds the explicit-stack parser to.

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<zero>0)"
    r"|(?P<one>1)"
    r"|(?P<sym>[;()])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            value = m.group()
            if kind == "ident" and value in KEYWORDS:
                kind = "kw"
            tokens.append((kind, value, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, tests, actions):
        self.tokens = tokens
        self.i = 0
        self.tests = frozenset(tests)
        self.actions = frozenset(actions)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.peek()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError("expected %r, found %r" % (want, tok[1] or "end"), tok[2])
        return self.advance()

    def at_kw(self, word):
        tok = self.peek()
        return tok[0] == "kw" and tok[1] == word

    # expressions

    def parse_seq(self):
        left = self.parse_unit()
        if self.peek()[:2] == ("sym", ";"):
            self.advance()
            return Seq(left, self.parse_seq())
        return left

    def parse_unit(self):
        kind, value, pos = self.peek()
        if kind == "kw" and value == "do":
            self.advance()
            tok = self.expect("ident")
            if tok[1] not in self.actions:
                raise ParseError("unknown action %r" % tok[1], tok[2])
            return Act(tok[1])
        if kind == "kw" and value == "assert":
            self.advance()
            return self.parse_or()
        if kind == "kw" and value == "if":
            self.advance()
            cond = self.parse_or()
            self.expect("kw", "then")
            then_branch = self.parse_seq()
            self.expect("kw", "else")
            return IfThenElse(cond, then_branch, self.parse_seq())
        if kind == "kw" and value == "while":
            self.advance()
            cond = self.parse_or()
            self.expect("kw", "do")
            return While(cond, self.parse_seq())
        if kind == "sym" and value == "(":
            self.advance()
            inner = self.parse_seq()
            self.expect("sym", ")")
            return inner
        raise ParseError("expected a statement, found %r" % (value or "end"), pos)

    # guards

    def parse_or(self):
        left = self.parse_and()
        while self.at_kw("or"):
            self.advance()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.at_kw("and"):
            self.advance()
            left = And(left, self.parse_not())
        return left

    def parse_not(self):
        if self.at_kw("not"):
            self.advance()
            return Not(self.parse_not())
        return self.parse_batom()

    def parse_batom(self):
        kind, value, pos = self.peek()
        if kind == "zero":
            self.advance()
            return Zero()
        if kind == "one":
            self.advance()
            return One()
        if kind == "ident":
            if value not in self.tests:
                raise ParseError("unknown test %r" % value, pos)
            self.advance()
            return Test(value)
        if kind == "sym" and value == "(":
            self.advance()
            inner = self.parse_or()
            self.expect("sym", ")")
            return inner
        raise ParseError("expected a guard, found %r" % (value or "end"), pos)


def recursive_parse_exp(text, tests, actions):
    """`parse_exp` as a recursive-descent parser, one method per grammar rule."""
    _check_names(actions, "action")
    parser = _Parser(_tokenize(text), tests.tests, actions)
    e = parser.parse_seq()
    parser.expect("eof")
    return e


def recursive_parse_bexp(text, tests):
    """`parse_bexp` by the recursive-descent parser."""
    parser = _Parser(_tokenize(text), tests.tests, ())
    b = parser.parse_or()
    parser.expect("eof")
    return b


# The recursive derivative that `_Residuals.step` replaced, kept as the
# reference that the one-loop derivative is held to.

_ONE = One()


def _seq1(e, f):
    # sequencing with the unit dropped, so residuals stay small
    if isinstance(e, One):
        return f
    if isinstance(f, One):
        return e
    return Seq(e, f)


def _step(e, atom):
    """One-step behavior of a residual: 0, 1, or (action, next residual)."""
    if is_bexp(e):
        return atom_satisfies(atom, e)
    if isinstance(e, Act):
        return (e.name, _ONE)
    if isinstance(e, Seq):
        d = _step(e.left, atom)
        if isinstance(d, tuple):
            return (d[0], _seq1(d[1], e.right))
        if d == 1:
            return _step(e.right, atom)
        return 0
    if isinstance(e, IfThenElse):
        if atom_satisfies(atom, e.cond):
            return _step(e.then_branch, atom)
        return _step(e.else_branch, atom)
    if isinstance(e, While):
        if not atom_satisfies(atom, e.cond):
            return 1
        d = _step(e.body, atom)
        if isinstance(d, tuple):
            return (d[0], _seq1(d[1], e))
        return 0
    raise TypeError("not an expression: %r" % (e,))


class _ReferenceResiduals(_Residuals):
    def step(self, residual, atom):
        """`_step` of the residual as a tree, without building the tree."""
        e, tail = residual
        keys = []
        while True:
            d = _step(e, atom)
            if isinstance(d, tuple):
                d = (d[0], self.fold(d[1], tail))
                break
            if d == 0 or not tail:
                break
            key = (tail, atom.bits)
            hit = self.passed.get(key)
            if hit is not None:
                d = hit
                break
            keys.append(key)
            e, tail, _ = self.cells[tail]
        for key in keys:
            self.passed[key] = d
        return d


def reference_delta(e, tests):
    """The `delta` of `gkat_automaton(e, tests, ...)`, built with the
    recursive derivative; the caller allows for its recursion depth."""
    residuals = _ReferenceResiduals()
    number, queue = _numbering(residuals.fold(e, 0), 100_000, "residuals")
    ats = atoms(tests)
    delta = []
    while queue:
        cur = queue.popleft()
        row = []
        for atom in ats:
            d = residuals.step(cur, atom)
            row.append((d[0], number(d[1])) if isinstance(d, tuple) else d)
        delta.append(tuple(row))
    return tuple(delta)
