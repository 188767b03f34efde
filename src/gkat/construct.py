"""Compiling expressions into automata.

Both constructions take syntactic derivatives and explore the reachable
residuals breadth-first: guarded expressions become guarded automata
directly, and plain KAT terms become Moore machines via Brzozowski-style
derivatives over (atom, action) letters. A KAT product is a head and a
shared tail, so the derivative d(head)·tail of a product copies no tail.

A guarded residual is a left-nested sequence Seq(...Seq(Seq(h, r1), r2)
..., rn): each loop turn wraps the residual in one more Seq, so on n
nested loops residuals grow to depth n, and building each one as a tree
copies its whole left spine, O(n^2) live nodes in all. `gkat_automaton`
instead keeps a residual as its head h, which is no Seq, and an interned
list of the pending right operands r1, ..., rn, so residuals share their
tails and a step adds only the few operands it exposes. The encoding is
a bijection on trees, so residuals are identified exactly as trees
would be. `_Residuals.step`, the guarded derivative, and guard evaluation
are loops with their own stacks, and the step builds no tree.

The machines come out as built, not normalized: a residual whose language
is empty keeps its state. Both constructions raise CapacityError past
STATE_LIMIT states, read when they run.
"""
from __future__ import annotations

from collections import deque
from typing import Tuple

from .errors import CapacityError
from .automata import GkatAutomaton, MooreAutomaton
from .syntax import (
    Act,
    Exp,
    IfThenElse,
    KAct,
    KOne,
    KPlus,
    KSeq,
    KStar,
    KTest,
    KZero,
    KZERO,
    KONE,
    KatExp,
    One,
    Seq,
    TestSet,
    While,
    _check_actions,
    _factors,
    atom_satisfies,
    atoms,
    kplus,
    kseq,
    letters,
)

STATE_LIMIT = 100_000

_ONE = One()


class _Residuals:
    """Residuals of one construction, as (head, tail) pairs.

    A tail is an int: 0 is the empty list, and any other tail is the
    index of its cell (operand, rest, holds_one) in `cells`, interned so
    that equal lists get the same index. `holds_one` says whether One
    occurs anywhere in the list. `passed` memoizes `step` past a head that
    passes the atom: the result then depends only on (tail, atom bits).
    """

    def __init__(self):
        self.cells = [(None, 0, False)]
        self.ids = {}
        self.passed = {}

    def cons(self, r: Exp, rest: int) -> int:
        key = (r, rest)
        tail = self.ids.get(key)
        if tail is None:
            tail = self.ids[key] = len(self.cells)
            self.cells.append((r, rest, isinstance(r, One) or self.cells[rest][2]))
        return tail

    def fold(self, x: Exp, tail: int):
        """The residual x followed by the operands of tail, with the unit
        dropped: a One x is replaced by the next operand, and One operands
        after it are dropped."""
        cells = self.cells
        if isinstance(x, One):
            while tail and isinstance(cells[tail][0], One):
                tail = cells[tail][1]
            if not tail:
                return (x, 0)
            x, tail, _ = cells[tail]
        if cells[tail][2]:
            kept = []
            while cells[tail][2]:
                r, tail, _ = cells[tail]
                if not isinstance(r, One):
                    kept.append(r)
            for r in reversed(kept):
                tail = self.cons(r, tail)
        spine = []
        while isinstance(x, Seq):
            spine.append(x.right)
            x = x.left
        for r in spine:
            tail = self.cons(r, tail)
        return (x, tail)

    def step(self, residual, atom):
        """One-step behavior of a residual: 0, 1, or (action, next residual).

        One loop walks the head and stacks the operands it exposes: a Seq
        its right operand, and a loop whose guard holds itself, as the
        continuation of its body. A pass pops the stack, then walks the
        tail; on an action the stack goes onto the tail, innermost first."""
        e, tail = residual
        keys, stack = [], []
        loop = None  # stack depth with the innermost loop continuation on top
        while True:
            if isinstance(e, Act):
                for r in stack:
                    tail = self.cons(r, tail)
                d = (e.name, self.fold(_ONE, tail))
                break
            if isinstance(e, Seq):
                stack.append(e.right)
                e = e.left
            elif isinstance(e, IfThenElse):
                e = e.then_branch if atom_satisfies(atom, e.cond) else e.else_branch
            elif isinstance(e, While) and atom_satisfies(atom, e.cond):
                stack.append(e)
                loop = len(stack)
                e = e.body
            elif len(stack) == loop:
                d = 0  # a loop body passed without an action
                break
            elif not isinstance(e, While) and not atom_satisfies(atom, e):
                d = 0  # a test fails (a While here is one whose guard failed)
                break
            elif stack:
                e = stack.pop()
            elif not tail:
                d = 1
                break
            else:
                key = (tail, atom.bits)
                d = self.passed.get(key)
                if d is not None:
                    break
                keys.append(key)
                e, tail, _ = self.cells[tail]
        for key in keys:
            self.passed[key] = d
        return d


def _numbering(start, max_states: int, what: str):
    """State 0 is start; number(s) numbers and queues s when it is new,
    and raises CapacityError past max_states. Returns (number, queue)."""
    index = {start: 0}
    queue = deque([start])

    def number(s) -> int:
        i = index.get(s)
        if i is None:
            if len(index) >= max_states:
                raise CapacityError("more than %d %s" % (max_states, what))
            i = index[s] = len(index)
            queue.append(s)
        return i

    return number, queue


def gkat_automaton(e: Exp, tests: TestSet, actions: Tuple[str, ...]) -> GkatAutomaton:
    """The derivative automaton of e; state 0 is e itself."""
    _check_actions(e, actions)
    ats = atoms(tests)
    residuals = _Residuals()
    number, queue = _numbering(residuals.fold(e, 0), STATE_LIMIT, "residuals")
    delta = []
    while queue:
        cur = queue.popleft()
        row = []
        for atom in ats:
            d = residuals.step(cur, atom)
            row.append((d[0], number(d[1])) if isinstance(d, tuple) else d)
        delta.append(tuple(row))
    return GkatAutomaton(tests, tuple(actions), tuple(delta), 0)


# ===== KAT derivatives =====


def _kat_eps(k: KatExp, atom) -> int:
    if isinstance(k, KZero):
        return 0
    if isinstance(k, (KOne, KStar)):
        return 1
    if isinstance(k, KTest):
        return atom_satisfies(atom, k.arg)
    if isinstance(k, KAct):
        return 0
    if isinstance(k, KPlus):
        for t in k.terms:
            if _kat_eps(t, atom):
                return 1
        return 0
    if isinstance(k, KSeq):
        for part in _factors(k):
            if not _kat_eps(part, atom):
                return 0
        return 1
    raise TypeError("not a KAT term: %r" % (k,))


def _kat_deriv(k: KatExp, atom, action: str) -> KatExp:
    if isinstance(k, (KZero, KOne, KTest)):
        return KZERO
    if isinstance(k, KAct):
        return KONE if k.name == action else KZERO
    if isinstance(k, KPlus):
        return kplus(*[_kat_deriv(t, atom, action) for t in k.terms])
    if isinstance(k, KSeq):
        first = kseq(_kat_deriv(k.head, atom, action), k.tail)
        if _kat_eps(k.head, atom):
            return kplus(first, _kat_deriv(k.tail, atom, action))
        return first
    if isinstance(k, KStar):
        return kseq(_kat_deriv(k.arg, atom, action), k)
    raise TypeError("not a KAT term: %r" % (k,))


def kat_moore_automaton(k: KatExp, tests: TestSet, actions: Tuple[str, ...]) -> MooreAutomaton:
    """The derivative Moore machine of a KAT term; state 0 is k itself."""
    _check_actions(k, actions)
    ats = atoms(tests)
    alphabet = letters(tests, actions)
    number, queue = _numbering(k, STATE_LIMIT, "derivatives")
    delta = []
    outputs = []
    while queue:
        cur = queue.popleft()
        outputs.append(tuple(_kat_eps(cur, atom) for atom in ats))
        delta.append(tuple(number(_kat_deriv(cur, atom, p)) for atom, p in alphabet))
    return MooreAutomaton(tests, tuple(actions), tuple(delta), tuple(outputs), 0)


# ===== Hand-built examples =====


def unrolled_while_automaton() -> GkatAutomaton:
    """Three-state automaton for '(while b do p); do q' in which the loop
    state exists twice; the two copies are bisimilar, so minimization
    merges them into a two-state machine."""
    tests = TestSet(("b",))
    b_false, b_true = 0, 1
    row_loop = [None, None]
    row_loop[b_true] = ("p", 1)
    row_loop[b_false] = ("q", 2)
    delta = (
        tuple(row_loop),
        tuple(row_loop),
        (1, 1),
    )
    return GkatAutomaton(tests, ("p", "q"), delta, 0)
