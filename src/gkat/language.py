"""Bounded guarded-string semantics, and the words of a guarded automaton.

`denote` is the brute-force reference interpretation: every operation is
computed on explicit sets of guarded strings with at most k actions. It
is ground truth for the automaton constructions and the learners, not a
decision procedure. `automaton_words`, behind `gkat words`, lists the
words of a guarded automaton up to k actions in canonical order.
"""
from __future__ import annotations

from itertools import chain
from typing import FrozenSet, Iterator, Tuple

from .errors import CapacityError
from .syntax import (
    Act,
    Exp,
    GuardedString,
    IfThenElse,
    Seq,
    TestSet,
    While,
    _check_actions,
    atom_satisfies,
    atoms,
    fuse,
    is_bexp,
)

WORD_LIMIT = 1_000_000


def _fuse_sets(left, right, k, cap):
    by_head = {}
    for w in right:
        by_head.setdefault(w.first_atom, []).append(w)
    out = set()
    for v in left:
        for w in by_head.get(v.last_atom, ()):
            u = fuse(v, w)
            if u.n_actions <= k:
                out.add(u)
        if len(out) > cap:
            raise CapacityError("bounded language exceeds %d words" % cap)
    return out


def _denote(e, k, ats, cap):
    if is_bexp(e):
        return {GuardedString((a,), ()) for a in ats if atom_satisfies(a, e)}
    if isinstance(e, Act):
        if k < 1:
            return set()
        return {GuardedString((a, b), (e.name,)) for a in ats for b in ats}
    if isinstance(e, Seq):
        left = _denote(e.left, k, ats, cap)
        right = _denote(e.right, k, ats, cap)
        return _fuse_sets(left, right, k, cap)
    if isinstance(e, IfThenElse):
        then_words = _denote(e.then_branch, k, ats, cap)
        else_words = _denote(e.else_branch, k, ats, cap)
        out = {w for w in then_words if atom_satisfies(w.first_atom, e.cond)}
        out |= {w for w in else_words if not atom_satisfies(w.first_atom, e.cond)}
        return out
    if isinstance(e, While):
        body = _denote(e.body, k, ats, cap)
        guarded = {w for w in body if atom_satisfies(w.first_atom, e.cond)}
        # least fixpoint of the loop-prefix set, truncated at k actions
        prefixes = {GuardedString((a,), ()) for a in ats}
        frontier = set(prefixes)
        while frontier:
            new = _fuse_sets(frontier, guarded, k, cap) - prefixes
            prefixes |= new
            if len(prefixes) > cap:
                raise CapacityError("bounded language exceeds %d words" % cap)
            frontier = new
        return {v for v in prefixes if not atom_satisfies(v.last_atom, e.cond)}
    raise TypeError("not an expression: %r" % (e,))


def denote(e: Exp, k: int, tests: TestSet, actions: Tuple[str, ...]) -> FrozenSet[GuardedString]:
    """Compute the semantics of e cut off at k actions; any intermediate
    set of more than WORD_LIMIT words raises CapacityError."""
    if k < 0:
        raise ValueError("the action bound must be non-negative, got %d" % k)
    _check_actions(e, actions)
    ats = atoms(tests)
    return frozenset(_denote(e, k, ats, WORD_LIMIT))


def member(e: Exp, w: GuardedString, tests: TestSet, actions: Tuple[str, ...]) -> int:
    """Decide membership of one guarded string by bounded enumeration."""
    return int(w in denote(e, w.n_actions, tests, actions))


def automaton_words(aut, k: int) -> Iterator[GuardedString]:
    """Yield the words of a guarded automaton with at most k actions, fewest
    actions first, then atom by atom. counts[n][x] is the number of words with
    n actions from x; counting stops at k, at a row of zeros, or past
    WORD_LIMIT words from the initial state (CapacityError before any word).
    From the first row seen twice the rows repeat: the rest of the total up
    to k is summed over that period, rows past it are read from it, and
    only lengths with words from the initial state are walked."""
    delta, ats, x0 = aut.delta, atoms(aut.tests), aut.initial
    counts, total, row, first = [], 0, tuple(r.count(1) for r in delta), {}
    while len(counts) <= k and any(row) and row not in first and total <= WORD_LIMIT:
        first[row] = len(counts)
        counts.append(row)
        total += row[x0]
        row = tuple(sum(row[e[1]] for e in r if e.__class__ is tuple) for r in delta)
    lengths, at = range(len(counts)), counts.__getitem__
    if len(counts) <= k and row in first:  # from length s on, length m has cycle[(m - s) % p]
        s, cycle = len(counts), counts[first[row]:]
        p, hits = len(cycle), [i for i, r in enumerate(cycle) if r[x0]]
        full, part = divmod(k + 1 - s, p)
        total += sum(cycle[i][x0] * (full + (i < part)) for i in hits)
        lengths = chain(lengths, (m for j in range(s, k + 1 if hits else s, p)
                                  for m in (j + i for i in hits) if m <= k))
        at = lambda m: counts[m] if m < s else cycle[(m - s) % p]
    if total > WORD_LIMIT:
        raise CapacityError("bounded language exceeds %d words" % WORD_LIMIT)
    for n in lengths:
        stack = [(x0, n, None)]  # state, actions left, link to the letters read
        while stack:
            x, left, link = stack.pop()
            if left:  # step only where words of the length left remain
                below = at(left - 1)
                for a, e in zip(reversed(ats), reversed(delta[x])):
                    if e.__class__ is tuple and below[e[1]]:
                        stack.append((e[1], left - 1, (link, (a, e[0]))))
                continue
            word = []
            while link:
                link, letter = link
                word.append(letter)
            heads, acts = tuple(zip(*word[::-1])) or ((), ())
            for a, e in zip(ats, delta[x]):
                if e == 1:
                    yield GuardedString(heads + (a,), acts)


def is_deterministic(words) -> int:
    """Check the no-branching property of guarded languages: words that agree
    on their first n atoms agree on what follows (an action, or the end).
    `follows` maps (prefix id, next atom) to that and the longer prefix's id."""
    follows = {}
    for w in words:
        prefix = 0
        for a, p in zip(w.atoms, w.actions + (None,)):
            q, prefix = follows.setdefault((prefix, a), (p, len(follows) + 1))
            if q != p:
                return 0
    return 1
