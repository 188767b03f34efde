"""Bounded guarded-string semantics.

This is the brute-force reference interpretation: every operation is
computed on explicit sets of guarded strings with at most k actions.
It is meant as ground truth for the automaton constructions and the
learners, not as an efficient decision procedure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from .errors import CapacityError
from .syntax import (
    Act,
    Atom,
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


@dataclass(frozen=True)
class BoundedLanguage:
    """All members of a language up to an action bound."""

    words: FrozenSet[GuardedString]

    def __contains__(self, w: GuardedString) -> bool:
        return w in self.words

    def __len__(self):
        return len(self.words)

    def sorted_words(self, actions: Tuple[str, ...]) -> List[GuardedString]:
        return sorted(self.words, key=lambda w: word_sort_key(w, actions))


def word_sort_key(w: GuardedString, actions: Tuple[str, ...]):
    """Canonical order: by action count, then lexicographic position-wise."""
    key = [w.n_actions]
    for a, p in zip(w.atoms, w.actions):
        key.append(a.bits)
        key.append(actions.index(p))
    key.append(w.atoms[-1].bits)
    return tuple(key)


def _single(a: Atom) -> GuardedString:
    return GuardedString((a,), ())


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
        return {_single(a) for a in ats if atom_satisfies(a, e)}
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
        prefixes = {_single(a) for a in ats}
        frontier = set(prefixes)
        while frontier:
            new = _fuse_sets(frontier, guarded, k, cap) - prefixes
            prefixes |= new
            if len(prefixes) > cap:
                raise CapacityError("bounded language exceeds %d words" % cap)
            frontier = new
        return {v for v in prefixes if not atom_satisfies(v.last_atom, e.cond)}
    raise TypeError("not an expression: %r" % (e,))


def denote(e: Exp, k: int, tests: TestSet, actions: Tuple[str, ...]) -> BoundedLanguage:
    """Compute the semantics of e cut off at k actions; any intermediate
    set of more than WORD_LIMIT words raises CapacityError."""
    if k < 0:
        raise ValueError("the action bound must be non-negative, got %d" % k)
    _check_actions(e, actions)
    ats = atoms(tests)
    return BoundedLanguage(frozenset(_denote(e, k, ats, WORD_LIMIT)))


def member(e: Exp, w: GuardedString, tests: TestSet, actions: Tuple[str, ...]) -> int:
    """Decide membership of one guarded string by bounded enumeration."""
    return int(w in denote(e, w.n_actions, tests, actions).words)


def is_deterministic(words) -> int:
    """Check the no-branching property of guarded languages.

    Two words that agree on their first n atoms must agree on their first
    n actions, or both stop before an n-th action.
    """
    return _det([(w.atoms, w.actions) for w in words])


def _det(pairs) -> int:
    groups = {}
    for ats, acts in pairs:
        groups.setdefault(ats[0], []).append((ats, acts))
    for group in groups.values():
        enders = [g for g in group if not g[1]]
        steppers = [g for g in group if g[1]]
        if enders and steppers:
            return 0
        if steppers:
            if len({acts[0] for _, acts in steppers}) > 1:
                return 0
            if not _det([(ats[1:], acts[1:]) for ats, acts in steppers]):
                return 0
    return 1
