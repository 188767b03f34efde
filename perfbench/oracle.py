"""Reference checks that share no code with the automata layer.

`accepts` runs a program on one guarded string by direct execution of the
syntax tree: guarded programs are deterministic, so one pass over the word
decides membership. It stands in for bounded `gkat.member` on the long
witnesses of the nested-loop workload, where enumerating every word up to
the witness length is out of reach. `run_delta` replays a word on a
guarded automaton's transition table.
"""
from __future__ import annotations

from gkat.syntax import Act, IfThenElse, Seq, While, atom_satisfies, is_bexp


def accepts(e, w) -> int:
    """1 iff the program e accepts the guarded string w."""
    i = 0
    stack = [(e, None)]
    while stack:
        x, loop_start = stack.pop()
        atom = w.atoms[i]
        if is_bexp(x):
            if not atom_satisfies(atom, x):
                return 0
        elif isinstance(x, Act):
            if i >= len(w.actions) or w.actions[i] != x.name:
                return 0
            i += 1
        elif isinstance(x, Seq):
            stack.append((x.right, None))
            stack.append((x.left, None))
        elif isinstance(x, IfThenElse):
            branch = x.then_branch if atom_satisfies(atom, x.cond) else x.else_branch
            stack.append((branch, None))
        elif isinstance(x, While):
            if atom_satisfies(atom, x.cond):
                # a body pass that consumes no action would repeat forever
                if loop_start == i:
                    return 0
                stack.append((x, i))
                stack.append((x.body, None))
        else:
            raise TypeError("not an expression: %r" % (x,))
    return int(i == len(w.actions))


def run_delta(aut, w) -> int:
    """1 iff the guarded automaton accepts w from its initial state."""
    x = aut.initial
    for atom, action in zip(w.atoms, w.actions):
        entry = aut.delta[x][atom.bits]
        if not isinstance(entry, tuple) or entry[0] != action:
            return 0
        x = entry[1]
    return int(aut.delta[x][w.atoms[-1].bits] == 1)
