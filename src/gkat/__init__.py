"""Learning and equivalence toolkit for guarded programs.

Guarded Kleene algebra with tests: syntax and parsing, bounded
guarded-string semantics, guarded automata and Moore machines with
minimization, derivative-based constructions, and active learners with
black-box teachers.
"""

from .errors import (
    CapacityError,
    InternalInconsistencyError,
    NotClosedError,
    NotNormalError,
    ParseError,
)
from .syntax import (
    Act,
    And,
    Atom,
    BExp,
    Exp,
    GuardedString,
    IfThenElse,
    Not,
    One,
    Or,
    Seq,
    Test,
    TestSet,
    While,
    Zero,
    atom_satisfies,
    atoms,
    bexp_to_str,
    embed_kat,
    exp_to_str,
    fuse,
    is_bexp,
    join,
    kat_to_str,
    letters,
    parse_bexp,
    parse_exp,
    suffixes_gs,
    suffixes_word,
    word_to_str,
)
from .language import automaton_words, denote, is_deterministic, member
from .automata import (
    GkatAutomaton,
    MooreAutomaton,
    accepts_gkat,
    bisimilar,
    embed_moore,
    gkat_dot,
    is_normal,
    isomorphic,
    minimize,
    minimize_moore,
    moore_difference,
    moore_difference_gs,
    moore_dot,
    moore_isomorphic,
    moore_reachable,
    normalize,
    reachable,
    run_gkat_prefix,
    similar,
)
from .construct import (
    gkat_automaton,
    kat_moore_automaton,
    unrolled_while_automaton,
)
from .learning import (
    GlObservationTable,
    GkatTeacher,
    LStarObservationTable,
    MooreTeacher,
    QueryStats,
    Teacher,
    format_event,
    glstar,
    lstar_moore,
    optimized_counterexample,
)

__version__ = "0.1.0"
