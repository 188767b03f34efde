"""Core syntax for guarded programs.

Boolean guards, program expressions, atoms (truth assignments over the
declared tests), guarded strings with fusion, letter words (tuples of
(atom, action) pairs, the dangling prefixes of guarded strings) with
`letters`, `join` and `word_to_str`, the embedding into plain KAT terms,
guard evaluation, the printers and the parser of the imperative syntax;
the last three are loops over explicit stacks and take any depth.

Expression, guard and KAT term nodes are immutable, and each node's hash
is fixed at construction from its children's stored hashes. Hashing a
node, for example to look a residual up in a dict, therefore costs O(1)
and never recurses, however deep the tree below it is. Equality walks
one explicit stack of node pairs, so it does not recurse either.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from operator import attrgetter
from typing import FrozenSet, List, Optional, Tuple

from .errors import CapacityError, ParseError

MACRON = "̄"  # combining overline, used to print negated tests

ATOM_LIMIT = 2 ** 20

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

KEYWORDS = frozenset(
    ["do", "assert", "if", "then", "else", "while", "not", "and", "or"]
)


def _check_names(names, what):
    seen = set()
    for name in names:
        if not _IDENT_RE.match(name) or name in KEYWORDS or name in ("0", "1"):
            raise ValueError("invalid %s name: %r" % (what, name))
        if name in seen:
            raise ValueError("duplicate %s name: %r" % (what, name))
        seen.add(name)


@dataclass(frozen=True)
class TestSet:
    """Ordered set of primitive test names; the order is canonical."""

    tests: Tuple[str, ...]

    def __post_init__(self):
        _check_names(self.tests, "test")

    def __len__(self):
        return len(self.tests)

    def __iter__(self):
        return iter(self.tests)


# ===== Boolean guards and program expressions =====


def _stored_hash(node):
    return node._hash


_FIELDS = {}  # node class -> the function from a node to its field tuple


def _equal(a, b) -> bool:
    """The dataclass equality of two nodes, by one explicit stack of pairs:
    identical pairs are equal, nodes of one class with different stored
    hashes differ, nodes of one class and tuples of one length are
    compared field by field (item by item), anything else by ==."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        fields_of = _FIELDS.get(x.__class__)
        if fields_of is not None and y.__class__ is x.__class__:
            if x._hash != y._hash:
                return False
            stack.extend(zip(fields_of(x), fields_of(y)))
        elif type(x) is tuple and type(y) is tuple and len(x) == len(y):
            stack.extend(zip(x, y))
        elif not x == y:
            return False
    return True


def _hash_once(cls):
    """Make a node class a frozen, slotted dataclass whose hash is fixed at
    construction.

    The stored hash equals the frozen dataclass hash of the field tuple;
    it is taken once, from the children's stored hashes, and a pickle
    holds only the fields, so loading one under any hash seed rehashes.
    Equality is the dataclass's, walked by `_equal` without recursion.
    """
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    if len(names) > 1:
        fields_of = attrgetter(*names)
    else:  # attrgetter of a single name returns the bare value

        def fields_of(node):
            return tuple(map(node.__getattribute__, names))

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(fields_of(self)))

    def __reduce__(self):
        return type(self), fields_of(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _equal(self, other)

    cls.__annotations__ = {**annotations, "_hash": "int"}
    cls._hash = field(init=False, repr=False, compare=False)
    cls.__post_init__ = __post_init__
    cls.__reduce__ = __reduce__
    cls.__eq__ = __eq__
    cls.__hash__ = _stored_hash
    cls = dataclass(frozen=True, slots=True)(cls)
    _FIELDS[cls] = fields_of
    return cls


class Exp:
    """Base class for program expressions."""

    __slots__ = ()

    def __str__(self):
        return exp_to_str(self)


class BExp(Exp):
    """Base class for boolean guards; guards are also expressions."""

    __slots__ = ()

    def __str__(self):
        return bexp_to_str(self)


@_hash_once
class Zero(BExp):
    pass


@_hash_once
class One(BExp):
    pass


@_hash_once
class Test(BExp):
    name: str


@_hash_once
class Not(BExp):
    arg: "BExp"


@_hash_once
class And(BExp):
    left: "BExp"
    right: "BExp"


@_hash_once
class Or(BExp):
    left: "BExp"
    right: "BExp"


@_hash_once
class Act(Exp):
    name: str


@_hash_once
class Seq(Exp):
    left: "Exp"
    right: "Exp"


@_hash_once
class IfThenElse(Exp):
    cond: "BExp"
    then_branch: "Exp"
    else_branch: "Exp"


@_hash_once
class While(Exp):
    cond: "BExp"
    body: "Exp"


def is_bexp(e: Exp) -> bool:
    return isinstance(e, BExp)


def _check_actions(e, actions) -> None:
    """Reject guarded expressions or KAT terms that use an action outside
    `actions`.

    The walk keeps its own stack, so deep trees do not recurse.
    """
    used = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, (Act, KAct)):
            used.add(x.name)
        elif isinstance(x, Seq):
            stack += (x.left, x.right)
        elif isinstance(x, IfThenElse):
            stack += (x.then_branch, x.else_branch)
        elif isinstance(x, While):
            stack.append(x.body)
        elif isinstance(x, KPlus):
            stack += x.terms
        elif isinstance(x, KSeq):
            stack += (x.head, x.tail)
        elif isinstance(x, KStar):
            stack.append(x.arg)
    _check_declared(used, actions)


def _check_declared(used, actions) -> None:
    """Reject the names in `used` that `actions` does not declare."""
    missing = set(used).difference(actions)
    if missing:
        raise ValueError("undeclared actions: %s" % ", ".join(sorted(missing)))


# ===== Atoms =====


@dataclass(frozen=True, order=True)
class Atom:
    """One truth assignment over an ordered test tuple.

    Bit i of `bits` (counted from the most significant, i.e. tests[0])
    records whether tests[i] holds. The hash is taken once, at construction.
    """

    tests: Tuple[str, ...]
    bits: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.tests, self.bits)))

    def __reduce__(self):
        return Atom, (self.tests, self.bits)

    __hash__ = _stored_hash

    def value(self, name: str) -> bool:
        if name not in self.tests:
            raise ValueError("unknown test: %r" % (name,))
        i = self.tests.index(name)
        return bool(self.bits >> (len(self.tests) - 1 - i) & 1)

    def __str__(self):
        return _atom_str(self.tests, self.bits)


@lru_cache(maxsize=4096)
def _atom_str(tests: Tuple[str, ...], bits: int) -> str:
    """The printed atom; cached, since traces print each atom many times."""
    if not tests:
        return "⊤"
    out = []
    for i, name in enumerate(tests):
        if bits >> (len(tests) - 1 - i) & 1:
            out.append(name)
        else:
            out.append(name + MACRON)
    return "".join(out)


def atoms(tests: TestSet) -> List[Atom]:
    """All atoms over the test set, in canonical order.

    Canonical order is lexicographic by test order with the negative
    assignment before the positive one, so for tests (b,) the order is
    [b̄, b]. More than ATOM_LIMIT atoms raise CapacityError.
    """
    n = len(tests.tests)
    count = 2 ** n
    if count > ATOM_LIMIT:
        raise CapacityError("2^%d atoms exceed the limit of %d" % (n, ATOM_LIMIT))
    return [Atom(tests.tests, bits) for bits in range(count)]


def letters(tests: TestSet, actions: Tuple[str, ...]) -> List[Tuple[Atom, str]]:
    """All (atom, action) letters in canonical order, atoms outermost; the
    letter at index i is Moore letter i."""
    return [(a, p) for a in atoms(tests) for p in actions]


def atom_satisfies(atom: Atom, b: BExp) -> int:
    """Evaluate a guard under an atom; returns 0 or 1. One loop: on the stack
    a compound guard's class lies below its operands and combines their values."""
    if b.__class__ is Test:
        return int(atom.value(b.name))
    stack, values = [b], []
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is Test:
            values.append(int(atom.value(x.name)))
        elif cls is Not and x.arg.__class__ is Test:
            values.append(1 - atom.value(x.arg.name))
        elif cls is Not:
            stack += (Not, x.arg)
        elif cls is And or cls is Or:
            stack += (cls, x.right, x.left)
        elif cls is One or cls is Zero:
            values.append(int(cls is One))
        elif x is Not:
            values[-1] ^= 1
        elif x is And or x is Or:
            v = values.pop()
            values[-1] = values[-1] & v if x is And else values[-1] | v
        else:
            raise TypeError("not a guard: %r" % (x,))
    return values[0]


# ===== Guarded strings =====


@dataclass(frozen=True)
class GuardedString:
    """Alternating word a0 p1 a1 ... pn an with one more atom than actions."""

    atoms: Tuple[Atom, ...]
    actions: Tuple[str, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.actions) + 1:
            raise ValueError("need exactly one more atom than actions")

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def first_atom(self) -> Atom:
        return self.atoms[0]

    @property
    def last_atom(self) -> Atom:
        return self.atoms[-1]

    def __str__(self):
        rest = "".join([p + str(a) for p, a in zip(self.actions, self.atoms[1:])])
        return str(self.atoms[0]) + rest


def join(word: tuple, tail: GuardedString) -> GuardedString:
    """Concatenate a letter word (a0, p1)(a1, p2)... and a guarded string;
    the tail's head atom follows the word's last action."""
    if not word:
        return tail
    heads, acts = zip(*word)
    return GuardedString(heads + tail.atoms, acts + tail.actions)


def word_to_str(word: tuple) -> str:
    """Print a letter word; the empty word prints as ε."""
    if not word:
        return "ε"
    return "".join(str(a) + p for a, p in word)


def fuse(v: GuardedString, w: GuardedString) -> Optional[GuardedString]:
    """Fusion product; None when the join atoms disagree."""
    if v.last_atom != w.first_atom:
        return None
    return GuardedString(v.atoms + w.atoms[1:], v.actions + w.actions)


def suffixes_gs(z: GuardedString) -> List[GuardedString]:
    """All guarded-string suffixes of z, longest first.

    The shortest is the single-atom string holding z's last atom; there
    are exactly len(z.atoms) of them.
    """
    return [
        GuardedString(z.atoms[i:], z.actions[i:]) for i in range(z.n_actions + 1)
    ]


def suffixes_word(w: tuple) -> List[tuple]:
    """All suffixes of a letter word, longest first, ending with ()."""
    return [w[i:] for i in range(len(w) + 1)]


# ===== Kleene algebra with tests terms =====


class KatExp:
    __slots__ = ()

    def __str__(self):
        return kat_to_str(self)


@_hash_once
class KZero(KatExp):
    pass


@_hash_once
class KOne(KatExp):
    pass


@_hash_once
class KTest(KatExp):
    arg: BExp


@_hash_once
class KAct(KatExp):
    name: str


@_hash_once
class KPlus(KatExp):
    """A sum whose terms are a set, printed sorted by their level-0 text."""
    terms: FrozenSet[KatExp]


@_hash_once
class KSeq(KatExp):
    head: KatExp  # the first factor: never a product, 0 or 1
    tail: KatExp  # the product of the rest, shared, or the last factor


@_hash_once
class KStar(KatExp):
    arg: KatExp


KZERO = KZero()
KONE = KOne()


def _factors(k: KatExp):
    """The factors of a product in order; any other term is its one factor."""
    while isinstance(k, KSeq):
        yield k.head
        k = k.tail
    yield k


def kseq(*parts: KatExp) -> KatExp:
    """Flattened product: 0 annihilates, 1 drops out, a last product stays the tail."""
    heads, tail = [], KONE
    for k in parts:
        if isinstance(k, KZero):
            return KZERO
        if not isinstance(k, KOne):
            heads += _factors(tail) if tail is not KONE else ()
            tail = k
    for head in reversed(heads):
        tail = KSeq(head, tail)
    return tail


def kplus(*terms: KatExp) -> KatExp:
    """Sum normalized up to associativity, commutativity and idempotence:
    nested sums are flattened, 0 (the unit) is dropped and the terms are a
    set, so equal sums are equal by value; printed sorted by level-0 text."""
    flat = set()
    for k in terms:
        if isinstance(k, KPlus):
            flat.update(k.terms)
        elif not isinstance(k, KZero):
            flat.add(k)
    if len(flat) > 1:
        return KPlus(frozenset(flat))
    return flat.pop() if flat else KZERO


def _guard_pos(b: BExp) -> KatExp:
    if isinstance(b, Zero):
        return KZERO
    if isinstance(b, One):
        return KONE
    return KTest(b)


def _guard_neg(b: BExp) -> KatExp:
    if isinstance(b, Zero):
        return KONE
    if isinstance(b, One):
        return KZERO
    return KTest(Not(b))


def embed_kat(e: Exp) -> KatExp:
    """Translate guarded syntax into a plain KAT term.

    Branching becomes a guarded sum b·e + b̄·f and looping becomes
    (b·e)*·b̄.
    """
    if is_bexp(e):
        return _guard_pos(e)
    if isinstance(e, Act):
        return KAct(e.name)
    if isinstance(e, Seq):
        return kseq(embed_kat(e.left), embed_kat(e.right))
    if isinstance(e, IfThenElse):
        return kplus(
            kseq(_guard_pos(e.cond), embed_kat(e.then_branch)),
            kseq(_guard_neg(e.cond), embed_kat(e.else_branch)),
        )
    if isinstance(e, While):
        return kseq(
            KStar(kseq(_guard_pos(e.cond), embed_kat(e.body))),
            _guard_neg(e.cond),
        )
    raise TypeError("not an expression: %r" % (e,))


# ===== Pretty printers =====

# Context levels: a guard under or, and or not; a statement, or the left
# operand of ";"; a KAT term in a sum, the tail of a product, or a factor.
_OR, _AND, _NOT, _STMT, _LEFT, _SUM, _TAIL, _FACTOR = range(8)

# Per node class: the highest context level at which it prints without
# brackets, and its parts in order: a text, or a (child, level) pair.
_SYNTAX = {
    Zero: (_FACTOR, lambda x: ("0",)),
    One: (_FACTOR, lambda x: ("1",)),
    Test: (_FACTOR, lambda x: (x.name,)),
    Not: (_NOT, lambda x: ("not ", (x.arg, _NOT))),
    And: (_AND, lambda x: ((x.left, _AND), " and ", (x.right, _NOT))),
    Or: (_OR, lambda x: ((x.left, _OR), " or ", (x.right, _AND))),
    Act: (_FACTOR, lambda x: ("do " + x.name,)),
    Seq: (_STMT, lambda x: ((x.left, _LEFT), "; ", (x.right, _STMT))),
    IfThenElse: (_STMT, lambda x: ("if ", (x.cond, _OR), " then ", (x.then_branch, _STMT),
                                   " else ", (x.else_branch, _STMT))),
    While: (_STMT, lambda x: ("while ", (x.cond, _OR), " do ", (x.body, _STMT))),
    KZero: (_FACTOR, lambda x: ("0",)),
    KOne: (_FACTOR, lambda x: ("1",)),
    KTest: (_FACTOR, lambda x: ("[", (x.arg, _OR), "]")),
    KAct: (_FACTOR, lambda x: (x.name,)),
    KStar: (_FACTOR, lambda x: ((x.arg, _FACTOR), "*")),
    KSeq: (_TAIL, lambda x: ((x.head, _FACTOR), "·", (x.tail, _TAIL))),
    KPlus: (_SUM, lambda x: [part for t in sorted(x.terms, key=kat_to_str)
                             for part in (" + ", (t, _FACTOR))][1:]),
}


def _parts(x, level):
    """The parts of node x at context `level`, bracketed if x binds looser
    than the context wants; a guard in a statement's place is an assert."""
    if _STMT <= level <= _LEFT and isinstance(x, BExp):
        return ("assert ", (x, _OR))
    bare, parts = _SYNTAX[x.__class__]
    return ("(", *parts(x), ")") if level > bare else parts(x)


def _print(x, level):
    """The text of node x at context `level`: one loop over an explicit
    stack of parts, so trees of any depth print. A sum's terms are sorted
    by their printed text, so sums nested in sums enter this loop again,
    once per level."""
    out, stack = [], [(x, level)]
    while stack:
        part = stack.pop()
        if part.__class__ is str:
            out.append(part)
        else:
            stack += reversed(_parts(*part))
    return "".join(out)


def bexp_to_str(b: BExp) -> str:
    return _print(b, _OR)


def exp_to_str(e: Exp) -> str:
    """Print in the imperative concrete syntax; parses back to the same tree."""
    return _print(e, _STMT)


def kat_to_str(k: KatExp) -> str:
    return _print(k, _SUM)


# ===== Parser =====

# One match per token, the whitespace before it skipped. A token's kind
# follows from its text: a keyword or a name starts with a letter or "_";
# every other token is one character, and an error unless it is in "01;()".
_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[01;()]|\S)")
_BINARY = {"and": And, "or": Or}


def _scan(text):
    """The tokens of `text`, then "" for its end. Trailing whitespace is cut:
    `findall` would take quadratic time to find no token in it."""
    tokens = _TOKEN_RE.findall(text.rstrip())
    bad = [t for t in set(tokens) if t not in "01;()" and not _IDENT_RE.match(t)]
    if bad:
        i = min(map(tokens.index, bad))
        raise _error(text, i, "unexpected character %r" % tokens[i])
    tokens.append("")
    return tokens


def _error(text, i, message):
    """A ParseError at token i; token positions are found only here."""
    m = next(islice(_TOKEN_RE.finditer(text.rstrip()), i, None), None)
    return ParseError(message, m.start(1) if m else len(text))


def _expected(text, tokens, i, want):
    return _error(text, i, "expected %r, found %r" % (want, tokens[i] or "end"))


def _is_name(token):
    return _IDENT_RE.match(token) and token not in KEYWORDS


def _parse_guard(text, tokens, i, leaves):
    """Parse the guard at token i by precedence climbing; return it and the
    index of the token after it. `not` binds tightest, then `and`, then
    `or`, both left-associative. Above the bottom None the stack holds "("
    and the pending operators: (Not,), and (And or Or, left operand).
    """
    stack = [None]
    while True:
        tok = tokens[i]
        i += 1
        if tok == "(" or tok == "not":
            stack.append(tok if tok == "(" else (Not,))
            continue
        b = leaves.get(tok)
        if b is None:
            raise _error(text, i - 1, "unknown test %r" % tok if _is_name(tok)
                         else "expected a guard, found %r" % (tok or "end"))
        while True:  # b is a whole operand, and tokens[i] follows it
            op = _BINARY.get(tokens[i])
            top = stack[-1]
            while top.__class__ is tuple and (op is not And or top[0] is not Or):
                stack.pop()
                b = top[0](*top[1:], b)
                top = stack[-1]
            if op:
                stack.append((op, b))
                i += 1
                break
            if top is None:
                return b, i
            if tokens[i] != ")":
                raise _expected(text, tokens, i, ")")
            stack.pop()
            i += 1


def _leaves(tests):
    return {**{name: Test(name) for name in tests.tests}, "0": Zero(), "1": One()}


def parse_exp(text: str, tests: TestSet, actions: Tuple[str, ...]) -> Exp:
    """Parse imperative concrete syntax against declared tests and actions.

    One loop over an explicit stack, so depth is bounded by memory, not by
    the interpreter stack. The stack holds (node class, operands) for a
    node to build once the statement it awaits is whole, and (token,
    operands) for the token that must then follow: "", ")" or "else".
    """
    _check_names(actions, "action")
    acts = {name: Act(name) for name in actions}
    leaves = _leaves(tests)
    tokens = _scan(text)
    stack = [("",)]
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tok == "do":
            e = acts.get(tokens[i])
            if e is None:
                raise (_error(text, i, "unknown action %r" % tokens[i])
                       if _is_name(tokens[i]) else _expected(text, tokens, i, "ident"))
            i += 1
        elif tok == "assert":
            e, i = _parse_guard(text, tokens, i, leaves)
        elif tok == "if" or tok == "while":
            cond, i = _parse_guard(text, tokens, i, leaves)
            want = "then" if tok == "if" else "do"
            if tokens[i] != want:
                raise _expected(text, tokens, i, want)
            stack.append(("else", cond) if tok == "if" else (While, cond))
            i += 1
            continue
        elif tok == "(":
            stack.append((")",))
            continue
        else:
            raise _error(text, i - 1, "expected a statement, found %r" % (tok or "end"))
        while True:  # e is a whole statement, and tokens[i] follows it
            tok = tokens[i]
            if tok == ";":
                stack.append((Seq, e))
                i += 1
                break
            top = stack[-1]
            while top[0].__class__ is not str:
                stack.pop()
                e = top[0](*top[1:], e)
                top = stack[-1]
            if tok != top[0]:
                raise _expected(text, tokens, i, top[0] or "eof")
            if not tok:
                return e
            i += 1
            if tok == "else":
                stack[-1] = (IfThenElse, top[1], e)
                break
            stack.pop()


def parse_bexp(text: str, tests: TestSet) -> BExp:
    """Parse a bare guard."""
    tokens = _scan(text)
    b, i = _parse_guard(text, tokens, 0, _leaves(tests))
    if tokens[i]:
        raise _expected(text, tokens, i, "eof")
    return b
