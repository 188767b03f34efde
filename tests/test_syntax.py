import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import gkat.syntax
from gkat import (
    Act,
    And,
    CapacityError,
    GuardedString,
    IfThenElse,
    Not,
    One,
    Or,
    ParseError,
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
    join,
    parse_bexp,
    parse_exp,
    suffixes_gs,
    suffixes_word,
    word_to_str,
)
from gkat.syntax import (
    KEYWORDS,
    KAct,
    KPlus,
    KSeq,
    KStar,
    KTest,
    KONE,
    KZERO,
    kat_to_str,
    kplus,
    kseq,
)
from helpers import rand_bexp, rand_exp, recursive_parse_bexp, recursive_parse_exp

T1 = TestSet(("b",))
T2 = TestSet(("a", "b"))
ACTS = ("p", "q")
ATS2 = atoms(T2)


# ===== atoms =====

def test_atoms_canonical_order_single_test():
    ats = atoms(T1)
    assert len(ats) == 2
    assert [str(a) for a in ats] == ["b̄", "b"]
    assert ats[0].value("b") is False
    assert ats[1].value("b") is True
    assert [a.bits for a in ats] == [0, 1]


def test_atoms_canonical_order_two_tests():
    # negative before positive, first test most significant
    names = [str(a) for a in atoms(T2)]
    assert names == ["āb̄", "āb", "ab̄", "ab"]


def test_atoms_capacity(monkeypatch):
    monkeypatch.setattr(gkat.syntax, "ATOM_LIMIT", 3)
    with pytest.raises(CapacityError):
        atoms(T2)


def test_empty_test_set_has_one_atom():
    ats = atoms(TestSet(()))
    assert len(ats) == 1


def test_atom_unknown_test():
    with pytest.raises(ValueError):
        atoms(T1)[0].value("c")


def test_atom_satisfies_basics():
    neg, pos = atoms(T1)
    assert atom_satisfies(pos, Test("b")) == 1
    assert atom_satisfies(neg, Test("b")) == 0
    assert atom_satisfies(neg, Zero()) == 0
    assert atom_satisfies(pos, One()) == 1
    assert atom_satisfies(neg, Not(Test("b"))) == 1
    assert atom_satisfies(pos, And(Test("b"), Not(Test("b")))) == 0
    assert atom_satisfies(pos, Or(Zero(), Test("b"))) == 1


bexps = st.recursive(
    st.sampled_from([Zero(), One(), Test("a"), Test("b")]),
    lambda child: st.one_of(
        st.builds(Not, child),
        st.builds(And, child, child),
        st.builds(Or, child, child),
    ),
    max_leaves=12,
)


@given(bexps, bexps)
@settings(max_examples=60)
def test_de_morgan_under_every_atom(x, y):
    for a in ATS2:
        assert atom_satisfies(a, Not(And(x, y))) == atom_satisfies(
            a, Or(Not(x), Not(y))
        )
        assert atom_satisfies(a, Not(Or(x, y))) == atom_satisfies(
            a, And(Not(x), Not(y))
        )


@given(bexps)
@settings(max_examples=60)
def test_excluded_middle_under_every_atom(x):
    for a in ATS2:
        assert atom_satisfies(a, Or(x, Not(x))) == 1
        assert atom_satisfies(a, And(x, Not(x))) == 0


# ===== guarded strings =====

def _gs(text_atoms, actions):
    return GuardedString(tuple(text_atoms), tuple(actions))


NEG, POS = atoms(T1)


def test_guarded_string_shape():
    with pytest.raises(ValueError):
        GuardedString((NEG,), ("p",))
    w = _gs((POS, NEG), ("p",))
    assert w.n_actions == 1
    assert str(w) == "bpb̄"


def test_fuse_defined_and_undefined():
    v = _gs((POS, NEG), ("p",))
    w = _gs((NEG, POS), ("q",))
    u = fuse(v, w)
    assert u is not None
    assert str(u) == "bpb̄qb"
    assert fuse(v, v) is None  # boundary atoms disagree: b̄ then b


gstrings = st.builds(
    lambda pairs, last: GuardedString(
        tuple(a for a, _ in pairs) + (last,), tuple(p for _, p in pairs)
    ),
    st.lists(st.tuples(st.sampled_from(ATS2), st.sampled_from(ACTS)), max_size=4),
    st.sampled_from(ATS2),
)


@given(gstrings, gstrings, gstrings)
@settings(max_examples=80)
def test_fuse_associative(u, v, w):
    def f(x, y):
        if x is None or y is None:
            return None
        return fuse(x, y)

    assert f(f(u, v), w) == f(u, f(v, w))


def test_suffixes_gs_example():
    z = _gs((POS, NEG, POS), ("p", "q"))  # bpb̄qb
    suf = suffixes_gs(z)
    assert [str(s) for s in suf] == ["bpb̄qb", "b̄qb", "b"]


@given(gstrings)
@settings(max_examples=60)
def test_suffixes_gs_cardinality_and_order(z):
    suf = suffixes_gs(z)
    assert len(suf) == len(z.atoms)
    assert suf[0] == z
    assert suf[-1] == GuardedString((z.last_atom,), ())
    for earlier, later in zip(suf, suf[1:]):
        assert earlier.n_actions == later.n_actions + 1


def test_suffixes_word():
    w = ((NEG, "p"), (POS, "q"))
    assert suffixes_word(w) == [w, ((POS, "q"),), ()]


def test_word_to_str():
    assert word_to_str(()) == "ε"
    assert word_to_str(((NEG, "q"), (POS, "p"))) == "b̄qbp"


@given(gstrings)
@settings(max_examples=60)
def test_join_rebuilds_guarded_strings(z):
    assert join((), z) == z
    word = tuple(zip(z.atoms, z.actions))
    for i, tail in enumerate(suffixes_gs(z)):
        assert join(word[:i], tail) == z


# ===== parser and printers =====

def test_parse_while_program():
    e = parse_exp("(while b do do p); do q", T1, ACTS)
    assert e == Seq(While(Test("b"), Act("p")), Act("q"))


def test_parse_seq_right_associative():
    e = parse_exp("do p; do q; do p", T1, ACTS)
    assert e == Seq(Act("p"), Seq(Act("q"), Act("p")))


def test_parse_guard_precedence():
    b = parse_bexp("not a and b or 0", T2)
    assert b == Or(And(Not(Test("a")), Test("b")), Zero())


def test_parse_if_greedy_branches():
    e = parse_exp("if b then do p; do q else do q", T1, ACTS)
    assert e == IfThenElse(Test("b"), Seq(Act("p"), Act("q")), Act("q"))


def test_parse_dangling_else():
    e = parse_exp("if b then if b then do p else do q else do q", T1, ACTS)
    inner = IfThenElse(Test("b"), Act("p"), Act("q"))
    assert e == IfThenElse(Test("b"), inner, Act("q"))


def test_parse_while_body_greedy():
    e = parse_exp("while b do do p; do q", T1, ACTS)
    assert e == While(Test("b"), Seq(Act("p"), Act("q")))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_exp("do r", T1, ACTS)
    assert info.value.position == 3
    with pytest.raises(ParseError):
        parse_exp("assert c", T1, ACTS)
    with pytest.raises(ParseError):
        parse_exp("do p; ", T1, ACTS)
    with pytest.raises(ParseError):
        parse_exp("do p )", T1, ACTS)


def test_reserved_words_rejected_as_names():
    with pytest.raises(ValueError):
        TestSet(("do",))
    with pytest.raises(ValueError):
        TestSet(("b", "b"))
    with pytest.raises(ValueError):
        parse_exp("do p", T1, ("p", "while"))


exps = st.recursive(
    st.one_of(st.sampled_from([Act("p"), Act("q")]), bexps),
    lambda child: st.one_of(
        st.builds(Seq, child, child),
        st.builds(IfThenElse, bexps, child, child),
        st.builds(While, bexps, child),
    ),
    max_leaves=10,
)


@given(exps)
@settings(max_examples=150)
def test_print_parse_round_trip(e):
    assert parse_exp(exp_to_str(e), T2, ACTS) == e


@given(bexps)
@settings(max_examples=100)
def test_guard_print_parse_round_trip(b):
    assert parse_bexp(bexp_to_str(b), T2) == b


def _parsed(parse, *args):
    """The tree, or the ParseError's text and position."""
    try:
        return parse(*args)
    except ParseError as exc:
        return str(exc), exc.position


SOUP = sorted(KEYWORDS) + ["a", "b", "p", "q", "x", "r", "d0", "0", "1", "2", ";",
                           "(", ")", "(", ")", "-", "é"]
GAPS = [" ", " ", " ", "", "\t", "\n", "  "]


def _soup(rng):
    words = [rng.choice(["do", "assert", "if", "while", "(", "not"] + SOUP)]
    words += [rng.choice(SOUP) for _ in range(rng.randrange(12))]
    return "".join(rng.choice(GAPS) + word for word in words) + rng.choice(GAPS)


def _one_token_dropped(text):
    for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_]*|\S", text):
        yield text[: m.start()] + text[m.end():]


def test_parser_agrees_with_recursive_descent():
    """The explicit-stack parser gives the tree, or the ParseError text and
    position, that the recursive-descent parser gives: on token soups, on
    printed programs and guards, and on each of those with one token
    dropped. The long inputs hang a scanner that backtracks on them."""
    rng = random.Random(1818)
    texts = [_soup(rng) for _ in range(1500)]
    for _ in range(50):
        for text in (exp_to_str(rand_exp(rng, T2, ACTS, 4)),
                     bexp_to_str(rand_bexp(rng, T2, 3))):
            texts.append(text)
            texts.extend(_one_token_dropped(text))
    texts += [
        "p" * 40 + "é",
        "do p; " * 5_000 + "é",
        "do " + "pq" * 50_000 + " -",
        "(" * 10_000 + "\t2",
        "do p" + " " * 100_000,
        "do p; assert b or" + "\n" * 100_000,
        "not" + " \t\n" * 30_000 + "b",
    ]
    for text in texts:
        assert _parsed(parse_exp, text, T2, ACTS) == _parsed(
            recursive_parse_exp, text, T2, ACTS), text
        assert _parsed(parse_bexp, text, T2) == _parsed(
            recursive_parse_bexp, text, T2), text


def test_parser_errors_past_the_recursion_limit():
    """Errors after thousands of blocks are found and placed without
    recursion, and so are those found only at the end of long inputs."""
    loops = "; ".join(["while b do do p"] * 20_000)
    with pytest.raises(ParseError) as info:
        parse_exp(loops + "; do", T1, ACTS)
    assert (str(info.value), info.value.position) == (
        "expected 'ident', found 'end' (at position %d)" % (len(loops) + 4),
        len(loops) + 4,
    )
    text = "(" * 20_000 + "not b" + ")" * 19_999 + " or b do"
    with pytest.raises(ParseError) as info:
        parse_bexp(text, T1)
    assert (str(info.value), info.value.position) == (
        "expected ')', found 'do' (at position %d)" % (len(text) - 2),
        len(text) - 2,
    )


def test_parser_takes_5000_nested_loops():
    """5,000 loops nested in parentheses parse under the default recursion
    limit, into the tree they were written as (walked without recursion,
    as == would recurse)."""
    k = 5_000
    e = parse_exp("while b do (" * k + "do p" + ")" * k, T1, ACTS)
    for _ in range(k):
        assert isinstance(e, While) and e.cond == Test("b")
        e = e.body
    assert e == Act("p")


def _assert_same_text(got, want):
    """got == want, checked first by length and by an excerpt at the first
    differing offset, so that a failure does not diff two long texts."""
    at = next((i for i, (u, v) in enumerate(zip(got, want)) if u != v), min(len(got), len(want)))
    assert (len(got), got[at:at + 40]) == (len(want), want[at:at + 40]), "offset %d" % at
    assert got == want


def test_print_parse_round_trip_at_depth_5000():
    """The printers keep their own stack: 5,000 nested ifs, 5,000 loops
    nested in parentheses and a guard of 5,000 negations print, and the
    printed text parses back to a tree that prints the same."""
    k = 5_000
    texts = {
        "if b then " * k + "do p" + " else do q" * k: None,
        "while b do (" * k + "do p" + ")" * k + "; do q":
            "while b do (" + "while b do " * (k - 1) + "do p); do q",
        "assert " + "not " * k + "b": None,
    }
    for text, want in texts.items():
        printed = exp_to_str(parse_exp(text, T1, ACTS))
        _assert_same_text(printed, want or text)
        _assert_same_text(exp_to_str(parse_exp(printed, T1, ACTS)), printed)
    guard = "not " * k + "b"
    _assert_same_text(bexp_to_str(parse_bexp(guard, T1)), guard)


def test_deep_trees_compare_without_recursion():
    """Two separately parsed copies of 5,000 loops nested in parentheses
    are equal and hash alike; trees that differ only at the innermost
    statement, or that differ in class, are unequal."""
    k = 5_000
    text = "while b do (" * k + "do p" + ")" * k + "; do q"
    a, b = parse_exp(text, T1, ACTS), parse_exp(text, T1, ACTS)
    assert a is not b and a.body is not b.body
    assert a == b and not a != b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    other = parse_exp(text.replace("do p", "do q"), T1, ACTS)
    assert a != other and other != a
    # -1 and -2 hash alike, so these trees agree on every stored hash and
    # differ only at the bottom, which the walk must reach
    pair = [Act(-1), Act(-2)]
    for _ in range(k):
        pair = [While(Test("b"), Seq(x, Act("q"))) for x in pair]
    assert hash(pair[0]) == hash(pair[1]) and pair[0] != pair[1]
    assert KPlus((KAct(-1), KAct("q"))) != KPlus((KAct(-2), KAct("q")))
    nested = [parse_exp("if b then " * k + "do p" + " else do q" * k, T1, ACTS) for _ in "ab"]
    assert nested[0] == nested[1]
    guards = [parse_bexp("not " * k + "b", T1) for _ in "ab"]
    assert guards[0] == guards[1] != parse_bexp("not " * k + "1", T1)
    assert Test("b").__eq__(Act("b")) is NotImplemented
    assert Test("b") != Act("b") and Seq(Act("p"), Act("q")) != (Act("p"), Act("q"))
    assert KPlus((KAct("p"), KAct("q"))) == KPlus((KAct("p"), KAct("q")))
    assert KPlus((KAct("p"), KAct("q"))) != KPlus((KAct("q"), KAct("p")))
    assert KPlus((KAct("p"),)) != KPlus((KAct("p"), KAct("q")))


def test_kat_terms_print_at_depth_5000():
    """5,000 nested stars, a 5,000-factor product and 5,000 products nested
    under stars print without recursion."""
    k = 5_000
    p, q = KAct("p"), KAct("q")
    star = p
    for _ in range(k):
        star = KStar(star)
    assert kat_to_str(star) == "p" + "*" * k
    assert kat_to_str(kseq(*[p, q] * (k // 2))) == "·".join(["p", "q"] * (k // 2))
    nest = p
    for _ in range(k):
        nest = kseq(q, KStar(nest))
    assert kat_to_str(nest) == "q·(" * (k - 1) + "q·p*" + ")*" * (k - 1)


# ===== KAT terms =====

def test_kseq_units():
    p = KAct("p")
    assert kseq(KONE, p, KONE) == p
    assert kseq(p, KZERO) == KZERO
    assert kseq() == KONE
    assert kseq(kseq(p, p), p) == KSeq(p, KSeq(p, p))


def test_kplus_aci():
    p, q = KAct("p"), KAct("q")
    assert kplus(p, q) == kplus(q, p, p)
    assert kplus(p, KZERO) == p
    assert kplus() == KZERO


def test_embed_while_program():
    e = parse_exp("(while b do do p); do q", T1, ACTS)
    want = kseq(KStar(kseq(KTest(Test("b")), KAct("p"))), KTest(Not(Test("b"))), KAct("q"))
    assert embed_kat(e) == want


def test_embed_if():
    e = parse_exp("if b then do p else do q", T1, ACTS)
    k = embed_kat(e)
    assert k == kplus(
        kseq(KTest(Test("b")), KAct("p")),
        kseq(KTest(Not(Test("b"))), KAct("q")),
    )


def test_embed_primitives():
    assert embed_kat(Act("p")) == KAct("p")
    assert embed_kat(Zero()) == KZERO
    assert embed_kat(One()) == KONE
    assert embed_kat(Test("b")) == KTest(Test("b"))


# ===== node hashes =====


def test_node_hash_is_fixed_at_construction():
    """Hashing never walks the tree: a node 100,000 sequences deep hashes
    at once, to the hash of its field tuple, as every node kind and every
    atom does."""
    deep = Act("p")
    for _ in range(100_000):
        deep = Seq(deep, Act("q"))
    assert hash(deep) == hash((deep.left, deep.right))
    b = Test("b")
    nodes = [
        Zero(), One(), b, Not(b), And(b, One()), Or(Zero(), b), Act("p"),
        Seq(Act("p"), b), IfThenElse(b, Act("p"), One()), While(b, Act("p")),
        KZERO, KONE, KTest(b), KAct("p"), KPlus((KONE, KAct("p"))),
        KSeq(KAct("p"), KAct("q")), KStar(KAct("p")), *atoms(TestSet(("b", "c"))),
    ]
    for node in nodes:
        values = tuple(getattr(node, f.name) for f in fields(node) if f.compare)
        assert hash(node) == hash(values), node
        copy = pickle.loads(pickle.dumps(node))
        assert copy == node and hash(copy) == hash(node)


PICKLE_CHECK = """
import pickle, sys
from gkat.syntax import Act, Atom, KAct, Seq, Zero
fresh = [KAct("p"), Act("p"), Seq(Act("p"), Act("q")), Atom(("b",), 1), Zero()]
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(fresh))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    print([(o == f, o in {f}) for o, f in zip(loaded, fresh)])
"""


def test_unpickled_nodes_hash_under_another_seed():
    """A node or atom pickled under one hash seed and loaded under another
    equals a fresh one and is found in a set that holds it."""
    src = str(Path(__file__).resolve().parent.parent / "src")

    def run(seed, *args, **kwargs):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", PICKLE_CHECK, *args],
                              capture_output=True, env=env, **kwargs)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    found = run("2", "load", input=run("1", "dump"))
    assert found.decode().strip() == repr([(True, True)] * 5)
