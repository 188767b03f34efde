import hashlib
import random
import sys

import pytest

import gkat.construct
import gkat.syntax
from gkat import (
    Act,
    CapacityError,
    TestSet,
    accepts_gkat,
    atoms,
    bisimilar,
    embed_kat,
    embed_moore,
    gkat_automaton,
    kat_moore_automaton,
    kat_to_str,
    letters,
    member,
    minimize,
    minimize_moore,
    moore_difference_gs,
    moore_isomorphic,
    normalize,
    parse_exp,
    unrolled_while_automaton,
)
from gkat.construct import _kat_deriv
from gkat.syntax import KONE, KZERO, KAct, KSeq, KStar, kplus, kseq
from helpers import (
    enumerate_guarded_strings,
    kplus_by_text,
    rand_exp,
    rand_kat,
    reference_delta,
)

T1 = TestSet(("b",))
ACTS = ("p", "q")
WORDS3 = enumerate_guarded_strings(T1, ACTS, 3)


def test_while_program_automaton_is_already_minimal():
    e = parse_exp("(while b do do p); do q", T1, ACTS)
    aut = gkat_automaton(e, T1, ACTS)
    assert aut.n_states == 2
    assert aut.delta == ((("q", 1), ("p", 0)), (1, 1))
    assert aut.initial == 0


def test_assert_programs():
    zero = gkat_automaton(parse_exp("assert 0", T1, ACTS), T1, ACTS)
    assert zero.delta == ((0, 0),)
    one = gkat_automaton(parse_exp("assert 1", T1, ACTS), T1, ACTS)
    assert one.delta == ((1, 1),)
    just_b = gkat_automaton(parse_exp("assert b", T1, ACTS), T1, ACTS)
    assert just_b.delta == ((0, 1),)


def test_single_action_automaton():
    aut = gkat_automaton(parse_exp("do p", T1, ACTS), T1, ACTS)
    assert aut.delta == ((("p", 1), ("p", 1)), (1, 1))


def test_if_automaton():
    e = parse_exp("if b then do p else do q", T1, ACTS)
    aut = gkat_automaton(e, T1, ACTS)
    assert aut.delta == ((("q", 1), ("p", 1)), (1, 1))


def test_fixture_matches_program():
    e = parse_exp("(while b do do p); do q", T1, ACTS)
    aut = gkat_automaton(e, T1, ACTS)
    f = unrolled_while_automaton()
    assert f.n_states == 3
    assert bisimilar(f, 0, aut, 0) == (1, None)
    assert minimize(f).n_states == 2


def test_capacity_limit(monkeypatch):
    e = parse_exp("(while b do do p); do q", T1, ACTS)
    monkeypatch.setattr(gkat.construct, "STATE_LIMIT", 1)
    with pytest.raises(CapacityError):
        gkat_automaton(e, T1, ACTS)


def test_undeclared_action_rejected():
    with pytest.raises(ValueError):
        gkat_automaton(Act("r"), T1, ACTS)
    with pytest.raises(ValueError, match="undeclared actions: z"):
        kat_moore_automaton(embed_kat(Act("z")), T1, ("p",))
    nested = parse_exp("while b do (do p; if b then do q else do z)", T1, ("p", "q", "z"))
    with pytest.raises(ValueError, match="undeclared actions: z"):
        kat_moore_automaton(embed_kat(nested), T1, ACTS)


def test_automaton_agrees_with_language():
    rng = random.Random(21)
    for _ in range(40):
        e = rand_exp(rng, T1, ACTS, depth=4)
        aut = gkat_automaton(e, T1, ACTS)
        for w in WORDS3:
            assert accepts_gkat(aut, 0, w) == member(e, w, T1, ACTS), str(e)


# ===== KAT route =====

def test_kat_constants():
    m = kat_moore_automaton(KONE, T1, ACTS)
    assert m.outputs[0] == (1, 1)
    z = kat_moore_automaton(KZERO, T1, ACTS)
    assert z.n_states == 1
    assert z.outputs == ((0, 0),)


def test_kat_moore_of_while_program():
    e = parse_exp("(while b do do p); do q", T1, ACTS)
    m = kat_moore_automaton(embed_kat(e), T1, ACTS)
    assert m.n_states == 3
    for w in WORDS3:
        assert accepts_gkat(m, 0, w) == member(e, w, T1, ACTS)


def test_kat_route_matches_direct_route():
    """Compiling through plain KAT terms and through guarded derivatives
    gives the same minimal Moore machine."""
    rng = random.Random(22)
    for _ in range(30):
        e = rand_exp(rng, T1, ACTS, depth=3)
        direct = minimize_moore(embed_moore(gkat_automaton(e, T1, ACTS)))
        via_kat = minimize_moore(kat_moore_automaton(embed_kat(e), T1, ACTS))
        assert moore_isomorphic(direct, via_kat)[0] == 1, str(e)


def test_products_share_their_tails():
    """A product is its first factor and the product of the rest: kseq
    keeps a product in last place as the tail itself, and a derivative of
    a product whose head steps ends in that product's own tail."""
    p, q, r = KAct("p"), KAct("q"), KAct("r")
    t = kseq(q, r)
    assert kseq(p, t).tail is t
    assert kseq(kseq(p, q), t) == KSeq(p, KSeq(q, t))
    assert kseq(kseq(p, q), t).tail.tail is t
    atom = atoms(T1)[0]
    assert _kat_deriv(kseq(p, t), atom, "p") is t
    k = kseq(KStar(p), q, r)
    d = _kat_deriv(k, atom, "p")
    assert d == KSeq(KStar(p), k.tail) and d.tail is k.tail


def test_kat_capacity_limit(monkeypatch):
    e = parse_exp("(while b do do p); do q", T1, ACTS)
    monkeypatch.setattr(gkat.construct, "STATE_LIMIT", 1)
    with pytest.raises(CapacityError):
        kat_moore_automaton(embed_kat(e), T1, ACTS)


def test_two_tests_program():
    tests = TestSet(("a", "b"))
    e = parse_exp("while a and b do do p", tests, ACTS)
    aut = gkat_automaton(e, tests, ACTS)
    # the loop is its own residual after p, so one state suffices
    assert aut.delta == ((1, 1, 1, ("p", 0)),)
    for w in enumerate_guarded_strings(tests, ACTS, 2):
        assert accepts_gkat(aut, 0, w) == member(e, w, tests, ACTS)


# ===== Pinned construction output =====

ONE_DROPPING = [
    "do p; assert 1",
    "assert 1; do p",
    "(do p; assert 1); do q",
    "(do p; do q); assert 1",
    "((do p; do q); assert 1); (assert 1; do q)",
    "(((assert 1; do p); assert 1); do q); assert 1",
    "do p; ((do q; do p); assert 1); do q",
    "while b do ((do p; assert 1); assert 1)",
    "(while b do do p; assert 1); (do q; assert 1)",
    "while b do (((do p; assert b); do q); assert 1)",
    "if b then ((do p; assert 1); do q) else (assert 1; (do q; do p))",
    "((while b do do p); (while b do do q)); ((do p; assert 1); assert 1)",
    "(((do p; do q); do p); assert 1); do q",
    "(((while b do do p); do q); assert 1); do p",
]

ONE_DROPPING_2 = [
    "while b do (while c do (do p; assert 1)); (do q; (assert 1; do p))",
    "((if c then do p else (do q; assert 1)); assert b); (while c do do q)",
    "(((while b and c do do p); assert 1); do q); (assert not c; do p)",
]


def _nested_loops(k):
    return "; ".join(["while b do do p"] * k) + "; do q"


def _unrolled_loops(k):
    return "if b then (do p; %s); (%s) else assert 1" % (
        _nested_loops(k - 1),
        _nested_loops(k),
    )


T2 = TestSet(("b", "c"))


def _rand_corpus():
    """Seeded random programs: 300 over one test, then 150 over two."""
    rng = random.Random(4004)
    corpus = []
    for tests, count in ((T1, 300), (T2, 150)):
        corpus += [(rand_exp(rng, tests, ACTS, depth=5), tests) for _ in range(count)]
    return corpus


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_constructions_unchanged():
    """Derivative automata and KAT Moore machines stay byte-identical."""
    # (expression, test set, also build the KAT machine)
    corpus = [(e, tests, True) for e, tests in _rand_corpus()]
    corpus += [(parse_exp(text, T1, ACTS), T1, True) for text in ONE_DROPPING]
    corpus += [(parse_exp(text, T2, ACTS), T2, True) for text in ONE_DROPPING_2]
    for k in (2, 3, 7, 22, 62):
        for text in (_nested_loops(k), _unrolled_loops(k)):
            corpus.append((parse_exp(text, T1, ACTS), T1, k <= 22))
    lines = []
    for e, tests, kat in corpus:
        lines.append(repr(gkat_automaton(e, tests, ACTS).delta))
        if kat:
            m = kat_moore_automaton(embed_kat(e), tests, ACTS)
            lines.append(repr((m.delta, m.outputs)))
    assert _digest(lines) == (
        "19dacbbf16c5451ca3a01ff6fa92fe8c25bd60788659da02096a5f2cc5646339"
    )


def _deep_families(k):
    """Programs nested k deep: ifs, loops in parentheses, sequenced loops,
    `assert 1` operands, and loop bodies that can pass without an action.
    With `act` = "do p; " each level acts before it nests, so there are
    about k residuals; without it one step walks all k levels."""
    guards = ["b", "b or c", "c", "c or not b"]
    texts = []
    for act in ("", "do p; "):
        loops = "".join("while %s do (%s" % (guards[i % 4], act) for i in range(k))
        texts += [
            ("if b then (" + act) * k + "do q" + ") else assert c" * k,
            loops + "do q" + ")" * k + "; do q",
            ("while b do (assert 1; " + act) * k + "do q" + "; assert 1)" * k + "; assert 1",
            ("while b do (if c then (" + act) * k + "do q" + ") else assert 1)" * k,
        ]
    return texts + [_nested_loops(k)]


def test_derivative_matches_recursive_reference():
    """The one-loop derivative builds the automata of the recursive `_step`
    it replaced, on seeded random programs and on families nested up to
    800 deep (the reference recurses, so its limit is raised)."""
    rng = random.Random(2121)
    for tests in (T1, T2):
        for _ in range(150):
            e = rand_exp(rng, tests, ACTS, depth=5)
            assert gkat_automaton(e, tests, ACTS).delta == reference_delta(e, tests), str(e)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        for k in (1, 2, 5, 40, 800):
            for text in _deep_families(k):
                e = parse_exp(text, T2, ACTS)
                assert gkat_automaton(e, T2, ACTS).delta == reference_delta(e, T2), (k, text[:40])
    finally:
        sys.setrecursionlimit(limit)


def test_kat_machines_at_depth_unchanged():
    """KAT Moore machines of the nested-loop families at k=62 and k=100."""
    lines = []
    for k in (62, 100):
        for text in (_nested_loops(k), _unrolled_loops(k)):
            m = kat_moore_automaton(embed_kat(parse_exp(text, T1, ACTS)), T1, ACTS)
            lines.append(repr((m.delta, m.outputs)))
    assert _digest(lines) == (
        "5f9d016dc62451632c3d6a8df709fe87ea5cfd8f88260cb38eedc9f0d96b6667"
    )


def test_kat_route_agrees_with_guarded_route_at_depth():
    """At k=300 sequenced loops the KAT machine has the language of the
    guarded automaton, and against the same loops ending in `do r` the
    difference search finds the shortest witness."""
    k, acts = 300, ("p", "q", "r")
    e = parse_exp(_nested_loops(k), T1, acts)
    er = parse_exp(_nested_loops(k).replace("do q", "do r"), T1, acts)
    via_kat = kat_moore_automaton(embed_kat(e), T1, acts)
    assert moore_difference_gs(via_kat, normalize(gkat_automaton(e, T1, acts))) is None
    witness = moore_difference_gs(via_kat, normalize(gkat_automaton(er, T1, acts)))
    assert str(witness) == "bp" * k + "b\u0304qb\u0304"


def test_kat_construction_prints_nothing(monkeypatch):
    """KAT sums are normalized by value: building KAT machines prints no
    term."""

    def refuse(*args):
        raise AssertionError("printed a KAT term")

    monkeypatch.setattr(gkat.syntax, "kat_to_str", refuse)
    monkeypatch.setattr(gkat.syntax, "_print", refuse)
    programs = [(text, T1) for text in ONE_DROPPING + [_unrolled_loops(7)]]
    programs += [(text, T2) for text in ONE_DROPPING_2]
    for text, tests in programs:
        kat_moore_automaton(embed_kat(parse_exp(text, tests, ACTS)), tests, ACTS)


def test_printed_kat_terms_unchanged():
    """The printed text of every KAT derivative state is pinned, and sums
    print and compare as sums normalized by their printed text do."""
    lines = []
    for e, tests in _rand_corpus():
        queue = [embed_kat(e)]
        seen = set(queue)
        for k in queue:  # breadth first, in the numbering of kat_moore_automaton
            lines.append(kat_to_str(k))
            for atom, p in letters(tests, ACTS):
                d = _kat_deriv(k, atom, p)
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
    assert len(lines) == 1245
    assert _digest(lines) == (
        "7a0869d444687d7b62ebeff6e35d8a3e933bc1da108ebfde73cc0c522719cf51"
    )
    for seed in range(300):
        sums = []
        for plus in (kplus, kplus_by_text):
            rng = random.Random(seed)
            pool = [rand_kat(rng, T2, ACTS, 3, plus) for _ in range(5)]
            left = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
            right = left + rng.sample(pool, rng.randint(0, 2))
            rng.shuffle(right)
            sums.append((plus(*left), plus(*right)))
        (left, right), (left_by_text, right_by_text) = sums
        assert kat_to_str(left) == kat_to_str(left_by_text)
        assert kat_to_str(right) == kat_to_str(right_by_text)
        assert (left == right) == (left_by_text == right_by_text)
