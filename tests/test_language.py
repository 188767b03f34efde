import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import gkat.language

from gkat import (
    CapacityError,
    GuardedString,
    TestSet,
    atoms,
    automaton_words,
    denote,
    gkat_automaton,
    is_deterministic,
    member,
    parse_exp,
)
from helpers import rand_automaton, rand_exp, reference_automaton_words

T1 = TestSet(("b",))
ACTS = ("p", "q")
NEG, POS = atoms(T1)


def _key(w, actions=ACTS):
    """Canonical order: by action count, then position by position, each
    atom by its bits and each action by its place in `actions`."""
    key = [w.n_actions]
    for a, p in zip(w.atoms, w.actions):
        key += [a.bits, actions.index(p)]
    return tuple(key + [w.atoms[-1].bits])


def _words(lang, actions=ACTS):
    return [str(w) for w in sorted(lang, key=lambda w: _key(w, actions))]


def test_while_then_action_two_rounds():
    """The loop program 'while b do p, then q' truncated at two actions."""
    e = parse_exp("(while b do do p); do q", T1, ACTS)
    lang = denote(e, 2, T1, ACTS)
    assert _words(lang) == ["b̄qb̄", "b̄qb", "bpb̄qb̄", "bpb̄qb"]
    assert len(lang) == 4


def test_single_action_language():
    lang = denote(parse_exp("do p", T1, ACTS), 1, T1, ACTS)
    assert _words(lang) == ["b̄pb̄", "b̄pb", "bpb̄", "bpb"]


def test_assert_languages():
    assert _words(denote(parse_exp("assert b", T1, ACTS), 1, T1, ACTS)) == ["b"]
    assert _words(denote(parse_exp("assert 0", T1, ACTS), 2, T1, ACTS)) == []
    assert _words(denote(parse_exp("assert 1", T1, ACTS), 0, T1, ACTS)) == ["b̄", "b"]


def test_if_splits_on_guard():
    e = parse_exp("if b then do p else do q", T1, ACTS)
    assert _words(denote(e, 1, T1, ACTS)) == ["b̄qb̄", "b̄qb", "bpb̄", "bpb"]


def test_seq_fuses_at_boundary():
    e = parse_exp("do p; do q", T1, ACTS)
    lang = denote(e, 2, T1, ACTS)
    assert len(lang) == 8
    for w in lang:
        assert w.actions == ("p", "q")


def test_loop_with_silent_body_terminates():
    # the body contributes no action, so the loop can only be skipped
    e = parse_exp("while b do assert 1", T1, ACTS)
    assert _words(denote(e, 3, T1, ACTS)) == ["b̄"]


def test_nested_loop_bound():
    e = parse_exp("while b do do p", T1, ACTS)
    lang = denote(e, 3, T1, ACTS)
    # b̄, bpb̄, bpbpb̄, bpbpbpb̄
    assert _words(lang) == ["b̄", "bpb̄", "bpbpb̄", "bpbpbpb̄"]


def test_member():
    e = parse_exp("(while b do do p); do q", T1, ACTS)
    yes = GuardedString((POS, NEG, POS), ("p", "q"))
    no = GuardedString((POS, NEG, POS), ("q", "p"))
    assert member(e, yes, T1, ACTS) == 1
    assert member(e, no, T1, ACTS) == 0


def test_denote_rejects_undeclared_action():
    with pytest.raises(ValueError):
        denote(parse_exp("do p", T1, ACTS), 1, T1, ("q",))


def test_capacity_guard(monkeypatch):
    e = parse_exp("do p; do q", T1, ACTS)
    monkeypatch.setattr(gkat.language, "WORD_LIMIT", 3)
    with pytest.raises(CapacityError):
        denote(e, 2, T1, ACTS)
    with pytest.raises(CapacityError):  # before the first word
        next(automaton_words(gkat_automaton(e, T1, ACTS), 2))


SPARSE_LOOP = "while b do (%s; do p)" % "; ".join(["do p; assert b"] * 9)


def test_sparse_infinite_language_passes_the_limit_at_once():
    """One word per ten actions: at k = 10^9 the count passes WORD_LIMIT
    near 10^7 actions, which the period of the count rows gives at once."""
    import time

    aut = gkat_automaton(parse_exp(SPARSE_LOOP, T1, ("p",)), T1, ("p",))
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        next(automaton_words(aut, 10**9))
    assert time.perf_counter() - start < 1.0
    words = list(automaton_words(aut, 100))
    assert words == list(reference_automaton_words(aut, 100))
    assert [w.n_actions for w in words] == [0] + [n for n in range(1, 101) if n % 10 == 0]


def test_counting_at_a_huge_bound_stops_early():
    """At k = 10^9 a growing language passes WORD_LIMIT within a few dozen
    count rows, and an initial state without words, beside a state that
    loops, lists nothing without walking the lengths up to k."""
    import time

    from gkat import GkatAutomaton

    tests = TestSet(("b", "c"))
    e = parse_exp("while b do (if c then do p else do q)", tests, ACTS)
    mute = GkatAutomaton(T1, ("p",), ((0, 0), (1, ("p", 1))), 0)
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        next(automaton_words(gkat_automaton(e, tests, ACTS), 10**9))
    assert list(automaton_words(mute, 10**9)) == []
    assert time.perf_counter() - start < 1.0


def _outcome(words):
    """The words listed, or "capacity" when listing raised before any."""
    try:
        return list(words)
    except CapacityError:
        return "capacity"


def test_automaton_words_equal_the_counting_loop(monkeypatch):
    """On random automata, reachable or not, and action bounds 0-60 under a
    small WORD_LIMIT, the capacity verdict and the words listed equal those
    of the loop that counts every length."""
    monkeypatch.setattr(gkat.language, "WORD_LIMIT", 40)
    rng = random.Random(30)
    seen = {"capacity": 0, "listed": 0, "infinite": 0}
    for _ in range(150):
        tests = TestSet(("a", "b")[:rng.randint(1, 2)])
        aut = rand_automaton(rng, tests, ("p", "q")[:rng.randint(1, 2)], 5)
        for k in sorted({0, 1, 2, 60} | {rng.randint(0, 60) for _ in range(4)}):
            got = _outcome(automaton_words(aut, k))
            assert got == _outcome(reference_automaton_words(aut, k)), (aut, k)
            seen["capacity" if got == "capacity" else "listed"] += 1
            # a word longer than the machine has states pumps: the language
            # is infinite, and its count rows ran on to k
            if got != "capacity" and got and max(w.n_actions for w in got) > aut.n_states:
                seen["infinite"] += 1
    assert min(seen.values()) > 50, seen


def test_is_deterministic_handcrafted():
    b_p_b = GuardedString((POS, POS), ("p",))
    b_q_b = GuardedString((POS, POS), ("q",))
    just_b = GuardedString((POS,), ())
    neg = GuardedString((NEG,), ())
    assert is_deterministic(frozenset({b_p_b, b_q_b})) == 0  # two actions at b
    assert is_deterministic(frozenset({just_b, b_p_b})) == 0  # stop vs step at b
    assert is_deterministic(frozenset({neg, b_p_b})) == 1
    assert is_deterministic(frozenset()) == 1


def test_is_deterministic_takes_long_words():
    """One word with 5,000 actions: the check keeps no stack per action."""
    long = GuardedString((POS,) * 5_000 + (NEG,), ("p",) * 5_000)
    assert is_deterministic(frozenset({long})) == 1


def test_program_languages_are_deterministic():
    rng = random.Random(11)
    for _ in range(120):
        e = rand_exp(rng, T1, ACTS, depth=4)
        lang = denote(e, 3, T1, ACTS)
        assert is_deterministic(lang) == 1, str(e)


def test_bound_monotone():
    rng = random.Random(12)
    for _ in range(60):
        e = rand_exp(rng, T1, ACTS, depth=4)
        small = denote(e, 2, T1, ACTS)
        big = denote(e, 3, T1, ACTS)
        assert small <= big
        for w in big:
            assert (w in small) == (w.n_actions <= 2)


@given(st.integers(min_value=0, max_value=3))
@settings(max_examples=4)
def test_zero_and_one_languages(k):
    assert len(denote(parse_exp("assert 0", T1, ACTS), k, T1, ACTS)) == 0
    one = denote(parse_exp("assert 1", T1, ACTS), k, T1, ACTS)
    assert {str(w) for w in one} == {"b̄", "b"}


def test_automaton_words_match_denote():
    """The words of the derivative automaton are the bounded semantics, each
    once and in canonical order, on seeded random programs and on a loop
    whose body runs into a dead state."""
    tests = TestSet(("a", "b"))
    rng = random.Random(28)
    programs = [parse_exp("while b do (do p; assert 0)", tests, ACTS)]
    programs += [rand_exp(rng, tests, ACTS, depth=5) for _ in range(300)]
    nonempty = 0
    for e in programs:
        k = rng.randint(0, 4)
        words = list(automaton_words(gkat_automaton(e, tests, ACTS), k))
        lang = denote(e, k, tests, ACTS)
        assert set(words) == lang and len(words) == len(lang), (str(e), k)
        assert words == sorted(words, key=_key), (str(e), k)
        nonempty += bool(words)
    assert nonempty > 100
