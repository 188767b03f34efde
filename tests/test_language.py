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
from helpers import rand_exp

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
