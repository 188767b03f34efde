import hashlib
import itertools
import random
from dataclasses import replace

import pytest

from gkat import (
    GkatAutomaton,
    GkatTeacher,
    GuardedString,
    MooreAutomaton,
    MooreTeacher,
    NotNormalError,
    TestSet,
    accepts_gkat,
    atoms,
    automata,
    bisimilar,
    embed_moore,
    gkat_dot,
    is_normal,
    isomorphic,
    letters,
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
    unrolled_while_automaton,
    word_to_str,
)
from helpers import (
    enumerate_guarded_strings,
    mutant,
    rand_automaton,
    rand_normal_automaton,
    reference_is_normal,
    reference_isomorphism,
    reference_minimize,
    reference_normalize,
    refine_rounds,
    renumbered,
    similar_fixpoint,
)

T1 = TestSet(("b",))
ACTS = ("p", "q")
NEG, POS = atoms(T1)


def fixture():
    return unrolled_while_automaton()


def minimal_loop():
    """Two-state machine for 'loop on p while b, then q and stop'."""
    return GkatAutomaton(
        T1, ACTS, delta=(((("q", 1)), ("p", 0)), (1, 1)), initial=0
    )


def expected_moore():
    # embed_moore(minimal_loop()): states 0, 1, sink 2
    return MooreAutomaton(
        T1,
        ACTS,
        delta=((2, 1, 0, 2), (2, 2, 2, 2), (2, 2, 2, 2)),
        outputs=((0, 0), (1, 1), (0, 0)),
        initial=0,
    )


def _gs(ats, acts):
    return GuardedString(tuple(ats), tuple(acts))


# ===== construction checks =====

def test_automaton_validation():
    with pytest.raises(ValueError):
        GkatAutomaton(T1, ACTS, ((0,),), 0)  # row too narrow
    with pytest.raises(ValueError):
        GkatAutomaton(T1, ACTS, ((0, 2),), 0)  # 2 is not an entry
    with pytest.raises(ValueError):
        GkatAutomaton(T1, ACTS, ((0, ("r", 0)),), 0)  # unknown action
    with pytest.raises(ValueError):
        GkatAutomaton(T1, ACTS, ((0, ("p", 5)),), 0)  # target out of range
    with pytest.raises(ValueError):
        GkatAutomaton(T1, ACTS, ((0, 0),), 3)  # bad initial


class _Step(tuple):
    """A tuple subclass used as a step entry."""


def test_automaton_entries_table():
    """Which transition entries a guarded automaton accepts, and the exact
    message naming the first bad one, row by row in state order."""
    accepted = [0, 1, True, 1.0, ("p", 0), ("p", True), _Step(("q", 1))]
    for entry in accepted:
        aut = GkatAutomaton(T1, ACTS, ((entry, 0), (1, ("p", 0))), 0)
        assert aut.delta[0][0] is entry
    rejected = [
        (2, "2"),
        (None, "None"),
        (("p", 1.0), "('p', 1.0)"),
        (("r", 0), "('r', 0)"),  # undeclared action
        (("p", 2), "('p', 2)"),  # the number of states
        (("p", -1), "('p', -1)"),
        (("p", 0, 0), "('p', 0, 0)"),
    ]
    for entry, text in rejected:
        with pytest.raises(ValueError) as info:
            GkatAutomaton(T1, ACTS, ((0, entry), (1, 1)), 0)
        assert str(info.value) == "bad transition entry: " + text
    # several bad entries: the first in row order is named
    with pytest.raises(ValueError) as info:
        GkatAutomaton(T1, ACTS, ((1, ("p", 1)), (("q", 7), None), (2, ("r", 0))), 0)
    assert str(info.value) == "bad transition entry: ('q', 7)"
    with pytest.raises(ValueError) as info:
        GkatAutomaton(T1, ACTS, ((1, 1), (1,)), 0)
    assert str(info.value) == "row width 1, expected 2"


def test_moore_validation():
    with pytest.raises(ValueError):
        MooreAutomaton(T1, ACTS, ((0, 0, 0, 0),), (), 0)
    with pytest.raises(ValueError):
        MooreAutomaton(T1, ACTS, ((0, 0, 0, 9),), ((0, 0),), 0)
    with pytest.raises(ValueError):
        MooreAutomaton(T1, ACTS, ((0, 0, 0, 0),), ((0, 2),), 0)
    # every delta entry is a state and every output a bit, wherever it
    # sits; delta rows are empty when no actions are declared
    rows = ((0, 1, 0, 1), (1, 1, 0, 0))
    outputs = ((0, 1), (1, 0))
    assert MooreAutomaton(T1, ACTS, rows, outputs, 0).n_states == 2
    bad = [
        (((0, -1, 0, 1), rows[1]), outputs, "bad transition row"),
        ((rows[0], (1, 1, 0, 2)), outputs, "bad transition row"),
        (rows, (outputs[0], (1, 2)), "bad output row"),
    ]
    for delta, out, message in bad:
        with pytest.raises(ValueError, match=message):
            MooreAutomaton(T1, ACTS, delta, out, 0)
    silent = MooreAutomaton(T1, (), ((), ()), outputs, 1)
    assert silent.delta == ((), ())
    with pytest.raises(ValueError, match="bad output row"):
        MooreAutomaton(T1, (), ((), ()), ((0, 1), (2, 0)), 1)


def test_letters_canonical_order():
    alphabet = letters(T1, ACTS)
    assert [(str(a), p) for a, p in alphabet] == [
        ("b̄", "p"),
        ("b̄", "q"),
        ("b", "p"),
        ("b", "q"),
    ]
    assert alphabet.index((POS, "q")) == 3


# ===== runs =====

def test_accepts_gkat_on_fixture():
    f = fixture()
    assert accepts_gkat(f, 0, _gs((NEG, POS), ("q",))) == 1
    assert accepts_gkat(f, 0, _gs((NEG, NEG), ("q",))) == 1
    assert accepts_gkat(f, 0, _gs((POS, NEG, POS), ("p", "q"))) == 1
    assert accepts_gkat(f, 0, _gs((POS, NEG), ("q",))) == 0  # wrong action at b
    assert accepts_gkat(f, 0, _gs((POS, NEG), ("p",))) == 0  # stops mid-loop
    assert accepts_gkat(f, 0, _gs((POS,), ())) == 0


def test_accepts_rejects_foreign_atoms():
    """An atom over other tests is rejected wherever it sits: first, second
    (after a step the machine takes, or after one it lacks) or last."""
    f = fixture()
    m = embed_moore(f)
    c = atoms(TestSet(("c",)))[0]
    words = [
        _gs((c,), ()),
        _gs((POS, c, NEG), ("p", "q")),
        _gs((POS, c, NEG), ("q", "q")),
        _gs((POS, NEG, c), ("p", "q")),
    ]
    for accepts, machine in ((accepts_gkat, f), (accepts_gkat, m)):
        for w in words:
            with pytest.raises(ValueError, match="different tests"):
                accepts(machine, 0, w)


def test_gkat_words_with_undeclared_actions_raise():
    """An undeclared action raises wherever it sits, also after a step the
    machine lacks and in a column asked of a row that has left the
    machine, on the per-query path and on the row path."""
    f = fixture()
    teacher = GkatTeacher(f)
    bad = _gs((NEG, NEG), ("r",))
    after_a_step = _gs((POS, NEG, NEG), ("p", "r"))
    after_a_missing_step = _gs((POS, NEG, NEG), ("q", "r"))
    calls = [
        lambda: accepts_gkat(f, 0, bad),
        lambda: accepts_gkat(f, 0, after_a_step),
        lambda: accepts_gkat(f, 0, after_a_missing_step),
        lambda: teacher.membership(bad),
        lambda: teacher.membership(after_a_missing_step),
        lambda: teacher.answer_row((), [bad]),
        lambda: teacher.answer_row((), [after_a_missing_step]),
        lambda: teacher.answer_row(((POS, "p"),), [bad]),
        lambda: teacher.answer_row(((POS, "q"),), [bad]),
        lambda: teacher.answer_row(((NEG, "r"),), [_gs((NEG,), ())]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="undeclared actions: r"):
            call()
    assert teacher.answer_row(((POS, "q"),), [_gs((NEG,), ())]) == [0]


def test_moore_words_with_undeclared_actions_raise():
    m = embed_moore(fixture())
    teacher = MooreTeacher(m)
    calls = [
        lambda: accepts_gkat(m, 0, _gs((NEG, NEG), ("r",))),
        lambda: teacher.membership(_gs((POS, NEG, NEG), ("p", "r"))),
        lambda: teacher.answer_outputs(((NEG, "r"),), [()], [NEG, POS]),
        lambda: teacher.answer_outputs((), [((POS, "p"), (NEG, "r"))], [NEG, POS]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="undeclared actions: r"):
            call()


def test_run_gkat_prefix():
    f = fixture()
    assert run_gkat_prefix(f, 0, ()) == 0
    assert run_gkat_prefix(f, 0, ((POS, "p"),)) == 1
    assert run_gkat_prefix(f, 0, ((POS, "q"),)) is None
    two = ((NEG, "q"), (POS, "p"))
    assert run_gkat_prefix(f, 0, two) is None  # accepting state has no steps


def test_state_arguments_out_of_range():
    """State arguments are checked, not wrapped around or left to index."""
    f = fixture()
    m = embed_moore(f)
    w = _gs((POS,), ())
    calls = [
        lambda: bisimilar(f, -1, f, 2),
        lambda: bisimilar(f, 5, f, 0),
        lambda: bisimilar(f, 0, f, 3),
        lambda: similar(f, -1, f, 2),
        lambda: similar(f, 0, f, 3),
        lambda: accepts_gkat(f, -1, w),
        lambda: accepts_gkat(f, 3, w),
        lambda: accepts_gkat(m, -1, w),
        lambda: accepts_gkat(m, 4, w),
        lambda: run_gkat_prefix(f, -1, ()),
        lambda: run_gkat_prefix(f, 3, ()),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="out of range"):
            call()


# ===== reachability, normal form =====

def test_reachable_discovery_order_and_witnesses():
    f = fixture()
    extra = GkatAutomaton(
        T1,
        ACTS,
        delta=f.delta + ((0, 0),),  # unreachable junk state
        initial=0,
    )
    out, witnesses = reachable(extra)
    assert out.n_states == 3
    # breadth-first over atoms in order: b̄ edge found before b edge
    assert [word_to_str(w) for w in witnesses] == ["ε", "b̄q", "bp"]
    assert accepts_gkat(out, 0, _gs((POS, NEG, POS), ("p", "q"))) == 1


def test_witnesses_and_difference_words_decode_letters():
    """Letter words rebuilt from search links: each reachable witness leads
    to its renumbered state, and each difference word, completed by its
    separating atom, is accepted by exactly one of the two machines."""
    rng = random.Random(23)
    for tests in (T1, TestSet(("b", "c"))):
        for _ in range(100):
            a = rand_automaton(rng, tests, ACTS, 6)
            out, witnesses = reachable(a)
            assert len(witnesses) == out.n_states
            for i, w in enumerate(witnesses):
                assert run_gkat_prefix(out, 0, w) == i
            b = rand_automaton(rng, tests, ACTS, 6)
            for x, y in [(a, b), (a, embed_moore(b)), (embed_moore(a), embed_moore(b))]:
                word, gs = moore_difference(x, y), moore_difference_gs(x, y)
                if gs is None:
                    assert word is None
                    continue
                assert tuple(zip(gs.atoms, gs.actions)) == word
                bits = [
                    accepts_gkat(m, m.initial, gs)
                    for m in (x, y)
                ]
                assert sorted(bits) == [0, 1]


def test_normalize_rewrites_dead_steps():
    dead_loop = GkatAutomaton(
        T1,
        ACTS,
        delta=(((("p", 1)), 1), ((("q", 1)), ("p", 1))),
        initial=0,
    )
    assert is_normal(dead_loop) == 0
    norm = normalize(dead_loop)
    assert is_normal(norm) == 1
    assert norm.delta == ((0, 1), (0, 0))
    for w in enumerate_guarded_strings(T1, ACTS, 2):
        assert accepts_gkat(dead_loop, 0, w) == accepts_gkat(norm, 0, w)


def test_normalize_random_preserves_language():
    rng = random.Random(5)
    words = enumerate_guarded_strings(T1, ACTS, 3)
    for _ in range(30):
        aut = rand_automaton(rng, T1, ACTS, rng.randint(1, 5))
        norm = normalize(aut)
        assert is_normal(norm) == 1
        assert norm.n_states == aut.n_states
        for w in words:
            assert accepts_gkat(aut, 0, w) == accepts_gkat(norm, 0, w)


# ===== bisimilarity and similarity =====

def test_fixture_states_bisimilar():
    f = fixture()
    assert bisimilar(f, 0, f, 1) == (1, None)
    assert bisimilar(f, 0, minimal_loop(), 0) == (1, None)


def test_bisimilar_witness_is_shortest():
    m = minimal_loop()
    stingy = GkatAutomaton(
        T1, ACTS, delta=(((("q", 1)), ("p", 0)), (1, 0)), initial=0
    )
    verdict, witness = bisimilar(m, 0, stingy, 0)
    assert verdict == 0
    assert str(witness) == "b̄qb"
    assert accepts_gkat(m, 0, witness) != accepts_gkat(stingy, 0, witness)
    assert witness.n_actions == 1


def test_bisimilar_without_witness_on_dead_pair():
    # both languages empty, still not bisimilar; no separating word exists
    a = GkatAutomaton(T1, ACTS, ((0, 0),), 0)
    b = GkatAutomaton(T1, ACTS, (((("p", 1)), 0), (0, 0)), 0)
    assert bisimilar(a, 0, b, 0) == (0, None)


def test_similar_examples():
    m = minimal_loop()
    assert similar(m, 0, m, 0) == 1
    assert similar(m, 1, m, 1) == 1
    assert similar(m, 0, m, 1) == 0  # loop words are not atom words
    assert similar(m, 1, m, 0) == 0

    only_b = GkatAutomaton(T1, ACTS, ((0, ("p", 1)), (1, 1)), 0)
    any_atom = GkatAutomaton(T1, ACTS, (((("p", 1)), ("p", 1)), (1, 1)), 0)
    assert similar(only_b, 0, any_atom, 0) == 1
    assert similar(any_atom, 0, only_b, 0) == 0


def test_similar_agrees_with_fixpoint():
    """The pair walk of `similar` decides every state pair of raw and normal
    random automata, over one and two tests, as the greatest fixpoint does."""
    rng = random.Random(381)
    verdicts = set()
    for trial in range(120):
        tests = TestSet(("b", "c")[: 1 + trial % 2])
        make = rand_automaton if trial % 4 < 2 else rand_normal_automaton
        a = make(rng, tests, ACTS, 6)
        b = make(rng, tests, ACTS, 6) if trial % 3 else mutant(rng, normalize(a))
        rel = similar_fixpoint(a, b)
        for x in range(a.n_states):
            for y in range(b.n_states):
                assert similar(a, x, b, y) == int(rel[x][y]), (trial, x, y)
                verdicts.add(rel[x][y])
    assert verdicts == {True, False}


def test_mismatched_alphabets_rejected():
    m = minimal_loop()
    other = GkatAutomaton(TestSet(("c",)), ACTS, ((0, 0),), 0)
    with pytest.raises(ValueError):
        bisimilar(m, 0, other, 0)
    with pytest.raises(ValueError):
        similar(m, 0, other, 0)


# ===== minimization and isomorphism =====

def test_minimize_fixture():
    result = minimize(fixture())
    assert result.n_states == 2
    verdict, mapping = isomorphic(result, minimal_loop())
    assert verdict == 1
    assert mapping == {0: 0, 1: 1}


def test_minimize_idempotent():
    once = minimize(fixture())
    twice = minimize(once)
    assert isomorphic(once, twice)[0] == 1


def test_minimize_requires_normal():
    dead_loop = GkatAutomaton(
        T1, ACTS, delta=(((("p", 1)), 1), ((("q", 1)), ("p", 1))), initial=0
    )
    with pytest.raises(NotNormalError):
        minimize(dead_loop)
    assert minimize(normalize(dead_loop)).n_states == 1


def test_minimize_empty_language():
    aut = GkatAutomaton(T1, ACTS, ((0, 0), (1, 1)), 0)  # state 1 unreachable
    result = minimize(aut)
    assert result.n_states == 1
    assert result.delta == ((0, 0),)


def _chain(n):
    """One action, n states in a row; only the last one accepts."""
    delta = tuple((("p", i + 1),) for i in range(n - 1)) + ((1,),)
    return GkatAutomaton(TestSet(()), ("p",), delta, 0)


def _twin_chain(tests, half, cross):
    """Two bisimilar copies of a chain of `half` states; on atoms whose bits
    are not a multiple of `cross` each state steps into the other copy."""
    width = 2 ** len(tests)
    delta = []
    for copy in (0, 1):
        for i in range(half - 1):
            delta.append(tuple(
                ("p", (copy if bits % cross == 0 else 1 - copy) * half + i + 1)
                for bits in range(width)
            ))
        delta.append((1,) * width)
    return GkatAutomaton(tests, ACTS, tuple(delta), 0)


def _accept_chain(tests, n, drop_last):
    """A chain that accepts on every third atom and steps on the rest; with
    drop_last its last state rejects atom 1."""
    width = 2 ** len(tests)
    delta = [
        tuple(1 if bits % 3 == 0 else ("p", i + 1) for bits in range(width))
        for i in range(n - 1)
    ]
    delta.append(tuple(0 if drop_last and bits == 1 else 1 for bits in range(width)))
    return GkatAutomaton(tests, ACTS, tuple(delta), 0)


def _moore_outputs_from(rng, tests, n, n_rows):
    """A random Moore machine whose outputs come from `n_rows` rows: one
    row puts every state in one label block, many make the labels almost
    discrete."""
    rows = [tuple(rng.randrange(2) for _ in atoms(tests)) for _ in range(n_rows)]
    width = 2 ** len(tests) * len(ACTS)
    delta = tuple(tuple(rng.randrange(n) for _ in range(width)) for _ in range(n))
    return MooreAutomaton(tests, ACTS, delta, tuple(rng.choice(rows) for _ in range(n)), 0)


def test_refine_matches_round_loop():
    """Worklist refinement gives the blocks and representatives of the
    round-by-round loop, from every start state, on random automata (raw,
    normal, and their Moore embeddings), on Moore machines whose labels
    form one block or are almost discrete, and on chains that need one
    round per state."""
    rng = random.Random(1414)
    machines = []
    for trial in range(150):
        tests = TestSet(("b", "c")[: trial % 3])
        raw = rand_automaton(rng, tests, ACTS[: 1 + trial % 2], 12)
        machines += [raw, normalize(raw), embed_moore(raw), embed_moore(normalize(raw))]
        machines.append(_moore_outputs_from(rng, tests, rng.randint(1, 16), 1 + trial % 16))
    for half in range(1, 13):
        for tests, cross in ((TestSet(()), 1), (T1, 2), (TestSet(("b", "c")), 3)):
            twin = _twin_chain(tests, half, cross)
            machines += [twin, embed_moore(twin)]
        for drop_last in (False, True):
            machines.append(_accept_chain(TestSet(("b", "c")), half, drop_last))
        machines.append(_chain(half))
    multi_round = 0  # inputs that the first round does not settle
    for m in machines:
        split = automata._split(m)
        for start in range(m.n_states):
            states = list(automata._bfs(split, start))
            block, reps = refine_rounds(split, states)
            assert automata._refine(split, states) == (block, reps), (m, start)
            labels = {split(x)[0] for x in states}
            first = {(split(x)[0], tuple(split(y)[0] for y in split(x)[1])) for x in states}
            multi_round += len(labels) < len(first) < len(reps)
    assert multi_round > 1000


def test_minimize_long_chains():
    """Chains that need one refinement round per state minimize at scale,
    and isomorphic maps a minimized chain onto a renumbered copy."""
    chain = minimize(_chain(4000))
    assert chain.n_states == 4000
    assert minimize(_twin_chain(T1, 2000, 2)).n_states == 2000
    copy = renumbered(random.Random(8), chain)
    verdict, mapping = isomorphic(chain, copy)
    assert verdict == 1
    assert mapping[chain.initial] == copy.initial
    for x, y in mapping.items():
        assert [e if e == 1 else (e[0], mapping[e[1]]) for e in chain.delta[x]] == list(
            copy.delta[y]
        )


def test_isomorphic_handles_permutation():
    m = minimal_loop()
    swapped = GkatAutomaton(T1, ACTS, ((1, 1), ((("q", 0)), ("p", 1))), 1)
    verdict, mapping = isomorphic(m, swapped)
    assert verdict == 1
    assert mapping == {0: 1, 1: 0}


def test_isomorphic_negative():
    m = minimal_loop()
    accepting = GkatAutomaton(T1, ACTS, ((1, 1),), 0)
    assert isomorphic(m, accepting) == (0, None)
    relabeled = GkatAutomaton(T1, ACTS, (((("p", 1)), ("q", 0)), (1, 1)), 0)
    assert isomorphic(m, relabeled) == (0, None)


def test_isomorphic_preconditions():
    unreachable = GkatAutomaton(T1, ACTS, ((0, 0), (1, 1)), 0)
    with pytest.raises(ValueError):
        isomorphic(unreachable, unreachable)
    # the fixture is reachable but has two bisimilar states
    with pytest.raises(ValueError):
        isomorphic(fixture(), fixture())


def _brute_isomorphism(a, b):
    """The first state bijection, in permutation order, that maps initial
    to initial and carries every row of a onto the matching row of b."""
    def image(perm, x):
        if isinstance(a, MooreAutomaton):
            return a.outputs[x], tuple(perm[y] for y in a.delta[x])
        return tuple((e[0], perm[e[1]]) if isinstance(e, tuple) else e for e in a.delta[x])

    def row(y):
        return (b.outputs[y], b.delta[y]) if isinstance(b, MooreAutomaton) else b.delta[y]

    if a.n_states != b.n_states:
        return 0, None
    for perm in itertools.permutations(range(b.n_states)):
        if perm[a.initial] == b.initial and all(
            image(perm, x) == row(perm[x]) for x in range(a.n_states)
        ):
            return 1, dict(enumerate(perm))
    return 0, None


def _rand_moore(rng, tests, n):
    """A random Moore machine on n states, restricted to its reachable part."""
    width = 2 ** len(tests) * len(ACTS)
    delta = tuple(tuple(rng.randrange(n) for _ in range(width)) for _ in range(n))
    outputs = tuple(
        tuple(rng.randrange(2) for _ in range(2 ** len(tests))) for _ in range(n)
    )
    return moore_reachable(MooreAutomaton(tests, ACTS, delta, outputs, 0))


def _renumbered_moore(rng, m):
    perm = list(range(m.n_states))
    rng.shuffle(perm)
    delta = [None] * m.n_states
    outputs = [None] * m.n_states
    for old, new in enumerate(perm):
        delta[new] = tuple(perm[y] for y in m.delta[old])
        outputs[new] = m.outputs[old]
    return MooreAutomaton(m.tests, m.actions, tuple(delta), tuple(outputs), perm[m.initial])


def test_isomorphism_agrees_with_brute_force():
    """isomorphic and moore_isomorphic match a search over all state
    permutations, on machines of at most five states."""
    rng = random.Random(6006)
    T2 = TestSet(("b", "c"))
    verdicts = []
    for trial in range(150):
        tests = (T1, T2)[trial % 2]
        a = minimize(rand_normal_automaton(rng, tests, ACTS, 5))
        for b in (renumbered(rng, a), minimize(mutant(rng, a)),
                  minimize(rand_normal_automaton(rng, tests, ACTS, 5))):
            assert isomorphic(a, b) == _brute_isomorphism(a, b)
            verdicts.append(isomorphic(a, b)[0])
        m = _rand_moore(rng, T1, rng.randint(1, 5))
        mutated = replace(m, outputs=(tuple(1 - bit for bit in m.outputs[0]),) + m.outputs[1:])
        for other in (_renumbered_moore(rng, m), mutated, _rand_moore(rng, T1, m.n_states)):
            assert moore_isomorphic(m, other) == _brute_isomorphism(m, other)
            verdicts.append(moore_isomorphic(m, other)[0])
    assert 0 < sum(verdicts) < len(verdicts)

    # reachable and bisimilar, but a self-loop is not a 2-cycle
    width = len(ACTS) * 2
    loop = MooreAutomaton(T1, ACTS, ((1,) * width, (1,) * width), ((1, 0), (1, 0)), 0)
    cycle = MooreAutomaton(T1, ACTS, ((1,) * width, (0,) * width), ((1, 0), (1, 0)), 0)
    assert moore_difference(loop, cycle) is None
    assert moore_isomorphic(loop, cycle) == (0, None) == _brute_isomorphism(loop, cycle)

    big = embed_moore(fixture())  # reachable, not minimal
    copy = _renumbered_moore(rng, big)
    verdict, mapping = moore_isomorphic(big, copy)
    assert verdict == 1
    assert (verdict, mapping) == _brute_isomorphism(big, copy)


# ===== Moore machines =====

def test_embed_moore_exact():
    assert embed_moore(minimal_loop()) == expected_moore()


def test_embed_preserves_acceptance():
    f = fixture()
    m = embed_moore(f)
    for w in enumerate_guarded_strings(T1, ACTS, 3):
        assert accepts_gkat(m, 0, w) == accepts_gkat(f, 0, w)


def test_minimize_moore_merges_unrolled_states():
    big = embed_moore(fixture())
    assert big.n_states == 4
    small = minimize_moore(big)
    assert small.n_states == 3
    assert moore_isomorphic(small, expected_moore())[0] == 1
    again = minimize_moore(small)
    assert moore_isomorphic(small, again)[0] == 1


def test_moore_reachable_trims():
    m = expected_moore()
    padded = MooreAutomaton(
        T1,
        ACTS,
        delta=m.delta + ((3, 3, 3, 3),),
        outputs=m.outputs + ((1, 0),),
        initial=0,
    )
    assert moore_reachable(padded).n_states == 3
    with pytest.raises(ValueError):
        moore_isomorphic(padded, m)


def test_moore_difference():
    m = expected_moore()
    assert moore_difference(m, m) is None
    tweaked = MooreAutomaton(
        T1, ACTS, m.delta, ((0, 0), (1, 0), (0, 0)), initial=0
    )
    word = moore_difference(m, tweaked)
    assert [(str(a), p) for a, p in word] == [("b̄", "q")]
    gs = moore_difference_gs(m, tweaked)
    assert str(gs) == "b̄qb"


def test_embedding_square_on_empty_language():
    # corner case: with an empty language the two routes give machines of
    # different sizes, and agree only after one more Moore minimization
    dead = GkatAutomaton(T1, ACTS, ((0, 0),), 0)
    route_a = embed_moore(minimize(dead))
    route_b = minimize_moore(embed_moore(dead))
    assert route_a.n_states == 2
    assert route_b.n_states == 1
    assert moore_isomorphic(route_a, route_b) == (0, None)
    assert moore_isomorphic(minimize_moore(route_a), route_b)[0] == 1


def test_embedding_square_on_live_automata():
    rng = random.Random(9)
    for _ in range(30):
        aut = rand_normal_automaton(rng, T1, ACTS, rng.randint(1, 5))
        if accepts_row_empty(aut):
            continue
        route_a = embed_moore(minimize(aut))
        route_b = minimize_moore(embed_moore(aut))
        assert moore_isomorphic(route_a, route_b)[0] == 1


def accepts_row_empty(aut):
    seen, _ = reachable(aut)
    return all(
        entry == 0 for row in seen.delta for entry in row
    )


# ===== DOT =====

def test_gkat_dot():
    text = gkat_dot(minimal_loop())
    assert text == gkat_dot(minimal_loop())
    assert 's0 -> s1 [label="b̄ | q"];' in text
    assert 's0 -> s0 [label="b | p"];' in text
    assert '"x1\\nb̄ | 1\\nb | 1"' in text
    assert "init -> s0;" in text


def test_moore_dot():
    text = moore_dot(expected_moore())
    assert '"x1\\n1b̄ + 1b"' in text
    assert 's0 -> s1 [label="b̄q"];' in text
    assert text.count("->") == 3 * 4 + 1


# ===== pinned outputs =====

def _isomorphism(fn, a, b):
    """Verdict and sorted mapping, or a token carrying the ValueError."""
    try:
        verdict, mapping = fn(a, b)
    except ValueError as exc:
        return "ValueError: %s" % exc
    return repr((verdict, None if mapping is None else sorted(mapping.items())))


def _machine(m):
    return repr((m.delta, m.outputs, m.initial))


def _comparison_lines(a, b):
    """Outputs of every comparison on one pair of guarded automata."""
    ma, mb = embed_moore(a), embed_moore(b)
    lines = [_isomorphism(isomorphic, a, b), _isomorphism(moore_isomorphic, ma, mb)]
    lines.append(_isomorphism(moore_isomorphic, minimize_moore(ma), minimize_moore(mb)))
    for x in range(min(3, a.n_states)):
        for y in range(min(3, b.n_states)):
            verdict, witness = bisimilar(a, x, b, y)
            lines.append("%d %d %d %s" % (x, y, verdict, witness))
    lines.append(repr(moore_difference(ma, mb)))
    lines.append(str(moore_difference_gs(ma, mb)))
    return lines


def _machine_lines(a):
    """Outputs of reachability and minimization on one guarded automaton."""
    base, witnesses = reachable(a)
    lines = [repr(base.delta), " ".join(word_to_str(w) for w in witnesses)]
    lines.append(repr(minimize(a).delta) if is_normal(a) else "not normal")
    m = embed_moore(a)
    lines += [_machine(moore_reachable(m)), _machine(minimize_moore(m))]
    return lines


def _split_state(rng, aut):
    """A reachable, non-observable copy: one step is redirected to a new
    duplicate of its target state."""
    steps = [(x, bits) for x, row in enumerate(aut.delta)
             for bits, e in enumerate(row) if isinstance(e, tuple)]
    if not steps:
        return aut
    x, bits = rng.choice(steps)
    p, y = aut.delta[x][bits]
    delta = list(aut.delta) + [aut.delta[y]]
    delta[x] = tuple((p, aut.n_states) if b == bits else e for b, e in enumerate(delta[x]))
    return GkatAutomaton(aut.tests, aut.actions, tuple(delta), aut.initial)


def test_comparisons_unchanged():
    """Reachability, minimization, isomorphism, bisimilarity and the Moore
    difference search stay byte-identical on seeded corpora."""
    rng = random.Random(5005)
    T2 = TestSet(("b", "c"))
    pairs = []
    unrolled = fixture()
    pairs += [(unrolled, renumbered(rng, unrolled)), (unrolled, minimal_loop())]
    for tests, count in ((T1, 60), (T2, 30)):
        for _ in range(count):
            raw = rand_automaton(rng, tests, ACTS, 6)
            normal = rand_normal_automaton(rng, tests, ACTS, 6)
            small = minimize(normal)
            split = _split_state(rng, small)
            pairs += [
                (raw, normalize(raw)),
                (raw, renumbered(rng, raw)),
                (normal, renumbered(rng, normal)),
                (normal, mutant(rng, normal)),
                (small, renumbered(rng, small)),
                (small, minimize(mutant(rng, small))),
                (split, renumbered(rng, split)),
                (split, small),
            ]
    lines = []
    for a, b in pairs:
        lines += _machine_lines(a) + _machine_lines(b) + _comparison_lines(a, b)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == (
        "158132ebe49eac97e7d790ff6ea654e65ae7c39626675c27339ceb5be1cedc76"
    )


def test_guarded_differences_unchanged():
    """The Moore difference searches, bisimilar's witnesses and the Moore
    unfolding of guarded automata stay byte-identical on seeded pairs; the
    searches give the same answers on guarded inputs as on their
    unfoldings, also with one side of each kind."""
    rng = random.Random(7007)
    pairs = []
    for tests, actions, count in ((T1, ACTS, 120), (TestSet(("b", "c")), ("p", "q", "r"), 60)):
        for _ in range(count):
            raw = rand_automaton(rng, tests, actions, 6)
            normal = rand_normal_automaton(rng, tests, actions, 6)
            pairs += [
                (raw, rand_automaton(rng, tests, actions, 6)),
                (raw, normalize(raw)),
                (raw, renumbered(rng, raw)),
                (normal, mutant(rng, normal)),
                (normal, renumbered(rng, mutant(rng, normal))),
                (normal, rand_normal_automaton(rng, tests, actions, 6)),
            ]
    lines = []
    for a, b in pairs:
        ma, mb = embed_moore(a), embed_moore(b)
        lines += [_machine(ma), repr(moore_difference(a, b))]
        lines.append(str(moore_difference_gs(a, b)))
        assert moore_difference(ma, b) == moore_difference(a, mb) == moore_difference(ma, mb)
        assert moore_difference_gs(ma, b) == moore_difference_gs(a, b)
        for _ in range(2):
            x, y = rng.randrange(a.n_states), rng.randrange(b.n_states)
            lines.append("%d %d %d %s" % ((x, y) + bisimilar(a, x, b, y)))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == (
        "0b56f8a4c5f85b1576c9b531f4e60b28ca3bedd3ed435ab4864aad61d9a58899"
    )


def _rand_machine(rng, tests, actions, n):
    """A random guarded automaton on n states whose last states form a
    region that never accepts and steps only into itself, so that
    normalization has dead steps to rewrite."""
    width, dead = 2 ** len(tests), rng.randrange(n // 3)
    delta = []
    for x in range(n):
        live = x < n - dead
        row = []
        for _ in range(width):
            roll = rng.random()
            if roll < 0.2 and live:
                row.append(1)
            elif roll < 0.45:
                row.append(0)
            else:
                lo = 0 if live else n - dead
                row.append((rng.choice(actions), rng.randrange(lo, n)))
        delta.append(tuple(row))
    return GkatAutomaton(tests, actions, tuple(delta), rng.randrange(n - dead))


def _outcome(fn, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def test_whole_machine_routines_match_references():
    """normalize, is_normal, minimize and the isomorphism checks give the
    deltas, verdicts, maps and error messages of the reference versions
    (tests/helpers.py) on seeded random machines of 500-2,000 states,
    with every order of unreachable and non-observable inputs."""
    rng = random.Random(2626)
    T2 = TestSet(("b", "c"))
    errors = set()
    for trial in range(8):
        tests = (T1, T2)[trial % 2]
        raw = _rand_machine(rng, tests, ACTS, rng.randint(500, 2000))
        normal = normalize(raw)
        ref = reference_normalize(raw)
        assert (normal.delta, normal.initial) == (ref.delta, ref.initial)
        for aut in (raw, normal):
            assert is_normal(aut) == reference_is_normal(aut)
            assert _outcome(minimize, aut) == _outcome(reference_minimize, aut)
        small = minimize(normal)
        split = _split_state(rng, small)
        cut = replace(small, delta=small.delta + (small.delta[small.initial],))
        ma, ms = embed_moore(small), embed_moore(split)
        pairs = [
            (small, renumbered(rng, small), True),
            (small, minimize(mutant(rng, small)), True),
            (small, split, True),  # observable, non-observable
            (split, small, True),  # non-observable, observable
            (split, cut, True),  # non-observable, unreachable
            (cut, split, True),  # unreachable, non-observable
            (small, cut, True),
            (normal, normal, True),
            (ma, _renumbered_moore(rng, ma), False),
            (ms, ma, False),
            (ma, embed_moore(cut), False),
        ]
        for a, b, observable in pairs:
            name = "isomorphic" if observable else "moore_isomorphic"
            got = _outcome(automata._isomorphism, a, b, name, observable)
            assert got == _outcome(reference_isomorphism, a, b, name, observable)
            if isinstance(got[1], str):
                errors.add(got[1])
    assert errors == {
        "isomorphic needs reachable inputs",
        "isomorphic needs observable inputs",
        "moore_isomorphic needs reachable inputs",
    }


def test_normality_reads_accepts_from_rows():
    """A step on an action that equals 1 is not an accept: a state whose
    only exits are such steps has an empty language."""
    for action in (1, True):
        aut = GkatAutomaton(T1, (action,), (((action, 0), 0),), 0)
        assert is_normal(aut) == reference_is_normal(aut) == 0
        assert normalize(aut).delta == reference_normalize(aut).delta == ((0, 0),)
        assert _outcome(minimize, aut) == _outcome(reference_minimize, aut)
        assert _outcome(minimize, aut)[0] == "NotNormalError"
