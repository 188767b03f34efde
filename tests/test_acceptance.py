"""End-to-end acceptance checks.

Each check prints one PASS/FAIL line (run with -s to see them live) and
enforces a wall-clock budget. The random corpora are seeded, so every run
sees the same inputs.
"""
import random
import time

from gkat import (
    GkatTeacher,
    GlObservationTable,
    MooreTeacher,
    QueryStats,
    TestSet,
    accepts_gkat,
    atoms,
    bisimilar,
    denote,
    embed_kat,
    embed_moore,
    gkat_automaton,
    glstar,
    kat_moore_automaton,
    lstar_moore,
    minimize,
    minimize_moore,
    moore_isomorphic,
    normalize,
    parse_exp,
    similar,
    unrolled_while_automaton,
    word_to_str,
)
from helpers import (
    bounded_inclusion_violation,
    enumerate_guarded_strings,
    rand_exp,
    rand_live_normal_automaton,
    rand_normal_automaton,
)

T1 = TestSet(("b",))
ACTS = ("p", "q")
NEG, POS = atoms(T1)
WHILE_PROG = "(while b do do p); do q"

_shared = {}


def report(num, name, ok, detail, started, budget):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        "%s criterion %d: %s [%s] (%.2fs, budget %.0fs)"
        % (status, num, name, detail, elapsed, budget)
    )
    assert ok, "criterion %d: %s" % (num, detail)
    assert elapsed < budget, "criterion %d over budget: %.2fs" % (num, elapsed)


# ===== 1: guarded learner walkthrough =====

def test_criterion_1_guarded_learner_walkthrough():
    started = time.perf_counter()
    target = gkat_automaton(parse_exp(WHILE_PROG, T1, ACTS), T1, ACTS)
    teacher = GkatTeacher(target)
    stats = QueryStats()
    table = GlObservationTable(T1, ACTS, teacher, stats)
    table.fill()

    ok = table.word(table.unclosed_row()) == ((NEG, "q"),)
    table.close()
    ok = ok and [word_to_str(table.word(s)) for s in table.S] == ["ε", "b̄q"]
    first = table.hypothesis()
    z = teacher.equivalence(first)
    ok = ok and str(z) == "bpb̄qb̄"
    old_columns = list(table.E)
    table.add_counterexample(z)
    # the table is closed again without promotion; progress shows up as
    # fresh ones in the new columns of rows that were all zero before
    ok = ok and table.unclosed_row() is None
    ok = ok and table.cells[()][: len(old_columns)] == [0] * len(old_columns)
    ok = ok and 1 in table.cells[()][len(old_columns):]
    final = table.hypothesis()
    ok = ok and final.delta == ((("q", 1), ("p", 0)), (1, 1))
    ok = ok and stats.membership_queries == 36
    ok = ok and bisimilar(final, 0, target, 0) == (1, None)
    report(
        1,
        "guarded learner walkthrough",
        ok,
        "36 queries, 2 states",
        started,
        1.0,
    )


# ===== 2: letter-word learner on the same target =====

def test_criterion_2_letter_learner_walkthrough():
    started = time.perf_counter()
    e = parse_exp(WHILE_PROG, T1, ACTS)
    moore_target = kat_moore_automaton(embed_kat(e), T1, ACTS)
    result, stats = lstar_moore(MooreTeacher(moore_target), T1, ACTS)
    expected_delta = ((2, 1, 0, 2), (2, 2, 2, 2), (2, 2, 2, 2))
    expected_outputs = ((0, 0), (1, 1), (0, 0))
    ok = (
        result.n_states == 3
        and result.delta == expected_delta
        and result.outputs == expected_outputs
        and stats.membership_queries == 78
        and moore_isomorphic(minimize_moore(result), minimize_moore(moore_target))[0]
        == 1
    )
    report(2, "letter-word learner walkthrough", ok, "78 queries, 3 states", started, 1.0)


# ===== 3: minimization of the unrolled fixture =====

def test_criterion_3_minimization():
    started = time.perf_counter()
    f = unrolled_while_automaton()
    small = minimize(f)
    e = parse_exp(WHILE_PROG, T1, ACTS)
    lang = denote(e, 4, T1, ACTS)
    ok = small.n_states == 2
    for w in enumerate_guarded_strings(T1, ACTS, 4):
        ok = ok and accepts_gkat(small, 0, w) == int(w in lang)
        ok = ok and accepts_gkat(f, 0, w) == int(w in lang)
    report(3, "unrolled loop minimizes to two states", ok, "2 states", started, 1.0)


# ===== 4: embedding commutes with minimization =====

def test_criterion_4_embedding_square():
    started = time.perf_counter()
    rng = random.Random(44)
    names = ("b", "c")
    failures = 0
    for trial in range(200):
        tests = TestSet(names[: rng.randint(1, 2)])
        actions = ACTS[: rng.randint(1, 2)]
        aut = rand_live_normal_automaton(rng, tests, actions, rng.randint(1, 6))
        route_a = embed_moore(minimize(aut))
        route_b = minimize_moore(embed_moore(aut))
        if moore_isomorphic(route_a, route_b)[0] != 1:
            failures += 1
    report(
        4,
        "Moore embedding commutes with minimization",
        failures == 0,
        "%d failures of 200" % failures,
        started,
        30.0,
    )


# ===== 5 and 9: learning corpus, both counterexample modes =====

def _learning_corpus():
    if "runs" in _shared:
        return _shared["runs"]
    rng = random.Random(55)
    names = ("b", "c")
    runs = []
    for trial in range(200):
        tests = TestSet(names[: rng.randint(1, 2)])
        actions = ACTS[: rng.randint(1, 2)]
        target = rand_normal_automaton(rng, tests, actions, rng.randint(1, 8))
        smallest = minimize(target)
        by_mode = {}
        for mode in ("suffix", "optimized"):
            hyps = []
            final_e = [len(atoms(tests))]

            def on_event(kind, payload, table):
                if kind == "hypothesis":
                    hyps.append(table.hypothesis())
                elif kind == "columns":
                    final_e[0] = len(payload)

            aut, stats = glstar(
                GkatTeacher(target),
                tests,
                actions,
                cx_mode=mode,
                on_event=on_event,
            )
            by_mode[mode] = {
                "aut": aut,
                "stats": stats,
                "hyps": hyps,
                "columns": final_e[0],
                "correct": bisimilar(aut, 0, target, 0)[0] == 1
                and aut.n_states == smallest.n_states,
            }
        runs.append(by_mode)
    _shared["runs"] = runs
    return runs


def test_criterion_5_learning_corpus():
    started = time.perf_counter()
    runs = _learning_corpus()
    wrong = sum(
        1
        for run in runs
        for mode in ("suffix", "optimized")
        if not run[mode]["correct"]
    )
    wider = sum(
        1 for run in runs if run["optimized"]["columns"] > run["suffix"]["columns"]
    )
    ok = wrong == 0 and wider == 0
    report(
        5,
        "both counterexample modes learn 200 random targets",
        ok,
        "%d wrong, %d with wider optimized tables" % (wrong, wider),
        started,
        60.0,
    )


# ===== 6: query costs of the two learners across growing test sets =====

IF_EXPECTED = {
    "glstar": [26, 100, 392, 1552, 6176, 24640],
    "lstar": [114, 444, 1752, 6960, 27744, 110784],
}
WHILE_EXPECTED = {
    "glstar": [36, 102, 330, 1170, 4386, 16962],
    "lstar": [78, 300, 1176, 4656, 18528, 73920],
}


def _sweep_family(expr, test_names, actions, max_n):
    counts = {"glstar": [], "lstar": []}
    for n in range(1, max_n + 1):
        tests = TestSet(test_names[:n])
        e = parse_exp(expr, tests, actions)
        target = normalize(gkat_automaton(e, tests, actions))
        _, stats = glstar(GkatTeacher(target), tests, actions)
        counts["glstar"].append(stats.membership_queries)
        moore_target = kat_moore_automaton(embed_kat(e), tests, actions)
        _, stats = lstar_moore(MooreTeacher(moore_target), tests, actions)
        counts["lstar"].append(stats.membership_queries)
    return counts


def _check_family(counts, expected):
    problems = []
    for algo in ("glstar", "lstar"):
        for i, (got, want) in enumerate(zip(counts[algo], expected[algo])):
            if abs(got - want) > 0.25 * want:
                problems.append("%s n=%d: %d vs %d" % (algo, i + 1, got, want))
    for n, (g, l) in enumerate(zip(counts["glstar"], counts["lstar"]), 1):
        if not g < l:
            problems.append("n=%d: guarded %d not below letter %d" % (n, g, l))
    ratios = [g / l for g, l in zip(counts["glstar"], counts["lstar"])]
    for i in range(1, len(ratios)):
        if not ratios[i] < ratios[i - 1]:
            problems.append("ratio not decreasing at n=%d" % (i + 1))
    return problems


def test_criterion_6_query_cost_sweep():
    started = time.perf_counter()
    names = tuple("t%d" % i for i in range(1, 7))
    if_counts = _sweep_family(
        "if t1 then do p1 else do p2", names, ("p1", "p2", "p3"), 6
    )
    while_counts = _sweep_family(
        "(while t1 do do p1); do p2", names, ("p1", "p2"), 6
    )
    problems = _check_family(if_counts, IF_EXPECTED) + _check_family(
        while_counts, WHILE_EXPECTED
    )
    detail = "if %s/%s while %s/%s" % (
        if_counts["glstar"][-1],
        if_counts["lstar"][-1],
        while_counts["glstar"][-1],
        while_counts["lstar"][-1],
    )
    if problems:
        detail = "; ".join(problems)
    report(
        6,
        "guarded learner needs fewer queries, gap widening",
        not problems,
        detail,
        started,
        120.0,
    )


# ===== 7: three routes to the same language =====

def test_criterion_7_semantics_triangle():
    started = time.perf_counter()
    rng = random.Random(77)
    names = ("b", "c")
    words_cache = {}
    failures = 0
    for trial in range(300):
        tests = TestSet(names[: rng.randint(1, 2)])
        actions = ACTS[: rng.randint(1, 2)]
        key = (tests.tests, actions)
        if key not in words_cache:
            words_cache[key] = enumerate_guarded_strings(tests, actions, 3)
        e = rand_exp(rng, tests, actions, depth=4)
        lang = denote(e, 3, tests, actions)
        direct = gkat_automaton(e, tests, actions)
        via_kat = kat_moore_automaton(embed_kat(e), tests, actions)
        for w in words_cache[key]:
            want = int(w in lang)
            if accepts_gkat(direct, 0, w) != want:
                failures += 1
                break
            if accepts_gkat(via_kat, 0, w) != want:
                failures += 1
                break
    report(
        7,
        "semantics, derivatives, and the KAT route agree",
        failures == 0,
        "%d failures of 300" % failures,
        started,
        60.0,
    )


# ===== 8: similarity matches bounded language inclusion =====

def test_criterion_8_similarity():
    started = time.perf_counter()
    rng = random.Random(88)
    mismatches = 0
    for trial in range(100):
        a = rand_normal_automaton(rng, T1, ACTS, rng.randint(1, 5))
        b = rand_normal_automaton(rng, T1, ACTS, rng.randint(1, 5))
        bound = a.n_states * (b.n_states + 1) + 1
        forward = similar(a, 0, b, 0)
        violation = bounded_inclusion_violation(a, 0, b, 0, bound)
        if forward != int(violation is None):
            mismatches += 1
            continue
        backward = similar(b, 0, a, 0)
        both = forward and backward
        if bool(both) != bool(bisimilar(a, 0, b, 0)[0]):
            mismatches += 1
    report(
        8,
        "similarity decides bounded inclusion",
        mismatches == 0,
        "%d mismatches of 100" % mismatches,
        started,
        30.0,
    )


# ===== 9: every counterexample changes the hypothesis =====

def test_criterion_9_counterexample_progress():
    started = time.perf_counter()
    runs = _learning_corpus()
    violations = 0
    rounds = 0
    for run in runs:
        for mode in ("suffix", "optimized"):
            hyps = run[mode]["hyps"]
            for h1, h2 in zip(hyps, hyps[1:]):
                rounds += 1
                if bisimilar(h1, 0, h2, 0)[0] == 1:
                    violations += 1
    report(
        9,
        "counterexamples always change the hypothesis",
        violations == 0,
        "%d violations in %d refinement rounds" % (violations, rounds),
        started,
        60.0,
    )
