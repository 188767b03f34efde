"""The benchmark's four workloads.

A workload builds its inputs from a seed and lists its operations. Each
operation returns an outcome that `Op.check` compares with expected values;
the check runs outside the timed region. Operations call the package
through module attributes (`cli.main`, `automata.minimize`, ...), so that
the span tracer's patches see every call.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import shutil
import string

from gkat import automata, cli, language, learning, syntax
from gkat.syntax import MACRON, Atom, GuardedString, TestSet

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


class Op:
    """One timed call. `check(outcome)` returns a list of problems."""

    def __init__(self, op_id, run, check, learner=False):
        self.op_id = op_id
        self.run = run
        self.check = check
        self.learner = learner


class CliOutcome:
    def __init__(self, rc, stdout, rows, out_dir):
        self.rc = rc
        self.stdout = stdout
        self.rows = rows
        self.out_dir = out_dir


def run_cli(argv, out_dir=None, table=None):
    """cli.main with captured output; reads `table` (a CSV) from out_dir."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    rows = []
    if out_dir is not None and table is not None and rc == 0:
        with open(os.path.join(out_dir, table), newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
    return CliOutcome(rc, stdout.getvalue(), rows, out_dir)


def run_row(row):
    """A stats row without its wall-clock column: (algo, n, mq, zf, eq, states)."""
    return (row[0],) + tuple(int(v) for v in row[1:6])


def _names(rng, prefix, count):
    out = []
    while len(out) < count:
        name = prefix + "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
        if name not in out:
            out.append(name)
    return out


def _learn_problems(outcome, want_rows, want_lines):
    if outcome.rc != 0:
        return ["exit code %r" % (outcome.rc,)]
    problems = []
    got = [run_row(r) for r in outcome.rows]
    if got != want_rows:
        problems.append("rows %r, expected %r" % (got, want_rows))
    if outcome.stdout.splitlines() != want_lines:
        problems.append("stdout %r" % (outcome.stdout,))
    return problems


def artifact_sizes(out_dir):
    """(bytes written, trace lines) of one learner operation's directory."""
    total = lines = 0
    for entry in os.scandir(out_dir):
        total += entry.stat().st_size
        if entry.name.endswith("_trace.log"):
            with open(entry.path, "rb") as handle:
                lines += sum(1 for _ in handle)
    return total, lines


# ===== learn-wide =====

# compare.csv rows per family and algorithm for n = 1..7 tests:
# (membership queries, equivalence queries, hypothesis states).
WIDE_EXPECTED = {
    "if": {
        "glstar": [(26, 1, 2), (100, 1, 2), (392, 1, 2), (1552, 1, 2),
                   (6176, 1, 2), (24640, 1, 2), (98432, 1, 2)],
        "lstar": [(114, 2, 3), (444, 2, 3), (1752, 2, 3), (6960, 2, 3),
                  (27744, 2, 3), (110784, 2, 3), (442752, 2, 3)],
    },
    "while": {
        "glstar": [(36, 2, 2), (102, 2, 2), (330, 2, 2), (1170, 2, 2),
                   (4386, 2, 2), (16962, 2, 2), (66690, 2, 2)],
        "lstar": [(78, 2, 3), (300, 2, 3), (1176, 2, 3), (4656, 2, 3),
                  (18528, 2, 3), (73920, 2, 3), (295296, 2, 3)],
    },
}
WIDE_FAMILIES = {
    "if": ("if {t} then do {p[0]} else do {p[1]}", 3),
    "while": ("(while {t} do do {p[0]}); do {p[1]}", 2),
}
# Nominal cost of one membership query. It fixes the sweep length from the
# run length alone, so that every machine runs the same sweep.
NOMINAL_QUERY_S = 25e-6


def wide_n_max(seconds):
    """Largest test count whose sweep, at the nominal query cost, takes at
    most a sixth of the run, so a run holds several sweeps."""
    total, n_max = 0, 1
    for n in range(1, 8):
        total += sum(
            per_algo[n - 1][0]
            for family in WIDE_EXPECTED.values()
            for per_algo in family.values()
        )
        if total * NOMINAL_QUERY_S > seconds / 6:
            break
        n_max = n
    return n_max


class LearnWide:
    """`gkat compare --algo both` over the two criterion-6 families."""

    def __init__(self, rng, seconds, work_dir):
        self.n_max = wide_n_max(seconds)
        tests = _names(rng, "t_", self.n_max)
        self.ops = []
        for family, (template, n_actions) in WIDE_FAMILIES.items():
            actions = _names(rng, "a_", n_actions)
            expr = template.format(t=tests[0], p=actions)
            self.ops.append(
                self._op(family, expr, tests, actions, self.n_max, work_dir)
            )
        self.warm = self._op("if", WIDE_FAMILIES["if"][0].format(
            t="t", p=("p", "q", "r")), ["t"], ["p", "q", "r"], 1, work_dir)

    def _op(self, family, expr, tests, actions, n_max, work_dir):
        out_dir = os.path.join(work_dir, "wide-" + family)
        argv = [
            "compare", "--expr", expr, "--tests", ",".join(tests),
            "--actions", ",".join(actions), "--algo", "both",
            "--sweep", str(n_max), "--out-dir", out_dir,
        ]
        want_rows, want_lines = [], []
        for n in range(1, n_max + 1):
            for algo in ("glstar", "lstar"):
                mq, eq, states = WIDE_EXPECTED[family][algo][n - 1]
                want_rows.append((algo, n, mq, 0, eq, states))
                want_lines.append(
                    "n=%d %s: %d membership, %d equivalence, %d states"
                    % (n, algo, mq, eq, states)
                )
        return Op(
            "%s-n%d" % (family, n_max),
            lambda: run_cli(argv, out_dir, "compare.csv"),
            lambda outcome: _learn_problems(outcome, want_rows, want_lines),
            learner=True,
        )


# ===== learn-deep =====

POOL_FILE = os.path.join(HERE, "learn_deep_pool.json")
DEEP_TESTS = ("t1", "t2")
DEEP_ACTIONS = ("p1", "p2", "p3")
DEEP_GUARDS = (
    "t1", "t2", "not t1", "not t2",
    "t1 and t2", "t1 or t2", "t1 and not t2", "not t1 or t2",
)
DEEP_OPS_PER_PASS = 8
# A small program, learned once before timing, with its recorded counts.
WARM_ENTRY = {
    "expr": "(while t1 do do p1); if t2 then do p2 else do p3",
    "cx": "optimized",
    "zero_fill": True,
    "rows": [["glstar", 2, 54, 72, 2, 2], ["lstar", 2, 444, 0, 2, 3]],
}


def deep_program(rng):
    """A sequence of 10-16 blocks over DEEP_TESTS and DEEP_ACTIONS.

    About a third of the blocks are left unbracketed; a loop or branch body
    is greedy, so those swallow the rest of the sequence and nest.
    """
    blocks = []
    for _ in range(rng.randint(10, 16)):
        guard = rng.choice(DEEP_GUARDS)
        if rng.random() < 0.5:
            block = "while %s do do %s" % (guard, rng.choice(DEEP_ACTIONS))
        else:
            p, q = rng.sample(DEEP_ACTIONS, 2)
            block = "if %s then do %s else do %s" % (guard, p, q)
        blocks.append(block if rng.random() < 0.35 else "(" + block + ")")
    return "; ".join(blocks)


def deep_argv(entry, out_dir):
    argv = [
        "learn", "--expr", entry["expr"], "--tests", ",".join(DEEP_TESTS),
        "--actions", ",".join(DEEP_ACTIONS), "--algo", "both", "--trace",
        "--cx", entry["cx"], "--out-dir", out_dir,
    ]
    return argv + (["--zero-fill"] if entry["zero_fill"] else [])


def learn_lines(rows):
    return [
        "%s: %d states, %d membership queries (%d deduced), "
        "%d equivalence queries" % (algo, states, mq, zf, eq)
        for algo, _, mq, zf, eq, states in rows
    ]


class LearnDeep:
    """`gkat learn --algo both --trace` on structured programs from a
    recorded pool, with their recorded query and state counts."""

    def __init__(self, rng, seconds, work_dir):
        with open(POOL_FILE, encoding="utf-8") as handle:
            pool = json.load(handle)
        # One entry from each of DEEP_OPS_PER_PASS strata of the pool ordered
        # by recorded call count, so that every seed's pass costs about the same.
        by_cost = sorted(range(len(pool)), key=lambda i: pool[i]["calls"])
        size = len(pool) // DEEP_OPS_PER_PASS
        chosen = [rng.choice(by_cost[s * size:(s + 1) * size]) for s in range(DEEP_OPS_PER_PASS)]
        self.ops = [self._op(i, pool[i], work_dir) for i in chosen]
        self.warm = self._op("warm", WARM_ENTRY, work_dir)

    def _op(self, index, entry, work_dir):
        out_dir = os.path.join(work_dir, "deep-%s" % index)
        argv = deep_argv(entry, out_dir)
        want_rows = [tuple(r) for r in entry["rows"]]
        want_lines = learn_lines(want_rows)
        return Op(
            "pool%s-%s%s" % (index, entry["cx"], "-zf" if entry["zero_fill"] else ""),
            lambda: run_cli(argv, out_dir, "stats.csv"),
            lambda outcome: _learn_problems(outcome, want_rows, want_lines),
            learner=True,
        )


# ===== equiv-deep =====

EQUIV_STRATA = 6
EQUIV_K_LOW = 22
EQUIV_STRATUM_WIDTH = 8
# k varies by at most this much within a stratum: time grows about as k^3,
# so a wider choice would make some seeds' passes cost much more than others.
EQUIV_K_JITTER = 3
EQUIV_DEEP_K = 300


def nested_loops(k, test, body, last):
    """'while b do do p; ... ; do q' with k loops; each loop body is greedy,
    so every later loop nests inside the one before."""
    return "; ".join(["while %s do do %s" % (test, body)] * k) + "; do " + last


def unrolled_loops(k, test, body, last):
    """The same program with its outer loop unrolled once."""
    return "if %s then (do %s; %s); (%s) else assert 1" % (
        test, body, nested_loops(k - 1, test, body, last),
        nested_loops(k, test, body, last),
    )


def nested_witness(k, test, body, last):
    """The shortest guarded string on which the programs ending in `last`
    and in another action differ: k loop turns, then the final action."""
    neg = test + MACRON
    return (test + body) * k + neg + last + neg


class EquivDeep:
    """`gkat equiv` on nested-loop pairs: identical, unrolled, and with the
    last action changed, at a seeded k near each of 22, 30, ..., 62; and identical
    pairs at k=300."""

    def __init__(self, rng, seconds, work_dir):
        test = _names(rng, "t_", 1)[0]
        body, last, other = _names(rng, "a_", 3)
        self.tests = TestSet((test,))
        self.actions = (body, last, other)
        ks = [
            EQUIV_K_LOW + EQUIV_STRATUM_WIDTH * i + rng.randrange(EQUIV_K_JITTER)
            for i in range(EQUIV_STRATA)
        ]
        self.ops = []
        for k in ks:
            base = nested_loops(k, test, body, last)
            self.ops.append(self._same("k%d-same" % k, base, base))
            self.ops.append(self._same(
                "k%d-unrolled" % k, base, unrolled_loops(k, test, body, last)))
            self.ops.append(self._changed(k, test, body, last, other))
        for end in (last, other):
            deep = nested_loops(EQUIV_DEEP_K, test, body, end)
            self.ops.append(self._same("k%d-same-%s" % (EQUIV_DEEP_K, end), deep, deep))
        self.warm = self._changed(3, test, body, last, other, bounded_oracle=True)

    def _argv(self, e1, e2):
        return [
            "equiv", "--expr", e1, "--expr2", e2, "--tests", self.tests.tests[0],
            "--actions", ",".join(self.actions),
        ]

    def _same(self, op_id, e1, e2):
        argv = self._argv(e1, e2)

        def check(outcome):
            if (outcome.rc, outcome.stdout) != (0, "equivalent\n"):
                return ["exit %r, output %r" % (outcome.rc, outcome.stdout[:200])]
            return []

        return Op(op_id, lambda: run_cli(argv), check)

    def _changed(self, k, test, body, last, other, bounded_oracle=False):
        e1 = nested_loops(k, test, body, last)
        e2 = nested_loops(k, test, body, other)
        argv = self._argv(e1, e2)
        witness = nested_witness(k, test, body, last)
        verified = []

        def check(outcome):
            want = "inequivalent; witness: %s\n" % witness
            if (outcome.rc, outcome.stdout) != (1, want):
                return ["exit %r, output %r" % (outcome.rc, outcome.stdout[:200])]
            if not verified:
                verified.append(self._witness_problems(e1, e2, k, bounded_oracle))
            return verified[0]

        return Op("k%d-changed" % k, lambda: run_cli(argv), check)

    def _witness_problems(self, e1, e2, k, bounded_oracle):
        yes, no = Atom(self.tests.tests, 1), Atom(self.tests.tests, 0)
        w = GuardedString((yes,) * k + (no, no), (self.actions[0],) * k + (self.actions[1],))
        progs = [syntax.parse_exp(e, self.tests, self.actions) for e in (e1, e2)]
        verdicts = [oracle.accepts(p, w) for p in progs]
        if bounded_oracle:
            verdicts += [language.member(p, w, self.tests, self.actions) for p in progs]
        if verdicts[:2] != [1, 0] or verdicts[2:] not in ([], [1, 0]):
            return ["witness verdicts %r" % (verdicts,)]
        return []


# ===== automata-large =====

LARGE_TESTS = TestSet(("t1", "t2", "t3"))
LARGE_ACTIONS = ("p", "q")
LARGE_SIZES = (3_000, 10_000)
# Narrow ranges: chain costs grow faster than linearly in their length, and
# every seed's pass should cost about the same.
CHAIN_HALF = (260, 265)
SIMILAR_CHAIN = (78, 82)


def random_automaton(rng, n):
    width = 2 ** len(LARGE_TESTS)
    delta = []
    for _ in range(n):
        row = []
        for _ in range(width):
            r = rng.random()
            if r < 0.15:
                row.append(0)
            elif r < 0.3:
                row.append(1)
            else:
                row.append((rng.choice(LARGE_ACTIONS), rng.randrange(n)))
        delta.append(tuple(row))
    return automata.GkatAutomaton(LARGE_TESTS, LARGE_ACTIONS, tuple(delta), 0)


def renumbered(aut, rng):
    perm = list(range(aut.n_states))
    rng.shuffle(perm)
    delta = [None] * aut.n_states
    for old, new in enumerate(perm):
        delta[new] = tuple(
            (e[0], perm[e[1]]) if isinstance(e, tuple) else e for e in aut.delta[old]
        )
    return automata.GkatAutomaton(aut.tests, aut.actions, tuple(delta), perm[aut.initial])


def mutant(aut, rng):
    """Flip one accept of a reachable state to reject; the access word of
    that state followed by the atom then leaves the language."""
    accepting = [(x, b) for x in range(aut.n_states) for b, e in enumerate(aut.delta[x]) if e == 1]
    x, bits = accepting[rng.randrange(len(accepting))]
    delta = list(aut.delta)
    delta[x] = tuple(0 if b == bits else e for b, e in enumerate(delta[x]))
    return automata.GkatAutomaton(aut.tests, aut.actions, tuple(delta), aut.initial)


def twin_chain(half):
    """Two copies of a chain of `half` states, crossing over on odd atoms.

    The copies are bisimilar, so minimization halves the machine, and
    refinement needs one round per chain position."""
    width = 2 ** len(LARGE_TESTS)
    delta = []
    for copy in (0, 1):
        for i in range(half):
            if i == half - 1:
                delta.append((1,) * width)
                continue
            delta.append(tuple(
                ("p", (copy if b % 2 == 0 else 1 - copy) * half + i + 1)
                for b in range(width)
            ))
    return automata.GkatAutomaton(LARGE_TESTS, LARGE_ACTIONS, tuple(delta), 0)


def accept_chain(n, drop_last):
    """A chain that accepts on every third atom and steps on the rest; with
    drop_last its final state rejects atom 1, so it cannot simulate the
    full chain, and the difference travels back one state per round."""
    width = 2 ** len(LARGE_TESTS)
    delta = [
        tuple(1 if b % 3 == 0 else ("p", i + 1) for b in range(width))
        for i in range(n - 1)
    ]
    last = [1] * width
    if drop_last:
        last[1] = 0
    delta.append(tuple(last))
    return automata.GkatAutomaton(LARGE_TESTS, LARGE_ACTIONS, tuple(delta), 0)


class AutomataLarge:
    """Library calls on seeded random automata and on chains."""

    def __init__(self, rng, seconds, work_dir):
        self.rng = rng
        self.ops = []
        for n in LARGE_SIZES:
            self._add_random(n, random_automaton(rng, n))
        half = rng.randint(*CHAIN_HALF)
        chain = twin_chain(half)
        self.ops.append(Op(
            "chain%d-minimize" % chain.n_states,
            lambda: automata.minimize(chain).n_states,
            lambda got: [] if got == half else ["%r states, expected %d" % (got, half)],
        ))
        n = rng.randint(*SIMILAR_CHAIN)
        full, cut = accept_chain(n, False), accept_chain(n, True)
        self.ops.append(Op(
            "chain%d-similar" % n,
            lambda: automata.similar(full, 0, cut, 0),
            lambda got: [] if got == 0 else ["similar %r, expected 0" % (got,)],
        ))
        tiny = random_automaton(random.Random(0), 50)
        self.warm = Op(
            "warm",
            lambda: automata.isomorphic(*[automata.minimize(automata.normalize(tiny))] * 2)[0],
            lambda got: [] if got == 1 else ["isomorphic %r" % (got,)],
        )

    def _add_random(self, n, raw):
        # Inputs derived from the minimized machine are built on first use,
        # outside the timed calls, and kept for the later passes.
        state = {}

        def normal():
            state["normal"] = automata.normalize(raw)
            return state["normal"].n_states

        def minimal():
            state["min"] = automata.minimize(state["normal"])
            return state["min"].n_states

        def check_minimal(got):
            if "count" not in state:
                state["count"] = got
                m = state["min"]
                state["copy"] = renumbered(m, self.rng)
                state["mutant"] = mutant(m, self.rng)
                # minimization keeps the language, by the teacher's product
                if learning.GkatTeacher(state["normal"]).equivalence(m) is not None:
                    return ["minimize changed the language"]
            return [] if got == state["count"] else ["%r states, then %r" % (state["count"], got)]

        def check_witness(w):
            if w is None:
                return ["mutant reported equivalent"]
            a, b = oracle.run_delta(state["min"], w), oracle.run_delta(state["mutant"], w)
            return [] if a != b else ["witness %s accepted by both or neither" % (w,)]

        def expect(value):
            return lambda got: [] if got == value else ["%r, expected %r" % (got, value)]

        self.ops += [
            Op("n%d-normalize" % n, normal, expect(n)),
            Op("n%d-minimize" % n, minimal, check_minimal),
            Op("n%d-isomorphic" % n,
               lambda: automata.isomorphic(state["min"], state["copy"])[0], expect(1)),
            Op("n%d-teacher-copy" % n,
               lambda: learning.GkatTeacher(state["min"]).equivalence(state["copy"]),
               expect(None)),
            Op("n%d-teacher-mutant" % n,
               lambda: learning.GkatTeacher(state["min"]).equivalence(state["mutant"]),
               check_witness),
            Op("n%d-bisimilar" % n,
               lambda: automata.bisimilar(
                   state["min"], state["min"].initial, state["copy"], state["copy"].initial),
               expect((1, None))),
        ]


WORKLOADS = {
    "learn-wide": LearnWide,
    "learn-deep": LearnDeep,
    "equiv-deep": EquivDeep,
    "automata-large": AutomataLarge,
}


def build(name, seed, seconds, work_dir):
    """The named workload with inputs drawn from the seed."""
    os.makedirs(work_dir, exist_ok=True)
    return WORKLOADS[name](random.Random("%s/%d" % (name, seed)), seconds, work_dir)


def clean(out_dir):
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
