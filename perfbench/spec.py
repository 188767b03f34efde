"""What the benchmark measures: workloads, metrics, and how they relate.

BENCHMARK.json at the repository root is generated from this file with
`python3 perfbench/run.py --write-spec`. The mapping from each per-layer
metric to the end-to-end metric and workload it should move (PER_LAYER),
and the reason the `language` module has no workload, live here only,
because BENCHMARK.json has a fixed set of keys.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

# The `language` module (bounded denote/member) has no workload: it is the
# independent oracle, and the benchmark only uses it to check outputs.
WORKLOADS = [
    ("learn-wide",
     "gkat compare on the criterion-6 families: atoms double per test while "
     "targets stay at 2-3 states, so time is table fill and membership queries"),
    ("learn-deep",
     "gkat learn --trace on 10-16 block programs: 10-11 state targets and 3-7 "
     "equivalence queries stress close, hypotheses, counterexamples and trace files"),
    ("equiv-deep",
     "gkat equiv on nested loops: parsing and derivative construction over deep "
     "residuals dominate, no learning; k=300 pairs expose the recursion failure"),
    ("automata-large",
     "normalize, minimize, isomorphic, teacher equivalence and bisimilar on "
     "3*10^3 and 10^4 random states, plus chains that need one round per state"),
]

# (name, unit, better, bound). wall_s and setup_s are scaled to a nominal
# host speed (speed.py); wall_s sums each op's median time in the run.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ops_ok_frac", "frac", "higher", 0.05),
]

# (name, unit, better, what it should move)
PER_LAYER = [
    ("syntax.parse_s", "s", "lower", "wall_s and ops_ok_frac on equiv-deep; near zero on learn-wide"),
    ("syntax.embed_kat_s", "s", "lower", "wall_s on learn-wide and learn-deep (L* targets)"),
    ("construct.gkat_automaton_s", "s", "lower", "wall_s and ops_ok_frac on equiv-deep"),
    ("construct.kat_moore_automaton_s", "s", "lower", "wall_s on learn-deep"),
    ("construct.residuals", "count", "lower", "wall_s on equiv-deep (states built)"),
    ("automata.normalize_s", "s", "lower", "wall_s on automata-large"),
    ("automata.minimize_s", "s", "lower", "wall_s and peak_rss_mb on automata-large; wall_s on equiv-deep"),
    ("automata.minimize_merged", "count", "higher", "states in minus states out; a work count"),
    ("automata.isomorphic_s", "s", "lower", "wall_s on automata-large and equiv-deep"),
    ("automata.bisimilar_s", "s", "lower", "wall_s on automata-large and equiv-deep"),
    ("automata.similar_s", "s", "lower", "wall_s on automata-large"),
    ("automata.embed_moore_s", "s", "lower", "wall_s and peak_rss_mb on automata-large; wall_s on learn-deep"),
    ("automata.moore_difference_s", "s", "lower", "wall_s on automata-large and learn-deep"),
    ("learning.fill_s", "s", "lower", "wall_s on learn-wide"),
    ("learning.table_self_s", "s", "lower", "wall_s on learn-wide; learner time minus teacher time"),
    ("learning.rows", "count", "lower", "wall_s and peak_rss_mb on learn-wide"),
    ("learning.columns", "count", "lower", "wall_s and peak_rss_mb on learn-wide"),
    ("learning.deduced", "count", "higher", "wall_s on learn-deep (zero-fill runs)"),
    ("learning.close_s", "s", "lower", "wall_s on learn-deep"),
    ("learning.hypothesis_s", "s", "lower", "wall_s on learn-deep"),
    ("learning.cx_s", "s", "lower", "wall_s on learn-deep"),
    ("learning.eq", "count", "lower", "wall_s on learn-deep"),
    ("learning.eq_s", "s", "lower", "wall_s on learn-deep"),
    ("learning.mq", "count", "lower", "wall_s on learn-wide; must not change"),
    ("learning.mq_s", "s", "lower", "wall_s on learn-wide; bounds any teacher-side gain"),
    ("learning.mq_distinct_frac", "frac", "higher", "wall_s on learn-wide; distinct words per query"),
    ("learning.mq_per_s", "1/s", "higher", "wall_s on learn-wide and learn-deep; queries per second of the learner time cli reports (wall_ms)"),
    ("cli.self_s", "s", "lower", "wall_s on learn-deep; about zero on learn-wide"),
    ("cli.bytes_written", "B", "lower", "wall_s on learn-deep"),
    ("cli.trace_lines", "count", "lower", "wall_s on learn-deep"),
    ("calls.syntax", "count", "lower", "wall_s on equiv-deep and learn-wide"),
    ("calls.construct", "count", "lower", "wall_s on equiv-deep"),
    ("calls.automata", "count", "lower", "wall_s on automata-large"),
    ("calls.learning", "count", "lower", "wall_s on learn-wide and learn-deep"),
    ("calls.cli", "count", "lower", "wall_s on learn-deep"),
    ("trace_overhead_frac", "frac", "lower", "nothing; the cost of tracing itself"),
]

def benchmark_json():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
