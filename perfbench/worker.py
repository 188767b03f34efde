"""One workload in its own process: set up, then time passes over its ops.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --phase {setup,run,trace,count} --launched UNIX_TIME

run.py starts this from the checkout root and reads the JSON object on
its last line of output. Phases:
  setup  imports, builds the inputs and warms up, then reports set-up time;
  run    then repeats passes (every op once) with tracing off until the
         time is up, timing the reference loop of speed.py around each op;
  trace  alternates passes with tracing off and on, for the per-layer
         spans and the tracing overhead;
  count  runs one pass with a call-counting profile hook.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".perfbench"

# Per-layer metrics that are self time summed over spans of these names.
SELF_TIME = {
    "syntax.parse_s": ("syntax.parse",),
    "syntax.embed_kat_s": ("syntax.embed_kat",),
    "construct.gkat_automaton_s": ("construct.gkat_automaton",),
    "construct.kat_moore_automaton_s": ("construct.kat_moore_automaton",),
    "automata.normalize_s": ("automata.normalize",),
    "automata.minimize_s": ("automata.minimize",),
    "automata.isomorphic_s": ("automata.isomorphic",),
    "automata.bisimilar_s": ("automata.bisimilar",),
    "automata.similar_s": ("automata.similar",),
    "automata.embed_moore_s": ("automata.embed_moore",),
    "automata.moore_difference_s": ("automata.moore_difference",),
    "learning.fill_s": ("learning.fill",),
    "learning.close_s": ("learning.close",),
    "learning.hypothesis_s": ("learning.hypothesis",),
    "learning.cx_s": ("learning.cx",),
    "cli.self_s": ("cli.main", "cli.cmd"),
}
# Other span-derived metrics and the spans each needs.
NEEDS = {
    "construct.residuals": ("construct.gkat_automaton", "construct.kat_moore_automaton"),
    "automata.minimize_merged": ("automata.minimize",),
    "learning.rows": ("learning.fill",),
    "learning.columns": ("learning.fill",),
    "learning.deduced": ("learning.fill",),
    "learning.table_self_s": ("learning.learner",),
    "learning.eq": ("learning.eq",),
    "learning.eq_s": ("learning.eq",),
    "learning.mq": ("learning.mq",),
    "learning.mq_s": ("learning.mq",),
    "learning.mq_distinct_frac": ("learning.mq",),
}
TEACHER_SPANS = ("learning.mq", "learning.eq")
# Runs of the reference loop after set-up, for the host speed at set-up.
SETUP_REF_RUNS = 3


def run_op(op, tracer=None, counter=None):
    """Time one op; returns (seconds, outcome, error)."""
    outcome = error = None
    if tracer is not None:
        tracer.op = op.op_id
        tracer.install()
    if counter is not None:
        counter.start()
    start = time.perf_counter()
    try:
        outcome = op.run()
    except (RecursionError, MemoryError) as exc:
        error = type(exc).__name__
    except SystemExit as exc:
        error = "SystemExit(%r)" % (exc.code,)
    except Exception as exc:  # every escaping error counts as a failed op
        error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        elapsed = time.perf_counter() - start
        if counter is not None:
            counter.stop()
        if tracer is not None:
            tracer.uninstall()
    return elapsed, outcome, error


def run_pass(ops, tracer=None, counter=None, measure_artifacts=False, ref_times=None):
    """Every op once. With `ref_times`, a list kept across passes, the
    reference loop is also timed after each op (and before the first), and
    each record gets the op's time scaled to nominal host speed by the
    mean of the runs before and after it. Returns (timed seconds, per-op
    records)."""
    total = 0.0
    records = []
    for op in ops:
        if ref_times == []:
            ref_times.append(speed.reference_s())
        elapsed, outcome, error = run_op(op, tracer, counter)
        total += elapsed
        rec = {"op": op.op_id, "s": elapsed, "failed": False, "wrong": False}
        if ref_times is not None:
            ref_times.append(speed.reference_s())
            rec["nominal_s"] = speed.at_nominal(elapsed, (ref_times[-2] + ref_times[-1]) / 2)
        cli_outcome = isinstance(outcome, workloads.CliOutcome)
        if error is not None:
            rec["failed"], rec["problems"] = True, [error]
        elif cli_outcome and outcome.rc not in (0, 1):
            rec["failed"], rec["problems"] = True, ["exit code %r" % (outcome.rc,)]
        else:
            problems = op.check(outcome)
            if problems:
                rec["failed"] = rec["wrong"] = True
                rec["problems"] = problems
        if op.learner and not rec["failed"]:
            rows = outcome.rows
            rec["mq"] = sum(int(r[2]) for r in rows)
            rec["eq"] = sum(int(r[4]) for r in rows)
            rec["learner_ms"] = sum(int(r[6]) for r in rows)
            if measure_artifacts:
                rec["bytes"], rec["trace_lines"] = workloads.artifact_sizes(outcome.out_dir)
        if cli_outcome:
            workloads.clean(outcome.out_dir)
        records.append(rec)
    return total, records


def run_window(seconds, step):
    """Call step(i) for pass i until the next pass would overrun `seconds`;
    at least two passes."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        start = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - start)
        if len(durations) >= 2 and time.perf_counter() + statistics.median(durations) > deadline:
            return


def tally(passes):
    """attempted, failed, wrong, first problems over all passes' records."""
    records = [rec for recs in passes for rec in recs]
    problems = []
    for rec in records:
        for p in rec.get("problems", ()):
            if len(problems) < 5:
                problems.append("%s: %s" % (rec["op"], p))
    return {
        "attempted": len(records),
        "failed": sum(rec["failed"] for rec in records),
        "wrong": sum(rec["wrong"] for rec in records),
        "problems": problems,
    }


def layer_metrics(tracer, records):
    """Per-layer metrics of one traced pass; None marks a metric whose
    patched names no longer exist in the package."""
    spans = tracer.spans
    stats = tracing.self_times(spans)
    out = {}
    for name, span_names in SELF_TIME.items():
        out[name] = sum((stats[s][1] for s in span_names if s in stats), 0.0)

    in_learner = [False] * len(spans)
    table_self = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            in_learner[i] = in_learner[parent] or spans[parent][0] == "learning.learner"
        if name == "learning.learner":
            table_self += end - start
        elif name in TEACHER_SPANS and in_learner[i]:
            table_self -= end - start
    out["learning.table_self_s"] = table_self

    tables = list(tracer.tables.values())
    try:
        out["learning.rows"] = sum(len(t.all_rows()) for t in tables)
        out["learning.columns"] = sum(len(t.E) for t in tables)
    except AttributeError:
        out["learning.rows"] = out["learning.columns"] = None
    out["learning.deduced"] = sum(len(getattr(t, "deduced", ())) for t in tables)
    mq = stats["learning.mq"][0] if "learning.mq" in stats else 0
    out["learning.mq"] = mq
    out["learning.mq_s"] = stats["learning.mq"][2] if mq else 0.0
    distinct = sum(len(words) for words in tracer.words.values())
    out["learning.mq_distinct_frac"] = distinct / mq if mq else 0.0
    eq = stats["learning.eq"][0] if "learning.eq" in stats else 0
    out["learning.eq"] = eq
    out["learning.eq_s"] = stats["learning.eq"][2] if eq else 0.0
    out["construct.residuals"] = tracer.sizes["construct.residuals"]
    out["automata.minimize_merged"] = tracer.sizes["automata.minimize_merged"]
    out["cli.bytes_written"] = sum(rec.get("bytes", 0) for rec in records)
    out["cli.trace_lines"] = sum(rec.get("trace_lines", 0) for rec in records)

    for name, span_names in list(SELF_TIME.items()) + list(NEEDS.items()):
        if all(s in tracer.missing for s in span_names):
            out[name] = None
    return out


def integrity_problems(tracer, records):
    """Query counts seen by the tracer must equal the ones the program
    reported for the same ops."""
    seen = {}
    for name, _, _, _, op in tracer.spans:
        if name in TEACHER_SPANS:
            key = (op, name)
            seen[key] = seen.get(key, 0) + 1
    problems = []
    for rec in records:
        for kind, span in (("mq", "learning.mq"), ("eq", "learning.eq")):
            if kind in rec and seen.get((rec["op"], span), 0) != rec[kind]:
                problems.append("%s: traced %s %d, reported %d" % (
                    rec["op"], kind, seen.get((rec["op"], span), 0), rec[kind]))
    return problems


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True, choices=("setup", "run", "trace", "count"))
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args(argv)

    work_dir = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    wl = workloads.build(args.workload, args.seed, args.seconds, work_dir)
    _, warm_records = run_pass([wl.warm])
    if warm_records[0]["failed"]:
        raise SystemExit("warm-up failed: %r" % (warm_records[0]["problems"],))
    setup_s = time.time() - args.launched
    result = {
        "setup_s": setup_s,
        "setup_ref_s": statistics.median(speed.reference_s() for _ in range(SETUP_REF_RUNS)),
    }

    if args.phase == "run":
        passes = []
        ref_times = []

        def step(_):
            passes.append(run_pass(wl.ops, ref_times=ref_times))

        run_window(args.seconds, step)
        result.update(tally([recs for _, recs in passes]))
        result["pass_s"] = [total for total, _ in passes]
        nominal = {}
        for _, records in passes:
            for rec in records:
                nominal.setdefault(rec["op"], []).append(rec["nominal_s"])
        result["op_nominal_s"] = {op: statistics.median(v) for op, v in nominal.items()}
        result["ref_median_s"] = statistics.median(ref_times)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elif args.phase == "trace":
        tracer = tracing.SpanTracer()
        plain, traced = [], []

        def step(i):
            if i % 2 == 0:
                plain.append(run_pass(wl.ops))
                return
            tracer.reset()
            total, records = run_pass(wl.ops, tracer, measure_artifacts=True)
            traced.append((total, records, layer_metrics(tracer, records),
                           integrity_problems(tracer, records)))

        run_window(args.seconds, step)
        write_spans(tracer.spans, os.path.join(WORK_DIR, "spans-%s-%d.jsonl" % (
            args.workload, args.seed)))
        layers = {}
        for name in traced[0][2]:
            values = [metrics[name] for _, _, metrics, _ in traced]
            layers[name] = None if None in values else statistics.median(values)
        rates = [
            sum(r.get("mq", 0) for r in recs) / (sum(r.get("learner_ms", 0) for r in recs) / 1000)
            for _, recs in plain
            if sum(r.get("learner_ms", 0) for r in recs) > 0
        ]
        layers["learning.mq_per_s"] = statistics.median(rates) if rates else 0.0
        layers["trace_overhead_frac"] = (
            statistics.median(t for t, _, _, _ in traced)
            / statistics.median(t for t, _ in plain) - 1
        )
        result.update(tally([recs for _, recs in plain] + [recs for _, recs, _, _ in traced]))
        result["integrity"] = [p for *_, problems in traced for p in problems][:5]
        result["layers"] = layers
        result["missing_spans"] = sorted(tracer.missing)
    elif args.phase == "count":
        package_dir = os.path.dirname(os.path.abspath(workloads.cli.__file__))
        counter = tracing.CallCounter(package_dir)
        passes = []
        passes.append(run_pass(wl.ops, counter=counter))
        result.update(tally([recs for _, recs in passes]))
        result["calls"] = {
            "calls." + m: counter.counts[m] for m in tracing.COUNTED_MODULES
        }
    workloads.clean(work_dir)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
