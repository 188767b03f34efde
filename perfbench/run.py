"""Benchmark of the gkat toolkit; standard library only.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N
    python3 perfbench/run.py --write-spec

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics of one workload, measured with tracing off; with
--trace 1 it holds the per-layer metrics, from a traced run and from a
call-counting run. `--workload all` prints both for every workload, runs
the counting twice to show that the counts repeat, and ends with one JSON
object of everything. `--write-spec` regenerates BENCHMARK.json from
spec.py. Workloads, metrics and the layer-to-metric mapping are in
spec.py; inputs and output checks in workloads.py.

Every measurement runs in a fresh worker process (worker.py) with a fixed
PYTHONHASHSEED, so that dict and set layouts, and with them the call
counts, repeat between processes. Set-up time is the median over
SETUP_SAMPLES processes, each timed from launch to its first operation.
The load is one process and one thread at a time.

End-to-end times are scaled to a nominal host speed (speed.py), because
the shared hosts this runs on drift in speed by up to 2x: `wall_s` is the
sum over the workload's ops of each op's median time in the run, every
op time scaled by the reference loop timed around it; `setup_s` is each
process's set-up time scaled by the loop timed right after it. The raw
times are in the record printed before the result line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import spec
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
# Each invocation with one workload must end within this many seconds.
BUDGET_S = 170


class BenchError(RuntimeError):
    pass


def worker(workload, seed, seconds, phase, deadline):
    """Run one worker phase to completion; returns its JSON result."""
    launched = time.time()
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--phase", phase, "--launched", repr(launched),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s phase ran out of time" % (workload, phase))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError("%s %s phase exited with %d" % (workload, phase, proc.returncode))
    return json.loads(out.decode("utf-8").strip().splitlines()[-1])


def environment(seed):
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed}


def end_to_end(workload, seed, seconds, deadline):
    setups = [worker(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = worker(workload, seed, seconds, "run", deadline)
    setups.append(run)
    values = {
        "wall_s": sum(run["op_nominal_s"].values()),
        "setup_s": statistics.median(
            speed.at_nominal(s["setup_s"], s["setup_ref_s"]) for s in setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_ok_frac": 1 - run["failed"] / run["attempted"],
    }
    record = dict(environment(seed), workload=workload,
                  setup_samples_s=[s["setup_s"] for s in setups],
                  setup_ref_s=[s["setup_ref_s"] for s in setups], run=run)
    return run["wrong"] == 0, run["attempted"], run["failed"], values, record


def per_layer(workload, seed, seconds, deadline):
    trace = worker(workload, seed, seconds, "trace", deadline)
    count = worker(workload, seed, seconds, "count", deadline)
    values = dict(trace["layers"], **count["calls"])
    correct = trace["wrong"] == 0 and count["wrong"] == 0 and not trace["integrity"]
    attempted = trace["attempted"] + count["attempted"]
    failed = trace["failed"] + count["failed"]
    record = dict(environment(seed), workload=workload, trace=trace, count=count)
    return correct, attempted, failed, values, record


def result_line(correct, attempted, failed, values, metrics):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, *_ in metrics
        },
    }


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + BUDGET_S
    if trace:
        correct, attempted, failed, values, record = per_layer(workload, seed, seconds, deadline)
        metrics = spec.PER_LAYER
    else:
        correct, attempted, failed, values, record = end_to_end(workload, seed, seconds, deadline)
        metrics = spec.END_TO_END
    return result_line(correct, attempted, failed, values, metrics), record


def measure_all(seed, seconds):
    """Every workload, untraced and traced, with the counting run repeated."""
    summary = {}
    for workload, _ in spec.WORKLOADS:
        e2e, _ = measure(workload, seed, seconds, 0)
        layers, record = measure(workload, seed, seconds, 1)
        again = worker(workload, seed, seconds, "count", time.monotonic() + BUDGET_S)
        repeat = again["calls"] == record["count"]["calls"]
        for name, metric in list(e2e["metrics"].items()) + list(layers["metrics"].items()):
            print("%-15s %-32s %s %s" % (workload, name, metric["value"], metric["unit"]))
        print("%-15s calls repeat in a second process: %s" % (workload, repeat))
        summary[workload] = {"end_to_end": e2e, "per_layer": layers, "calls_repeat": repeat}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark of the gkat toolkit.")
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py")
    args = parser.parse_args(argv)
    # A terminated run still stops and waits for its worker (see worker()).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.write_spec:
        with open("BENCHMARK.json", "w", encoding="utf-8") as handle:
            json.dump(spec.benchmark_json(), handle, indent=2, ensure_ascii=False)
            handle.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join("src", "gkat", "__init__.py")):
        print("run from the repository root: src/gkat is missing", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            print(json.dumps(measure_all(args.seed, args.seconds)))
            return 0
        result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
