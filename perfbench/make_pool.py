"""Regenerate learn_deep_pool.json, the recorded inputs of learn-deep.

Run from the repository root:

    PYTHONHASHSEED=0 python3 perfbench/make_pool.py

Programs come from a fixed master seed. Entry i uses `--cx optimized` when
i is odd and `--zero-fill` when i % 3 == 2. A candidate is kept when its
learned guarded automaton has 10-17 states, GL* needs at least 3
equivalence queries, both learners together ask 5,000 to 15,000
membership queries, and the run makes 1.0 to 1.6 million Python calls
into the package. The last two bounds keep the cost of the entries
close, so that every seed's sample of the pool costs about the same; the
benchmark also orders the pool by these call counts to draw its sample.
The query and state counts recorded here are the expected outputs the
benchmark checks.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

MASTER_SEED = 20221
POOL_SIZE = 48
STATES = (10, 17)
MIN_EQ = 3
QUERIES = (5_000, 15_000)
CALLS = (1_000_000, 1_600_000)


def main():
    rng = random.Random(MASTER_SEED)
    out_dir = os.path.join(".perfbench", "make_pool")
    package_dir = os.path.dirname(os.path.abspath(workloads.cli.__file__))
    pool = []
    while len(pool) < POOL_SIZE:
        i = len(pool)
        entry = {
            "expr": workloads.deep_program(rng),
            "cx": "optimized" if i % 2 else "suffix",
            "zero_fill": i % 3 == 2,
        }
        argv = workloads.deep_argv(entry, out_dir)
        outcome = workloads.run_cli(argv, out_dir, "stats.csv")
        shutil.rmtree(out_dir, ignore_errors=True)
        if outcome.rc != 0:
            continue
        rows = [workloads.run_row(r) for r in outcome.rows]
        glstar = rows[0]
        queries = sum(r[2] for r in rows)
        if not (
            STATES[0] <= glstar[5] <= STATES[1]
            and glstar[4] >= MIN_EQ
            and QUERIES[0] <= queries <= QUERIES[1]
        ):
            continue
        counter = tracing.CallCounter(package_dir)
        counter.start()
        workloads.run_cli(argv)
        counter.stop()
        shutil.rmtree(out_dir, ignore_errors=True)
        calls = sum(counter.counts.values())
        if CALLS[0] <= calls <= CALLS[1]:
            entry["rows"] = rows
            entry["calls"] = calls
            pool.append(entry)
            print("%d of %d entries" % (len(pool), POOL_SIZE), file=sys.stderr)
    with open(workloads.POOL_FILE, "w", encoding="utf-8") as handle:
        json.dump(pool, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
