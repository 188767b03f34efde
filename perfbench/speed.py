"""Host speed, measured by a fixed reference loop, for scaling times.

The shared hosts this benchmark runs on change speed by up to 2x, over
stretches from under a second to minutes. So the benchmark times a short
reference loop before and after every timed operation, and scales the
operation's time to a nominal host speed:

    time at nominal speed = measured time * NOMINAL_REF_S / reference time

where the reference time is the mean of the two runs around the
operation. The loop looks up tuple keys in a dict and does integer
arithmetic, with the garbage collector off; its data is built on first
use, so the timed region allocates almost nothing. A loop that built
fresh dicts and sets on every run slowed 2x under a neighbour's load
that slowed the operations 1.3x, and so over-corrected. The loop belongs
to the benchmark and must not change between the two commits being
compared.

On a 2-vCPU shared host, five seeds of `equiv-deep` gave a spread
(quartile distance over median) of the summed per-operation median times
of 0.141 raw and 0.027 scaled. Scaling per-operation minima by the loop's
minimum did worse than the raw medians there under load (0.216 against
0.157 over ten seeds), because a 10 ms loop finds the host's fast moments
more often than a longer operation does.
"""
from __future__ import annotations

import gc
import random
import time

# About the reference loop's time on the host the benchmark was defined
# on, at that host's full speed. Scaled times read as seconds on a host
# where the loop takes this long.
NOMINAL_REF_S = 0.010


class _Node:
    __slots__ = ("key", "succ")

    def __init__(self, key, succ):
        self.key = key
        self.succ = succ


# The loop's data, built on first use so that it stays out of set-up time
# and is not allocated again in the timed region.
_DATA = []


def _reference_work():
    if not _DATA:
        rng = random.Random(7)
        nodes = [_Node((i % 13, i % 7, "s%d" % (i % 97)), rng.randrange(4000))
                 for i in range(4000)]
        table = {(n.key, nodes[n.succ].key[0], r): r for r in range(3) for n in nodes}
        _DATA[:] = [nodes, table]
    nodes, table = _DATA
    hits = 0
    for rnd in range(3):
        for node in nodes:
            if (node.key, nodes[node.succ].key[0], rnd) in table:
                hits += 1
    total = 0
    for i in range(80_000):
        total += i * i % 7
    return hits + total


def reference_s():
    """Seconds one run of the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_nominal(seconds, ref_s):
    """`seconds` measured while the reference loop took `ref_s`, scaled to
    a host where it takes NOMINAL_REF_S."""
    return seconds * NOMINAL_REF_S / ref_s
