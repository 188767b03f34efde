"""Spans and call counts measured from outside the package.

The span tracer replaces public names of the gkat modules and classes with
timing wrappers, at the site where the caller looks them up, and restores
them afterwards. Each call becomes one span (name, start, end, parent,
operation id) kept in memory. The call counter is a sys.setprofile hook
that tallies Python function calls per gkat module.
"""
from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

COUNTED_MODULES = ("syntax", "construct", "automata", "learning", "cli")

# (owner, attribute, span name). The owner is a module of the package or a
# class in it; cli-imported names are patched in gkat.cli, where cli finds
# them. Span names are "<layer>.<kind>".
PATCH_SITES = [
    ("cli", "main", "cli.main"),
    ("cli", "cmd_learn", "cli.cmd"),
    ("cli", "cmd_compare", "cli.cmd"),
    ("cli", "cmd_equiv", "cli.cmd"),
    ("cli", "parse_exp", "syntax.parse"),
    ("cli", "embed_kat", "syntax.embed_kat"),
    ("cli", "gkat_automaton", "construct.gkat_automaton"),
    ("cli", "kat_moore_automaton", "construct.kat_moore_automaton"),
    ("cli", "normalize", "automata.normalize"),
    ("cli", "minimize", "automata.minimize"),
    ("cli", "isomorphic", "automata.isomorphic"),
    ("cli", "bisimilar", "automata.bisimilar"),
    ("cli", "glstar", "learning.learner"),
    ("cli", "lstar_moore", "learning.learner"),
    ("automata", "normalize", "automata.normalize"),
    ("automata", "minimize", "automata.minimize"),
    ("automata", "isomorphic", "automata.isomorphic"),
    ("automata", "bisimilar", "automata.bisimilar"),
    ("automata", "similar", "automata.similar"),
    ("automata", "embed_moore", "automata.embed_moore"),
    ("automata", "moore_difference", "automata.moore_difference"),
    ("automata", "moore_difference_gs", "automata.moore_difference"),
    ("learning", "embed_moore", "automata.embed_moore"),
    ("learning", "moore_difference", "automata.moore_difference"),
    ("learning", "moore_difference_gs", "automata.moore_difference"),
    ("learning", "optimized_counterexample", "learning.cx"),
    ("learning.GlObservationTable", "fill", "learning.fill"),
    ("learning.GlObservationTable", "close", "learning.close"),
    ("learning.GlObservationTable", "hypothesis", "learning.hypothesis"),
    ("learning.GlObservationTable", "add_counterexample", "learning.cx"),
    ("learning.LStarObservationTable", "fill", "learning.fill"),
    ("learning.LStarObservationTable", "close", "learning.close"),
    ("learning.LStarObservationTable", "hypothesis", "learning.hypothesis"),
    ("learning.LStarObservationTable", "add_counterexample", "learning.cx"),
    ("learning.GkatTeacher", "membership", "learning.mq"),
    ("learning.GkatTeacher", "equivalence", "learning.eq"),
    ("learning.MooreTeacher", "membership", "learning.mq"),
    ("learning.MooreTeacher", "equivalence", "learning.eq"),
]


def _resolve(owner):
    """The module or class named by a site owner, or None if it is gone."""
    module_name, _, class_name = owner.partition(".")
    module = sys.modules.get("gkat." + module_name)
    if module is None or not class_name:
        return module
    return getattr(module, class_name, None)


class SpanTracer:
    """Wraps the patch sites while installed and records one span per call."""

    def __init__(self):
        self.spans = []
        self.missing = set()
        self.op = None
        self._stack = []
        self._saved = []
        self.sizes = Counter()
        self.tables = {}
        self.words = defaultdict(set)

    def install(self):
        present = set()
        for owner, attr, span in PATCH_SITES:
            target = _resolve(owner)
            original = getattr(target, attr, None) if target is not None else None
            if original is None:
                continue
            present.add(span)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(span, original))
        self.missing = {span for _, _, span in PATCH_SITES} - present

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved = []

    def reset(self):
        self.spans.clear()
        self.sizes.clear()
        self.tables.clear()
        self.words.clear()

    def _wrap(self, span, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = self._observe

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span, start, end, parent, self.op)
            observe(span, args, result)
            return result

        return wrapper

    def _observe(self, span, args, result):
        if span.startswith("construct."):
            self.sizes["construct.residuals"] += result.n_states
        elif span == "automata.minimize":
            self.sizes["automata.minimize_merged"] += args[0].n_states - result.n_states
        elif span == "learning.fill":
            self.tables[id(args[0])] = args[0]
        elif span == "learning.mq":
            # distinct words per teacher, that is per target language
            self.words[args[0]].add(args[1])


def self_times(spans):
    """Per span name: (count, total self time, total inclusive time)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out[name]
        entry[0] += 1
        entry[1] += end - start - child[i]
        entry[2] += end - start
    return out


class CallCounter:
    """Counts Python function calls per gkat module while active.

    Generated dataclass methods (__init__, __eq__, __hash__, ...) carry the
    file name "<string>"; they are charged to the module of self's class.
    """

    def __init__(self, package_dir):
        self.counts = Counter()
        self._files = {
            os.path.join(package_dir, name + ".py"): name for name in COUNTED_MODULES
        }

    def _hook(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        module = self._files.get(code.co_filename)
        if module is None and code.co_filename == "<string>" and code.co_argcount:
            owner = frame.f_locals.get(code.co_varnames[0])
            name = type(owner).__module__
            if name.startswith("gkat."):
                module = name[5:]
                if module not in COUNTED_MODULES:
                    module = None
        if module is not None:
            self.counts[module] += 1

    def start(self):
        sys.setprofile(self._hook)

    def stop(self):
        sys.setprofile(None)
