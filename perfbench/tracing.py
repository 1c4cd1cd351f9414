"""Traced in-process run of one ``loiqif`` command.

The tracer times each layer from outside the program: while a command's
``main(argv)`` runs, every public function named in ``LAYERS`` is replaced,
in each ``loiqif`` module that refers to it, by a wrapper that records a
span ``[name, start_ns, end_ns, parent]``.  A function calls its
collaborators through its module's globals, so the wrappers see every call
made across a module boundary and nested calls get their caller's span as
parent.  Spans stay in memory until the run ends.

A layer's time is the sum of its outermost spans (a span inside another
span of the same name is not counted twice); its self time subtracts the
time its child spans cover.  ``cli.self.s`` is the self time of the root
span: argument parsing, file reads and output formatting.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import time
from collections import Counter
from importlib import import_module

# (module, public function, span name), in the order a command reaches them.
LAYERS = (
    ("lang", "parse", "lang.parse"),
    ("lang", "loi", "lang.loi"),
    ("lang", "enumerate_domain", "lang.enumerate"),
    ("lang", "initial_store", "lang.evaluate"),
    ("lang", "eval_program", "lang.evaluate"),
    ("lang", "run_counting_loop", "lang.evaluate"),
    ("partition", "kernel", "partition.kernel"),
    ("partition", "join", "partition.join"),
    ("partition", "meet", "partition.meet"),
    ("partition", "leq", "partition.leq"),
    ("measures", "distribution_from_json", "measures.dist"),
    ("measures", "measure_report", "measures.report"),
    ("measures", "entropy", "measures.entropy"),
    ("measures", "conditional_entropy", "measures.entropy"),
    ("measures", "guess_prob", "measures.guess_prob"),
    ("measures", "expected_guesses", "measures.expected_guesses"),
    ("measures", "me_leakage", "measures.me"),
    ("measures", "me_prime", "measures.me"),
    ("measures", "ge_leakage", "measures.ge"),
    ("measures", "ge_prime", "measures.ge"),
    ("measures", "channel_capacity", "measures.capacity"),
    ("ordering", "compare", "ordering.compare"),
    ("ordering", "verify_witness", "ordering.verify_witness"),
    ("ordering", "equivalence_audit", "ordering.audit"),
    ("analysis", "loop_analyze", "analysis.loop_analyze"),
)
# Every way of building a Distribution counts as distribution construction.
DISTRIBUTION_BUILDERS = ("__init__", "uniform", "uniform_on", "from_weights", "random")
MODULES = ("cli", "lang", "partition", "measures", "ordering", "analysis")
MEASURE_SPANS = ("measures.entropy", "measures.guess_prob", "measures.expected_guesses",
                 "measures.me", "measures.ge", "measures.capacity")

TIME_METRICS = {
    "lang.parse.s": "lang.parse",
    "lang.enumerate.s": "lang.enumerate",
    "lang.evaluate.s": "lang.evaluate",
    "lang.loi.s": "lang.loi",
    "partition.kernel.s": "partition.kernel",
    "partition.join.s": "partition.join",
    "partition.meet.s": "partition.meet",
    "partition.leq.s": "partition.leq",
    "measures.dist.s": "measures.dist",
    "measures.entropy.s": "measures.entropy",
    "measures.guess_prob.s": "measures.guess_prob",
    "measures.expected_guesses.s": "measures.expected_guesses",
    "measures.me.s": "measures.me",
    "measures.ge.s": "measures.ge",
    "ordering.compare.s": "ordering.compare",
    "ordering.verify_witness.s": "ordering.verify_witness",
    "ordering.audit.s": "ordering.audit",
    "analysis.loop_analyze.s": "analysis.loop_analyze",
    "cli.main.s": "cli.main",
}
# Each counter, with the span whose return values it is read from.
COUNT_METRICS = {
    "lang.atoms": "lang.enumerate",
    "lang.terminated": "lang.evaluate",
    "lang.faulted": "lang.evaluate",
    "lang.nonterm": "lang.evaluate",
    "partition.blocks": "partition.kernel",
    "measures.calls": None,
    "ordering.audit.samples": "ordering.audit",
    "ordering.audit.violations": "ordering.audit",
    "analysis.loop.iterations": "analysis.loop_analyze",
    "analysis.loop.collision_blocks": "analysis.loop_analyze",
}

_KIND_COUNTER = {"terminated": "lang.terminated", "runtime-error": "lang.faulted",
                 "non-termination": "lang.nonterm"}


def _result_counts(span: str, result) -> dict[str, int]:
    """Counters read off a layer's return value."""
    if span == "lang.enumerate":
        return {"lang.atoms": result.size}
    # initial_store returns the store, eval_program an Observable and
    # run_counting_loop an (Observable, iterations) pair.
    if span == "lang.evaluate" and not isinstance(result, dict):
        obs = result[0] if isinstance(result, tuple) else result
        return {_KIND_COUNTER[obs.kind]: 1}
    if span == "partition.kernel":
        return {"partition.blocks": len(result.blocks)}
    if span == "ordering.audit":
        return {"ordering.audit.samples": result.samples,
                "ordering.audit.violations": len(result.violations)}
    if span == "analysis.loop_analyze":
        return {"analysis.loop.iterations": result.iterations_analyzed,
                "analysis.loop.collision_blocks": len(result.collision.blocks)}
    if span in MEASURE_SPANS:
        return {"measures.calls": 1}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, outermost]
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._open: Counter = Counter()  # span names currently on the stack

    def wrap(self, name: str, fn):
        spans, stack, opened, counts = self.spans, self._stack, self._open, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = not opened[name]
            record = [name, 0, 0, stack[-1], outermost]
            stack.append(len(spans))
            spans.append(record)
            opened[name] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                opened[name] -= 1
                stack.pop()
            if outermost:
                counts.update(_result_counts(name, result))
            return result

        return traced

    def ran(self, name: str) -> bool:
        return any(span[0] == name for span in self.spans)

    @contextlib.contextmanager
    def installed(self):
        """Route every call of a ``LAYERS`` function through a span.  A
        function the package no longer has is skipped: its layer reads 0."""
        modules = [import_module(f"loiqif.{m}") for m in MODULES]
        wrappers = {}
        for module, attr, name in LAYERS:
            fn = getattr(import_module(f"loiqif.{module}"), attr, None)
            if fn is not None:
                wrappers[id(fn)] = self.wrap(name, fn)
        undo = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        dist = import_module("loiqif.measures").Distribution
        for attr in DISTRIBUTION_BUILDERS:
            raw = dist.__dict__.get(attr)
            if raw is None:
                continue
            undo.append((dist, attr, raw))
            if isinstance(raw, classmethod):
                setattr(dist, attr, classmethod(self.wrap("measures.dist", raw.__func__)))
            else:
                setattr(dist, attr, self.wrap("measures.dist", raw))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def times(self) -> tuple[Counter, Counter]:
        """(inclusive, self) nanoseconds per span name."""
        inclusive, own = Counter(), Counter()
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _, outermost) in enumerate(self.spans):
            own[name] += end - start - covered[i]
            if outermost:
                inclusive[name] += end - start
        return inclusive, own


def run_main(argv: list[str], cwd) -> tuple[int, str, Tracer]:
    """``loiqif.cli.main(argv)`` in this process, traced, from ``cwd``,
    with stdout captured.  Returns (exit status, stdout, tracer)."""
    cli = import_module("loiqif.cli")
    tracer = Tracer()
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with tracer.installed(), contextlib.redirect_stdout(out):
            status = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        os.chdir(here)
    return status, out.getvalue(), tracer


def layer_metrics(tracer: Tracer, stdout: str) -> dict[str, float]:
    inclusive, own = tracer.times()
    metrics = {m: inclusive[span] / 1e9 for m, span in TIME_METRICS.items()}
    metrics["cli.self.s"] = own["cli.main"] / 1e9
    metrics["cli.output_bytes"] = len(stdout.encode())
    metrics.update({c: tracer.counts[c] for c in COUNT_METRICS})
    return metrics


def module_ranking(tracer: Tracer) -> list[tuple[str, float]]:
    """Modules by the self time of their spans, largest first."""
    _, own = tracer.times()
    by_module = Counter()
    for name, ns in own.items():
        by_module[name.split(".")[0]] += ns / 1e9
    return by_module.most_common()
