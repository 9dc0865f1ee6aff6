"""In-memory span tracing by swapping public functions for timing wrappers.

The package's modules call each other through module attributes
(`evolve` calls `step`, `reconstruct` calls `spectral.evaluate`, the sweep
calls `sp.steady_profile`), so replacing those attributes nests the spans
without any edit to the program. Spans are kept in memory and written once,
when the run ends. Their clock is the process's CPU time, like the rest of
the benchmark's timings (see README, "Clock").
"""

from __future__ import annotations

import functools
import json
import warnings
from collections import Counter
from time import process_time as clock

WARNING_KINDS = (("retrying with halved dt", "dt_halving"),
                 ("stencil widened", "stencil_widening"))


def warning_kind(w: warnings.WarningMessage) -> str:
    text = str(w.message)
    for needle, kind in WARNING_KINDS:
        if needle in text:
            return kind
    return w.category.__name__


class Tracer:
    """Spans are [name, start, end, parent index]; phases group them.

    A phase is one round of a workload or its set-up: spans of one phase
    share that identifier. Warnings raised inside wrappers made with
    `count_warnings` are counted by kind and then re-issued, so the
    program's own warning filters still decide whether they are shown.
    """

    def __init__(self) -> None:
        self.phases: dict[str, list] = {}
        self.phase_warnings: dict[str, Counter] = {}
        self.spans: list = []
        self.warnings: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def phase(self, label: str) -> None:
        self.spans = self.phases.setdefault(label, [])
        self.warnings = self.phase_warnings.setdefault(label, Counter())
        self._stack = []

    def wrap(self, module, attr: str, name=None, count_warnings: bool = False) -> None:
        """Replace module.attr by a timing wrapper; `name(args, kwargs)` may
        compute the span name from the call."""
        fn = getattr(module, attr)
        fixed = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            span = [name(args, kwargs) if name else fixed, clock(), None,
                    tracer._stack[-1] if tracer._stack else -1]
            spans.append(span)
            tracer._stack.append(idx)
            caught: list = []
            try:
                if not count_warnings:
                    return fn(*args, **kwargs)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                tracer._stack.pop()
                for w in caught:
                    tracer.warnings[warning_kind(w)] += 1
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

        setattr(module, attr, traced)
        self._saved.append((module, attr, fn))

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "phases": self.phases,
                       "warnings": self.phase_warnings}, fh)


class SpanStats:
    """Calls, total and self time per span name over a set of phases."""

    def __init__(self, phases) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.nested: Counter = Counter()  # (ancestor, name) -> calls
        for spans in phases:
            covered = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for i, (name, start, end, parent) in enumerate(spans):
                self.calls[name] += 1
                self.total[name] += end - start
                self.self_time[name] += end - start - covered[i]
                seen = set()
                while parent >= 0:
                    anc = spans[parent][0]
                    if anc not in seen:
                        self.nested[(anc, name)] += 1
                        seen.add(anc)
                    parent = spans[parent][3]

    def mean_self(self, *names) -> float:
        calls = sum(self.calls[n] for n in names)
        return sum(self.self_time[n] for n in names) / calls if calls else 0.0

    def mean_total(self, name) -> float:
        return self.total[name] / self.calls[name] if self.calls[name] else 0.0

