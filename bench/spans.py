"""Stage timing, in-memory spans and call counters for the benchmark.

The untraced run only sums the duration of each stage of a pass. The traced
run also keeps every span (name, start, end, parent, job) in memory, and
gets child spans and counters by rebinding, for its own duration, the
module-level names vpalearn looks up at call time.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import Counter
from typing import Iterator

from vpalearn import automata, benchgen, papni, rpni


class Recorder:
    """Per-stage seconds of the current pass, plus spans when tracing."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.totals: Counter = Counter()
        self.counts: Counter = Counter()
        # [name, start, end, parent index or None, (pass, cell)]
        self.spans: list[list] = []
        self.job: tuple[int, int] = (0, 0)
        self.alloc_peak = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        if not self.trace:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.totals[name] += time.perf_counter() - t0
            return
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.job]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            self.totals[name] += span[2] - span[1]

    def new_pass(self) -> None:
        # cleared in place: the wrappers of `instrument` hold `counts`
        self.totals.clear()
        self.counts.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


@contextlib.contextmanager
def instrument(rec: Recorder, alloc: bool = False) -> Iterator[None]:
    """Rebind the library's call-time lookups to timed and counted wrappers.

    With ``alloc`` the prefix-tree builds run under tracemalloc and
    ``rec.alloc_peak`` keeps the largest traced peak in bytes.
    """
    counts = rec.counts
    build_pta = rpni.build_pta
    preprocess_dataset = papni.preprocess_dataset
    dfa_to_vdpa = papni.dfa_to_vdpa
    classify = automata.classify
    trial_merge = rpni.MergeState.trial_merge
    rollback = rpni.MergeState.rollback
    commit = rpni.MergeState.commit

    def traced_build_pta(dataset):
        with rec.stage("rpni.build_pta"):
            if alloc:
                tracemalloc.start()
            try:
                pta = build_pta(dataset)
            finally:
                if alloc:
                    rec.alloc_peak = max(rec.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
        counts["rpni.pta_nodes"] += pta.size
        return pta

    def traced_preprocess(dataset, alphabet):
        with rec.stage("preprocess.preprocess_dataset"):
            kept, report = preprocess_dataset(dataset, alphabet)
        counts["preprocess.input"] += len(dataset)
        counts["preprocess.kept"] += report.kept
        return kept, report

    def traced_lift(dfa, alphabet):
        with rec.stage("papni.dfa_to_vdpa"):
            return dfa_to_vdpa(dfa, alphabet)

    def counted_classify(model, word):
        counts["automata.classify_calls"] += 1
        return classify(model, word)

    def counted_trial(self, a, b):
        counts["rpni.trial_merges"] += 1
        return trial_merge(self, a, b)

    def counted_rollback(self):
        counts["rpni.rollbacks"] += 1
        return rollback(self)

    def counted_commit(self):
        counts["rpni.commits"] += 1
        return commit(self)

    bindings: list[tuple[object, str, object, object]] = [
        (rpni, "build_pta", build_pta, traced_build_pta),
        (papni, "preprocess_dataset", preprocess_dataset, traced_preprocess),
        (papni, "dfa_to_vdpa", dfa_to_vdpa, traced_lift),
        (automata, "classify", classify, counted_classify),
        (benchgen, "classify", benchgen.classify, counted_classify),
        (rpni.MergeState, "trial_merge", trial_merge, counted_trial),
        (rpni.MergeState, "rollback", rollback, counted_rollback),
        (rpni.MergeState, "commit", commit, counted_commit),
    ]
    try:
        for owner, name, _, wrapper in bindings:
            setattr(owner, name, wrapper)
        yield
    finally:
        for owner, name, original, _ in bindings:
            setattr(owner, name, original)
