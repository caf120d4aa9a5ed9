#!/usr/bin/env python3
"""The vpalearn benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload trend_grid [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from its
``src`` directory and nothing else. One process runs one workload as a
closed loop: one job at a time, the next starting when the last returns,
with no threads. Passes repeat with fresh data seeds until ``--seconds``
would be exceeded (at least one pass always runs).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced pass on the same data and reports the per-layer
metrics: stage times and job latency from its untraced passes, layer times
from the traced ones, and counters, F1 and identified share from the first
traced pass, so that these repeat exactly for a given seed. Its spans go to
``bench/out``.

Every output is checked (see ``workloads.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (jobs) and
``metrics``. Each pass also writes ``digest <workload> <data seed> <hash>``
to standard error, which ``record_digests.py`` turns into the expected
digests.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

if not (SRC / "vpalearn" / "__init__.py").is_file():
    raise SystemExit(f"{Path(__file__).name}: no vpalearn sources under {SRC}")
sys.path.insert(0, str(SRC))

from vpalearn import benchgen  # noqa: E402

from spans import Recorder, instrument, self_times  # noqa: E402
from workloads import (  # noqa: E402
    STAGES, WORKLOADS, Workload, check_job, pass_digest, run_job)

# A fixed pure-Python job, independent of vpalearn, timed between passes.
# Shared hosts drift in speed by up to 2x within a 30-second run, so wall_s
# is the median ratio of a pass's wall to the mean of the reference timings
# just before and after it, times REFERENCE_S: seconds at the speed at which
# the reference took REFERENCE_S (a shared 2-vCPU 2.0 GHz Xeon VM, Python
# 3.11.7). The unscaled median is printed beside it. Set-up time, mostly
# process start and file reads, did not track the reference and is reported
# unscaled.
REFERENCE_S = 0.0170
_REFERENCE_WORDS = [tuple(random.Random(i).choices("abcd", k=4 + i % 17))
                    for i in range(4000)]


def _reference_once() -> float:
    t0 = time.perf_counter()
    children: list[dict] = [{}]
    for word in _REFERENCE_WORDS:
        node = 0
        for sym in word:
            nxt = children[node].get(sym)
            if nxt is None:
                nxt = len(children)
                children[node][sym] = nxt
                children.append({})
            node = nxt
    for word in _REFERENCE_WORDS:
        node = 0
        for sym in word:
            node = children[node][sym]
    return time.perf_counter() - t0


def reference() -> float:
    """Best of three timings of building a prefix tree of fixed words and
    walking it again, without the collector, whose work depends on what
    the last pass left behind."""
    gc.collect()
    gc.disable()
    try:
        return min(_reference_once() for _ in range(3))
    finally:
        gc.enable()


SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import vpalearn; "
               "[vpalearn.builtin(n) for n in vpalearn.BUILTIN_NAMES]")
SETUP_REPEATS = 7

# Every workload reports every end-to-end metric, so only these are: each
# is material on all four. Stage times, job latency and model quality are
# material on some workloads only, and are reported by the traced run.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# stage totals of the untraced passes of a traced run
STAGE_METRICS = ("generate_s", "learn_raw_s", "learn_vdpa_s", "eval_s", "verify_s")

# per-layer metric -> span whose per-pass total it reports
LAYER_SPANS = {
    "benchgen.generate_s": "benchgen.generate_dataset",
    "benchgen.split_s": "benchgen.split_dataset",
    "benchgen.evaluate_s": "benchgen.evaluate",
    "preprocess.preprocess_s": "preprocess.preprocess_dataset",
    "rpni.build_pta_s": "rpni.build_pta",
    "papni.lift_s": "papni.dfa_to_vdpa",
    "automata.equiv_s": "automata.bounded_equivalence",
    "formats.dump_dataset_s": "formats.dump_dataset",
    "formats.parse_dataset_s": "formats.parse_dataset",
    "formats.dump_automaton_s": "formats.dump_automaton",
}
# per-layer metric -> spans whose self time it reports
LAYER_SELF = {
    "rpni.merge_s": ("rpni.rpni_learn", "rpni.edsm_learn"),
    "papni.learn_s": ("papni.papni_learn",),
}
# per-layer counter -> key in the first traced pass's counts
LAYER_COUNTS = {
    "benchgen.samples_generated": "samples_generated",
    "benchgen.evaluate_words": "evaluate_words",
    "preprocess.kept": "preprocess.kept",
    "rpni.pta_nodes": "rpni.pta_nodes",
    "rpni.trial_merges": "rpni.trial_merges",
    "rpni.rollbacks": "rpni.rollbacks",
    "rpni.commits": "rpni.commits",
    "rpni.dfa_states": "dfa_states",
    "papni.vdpa_states": "vdpa_states",
    "automata.classify_calls": "automata.classify_calls",
    "formats.dataset_bytes": "dataset_bytes",
}
PER_LAYER = {
    **{name: "s" for name in STAGE_METRICS},
    "job_p50_ms": "ms", "job_p95_ms": "ms",
    "f1_raw": "ratio", "f1_vdpa": "ratio", "identified_share": "ratio",
    **{name: "s" for name in LAYER_SPANS}, **{name: "s" for name in LAYER_SELF},
    **{name: "count" for name in LAYER_COUNTS},
    "preprocess.kept_ratio": "ratio", "rpni.merge_yield": "ratio",
    "rpni.alloc_peak_mb": "MB", "trace.overhead_s": "s", "trace.span_coverage": "ratio",
}


@dataclass
class PassResult:
    data_seed: int
    wall: float                  # sum of job walls, checks excluded
    totals: dict                 # span name -> seconds in this pass
    counts: dict                 # counter -> value in this pass
    job_walls: list[float] = field(default_factory=list)
    f1_raw: list[float] = field(default_factory=list)
    f1_vdpa: list[float] = field(default_factory=list)
    identified: list[bool] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    reference: float = 0.0       # mean reference() seconds before and after


def run_pass(wl: Workload, gts: dict, seed: int, index: int,
             rec: Recorder, expected: dict) -> PassResult:
    """Pass ``index`` of a run with ``seed``, outputs checked."""
    gc.collect()
    rec.new_pass()
    specs = wl.jobs(seed, index)
    data_seed = specs[0][1]
    jobs, failed = [], 0
    for j, (cell, seed) in enumerate(specs):
        rec.job = (index, j)
        try:
            job = run_job(wl, cell, gts[cell[0]], seed, rec.stage)
        except Exception:
            print(f"{wl.name} seed {seed} {cell[0]}: job raised", file=sys.stderr)
            traceback.print_exc()
            failed += 1
            continue
        problems = check_job(job)
        for problem in problems:
            print(f"{wl.name} seed {seed} {cell[0]}: {problem}", file=sys.stderr)
        failed += bool(problems)
        jobs.append(job)
    result = PassResult(data_seed, sum(j.wall for j in jobs), dict(rec.totals),
                        dict(rec.counts), attempted=len(specs))
    for job in jobs:
        result.job_walls.append(job.wall)
        result.f1_raw.append(job.f1_raw)
        result.f1_vdpa.extend(job.f1_vdpa)
        result.identified.extend(job.identified)
        for key, value in job.counts.items():
            result.counts[key] = result.counts.get(key, 0) + value
    result.digest = pass_digest(jobs)
    want = expected.get(str(data_seed))
    if want is not None and want != result.digest:
        print(f"{wl.name} seed {data_seed}: models hash to {result.digest}, "
              f"expected {want}", file=sys.stderr)
        failed = len(specs)
    result.failed = failed
    return result


def measure_setup() -> list[float]:
    """Interpreter start, ``import vpalearn`` and every ``builtin()``, each
    in a fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)], check=True)
        times.append(time.perf_counter() - t0)
    return times


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        expected: dict) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    setup = [] if trace else measure_setup()
    gts = {cell[0]: benchgen.builtin(cell[0]) for cell in wl.cells}
    plain, traced = Recorder(trace=False), Recorder(trace=True)
    passes: list[PassResult] = []
    traced_passes: list[PassResult] = []
    start = time.perf_counter()
    durations: list[float] = []
    refs: list[float] = []
    while True:
        t0 = time.perf_counter()
        index = len(passes)
        refs.append(reference())
        passes.append(run_pass(wl, gts, seed, index, plain, expected))
        done = passes[-1]
        print(f"digest {wl.name} {done.data_seed} {done.digest}", file=sys.stderr)
        print(f"pass {wl.name} {done.data_seed} wall {done.wall:.4f}", file=sys.stderr)
        if trace:
            with instrument(traced):
                traced_passes.append(run_pass(wl, gts, seed, index, traced, expected))
        durations.append(time.perf_counter() - t0)
        estimate = statistics.median(durations)
        # the traced run keeps one more pass in hand for the allocation probe
        reserve = estimate if trace else 0.0
        if time.perf_counter() - start + estimate + reserve > seconds:
            break
    refs.append(reference())
    for p, before, after in zip(passes, refs, refs[1:]):
        p.reference = (before + after) / 2
    if not any(p.job_walls for p in passes):
        raise SystemExit(f"{wl.name}: every job failed, nothing was measured")
    checked = passes + traced_passes
    if trace:
        # prefix-tree builds under tracemalloc, timed apart from the passes
        probe = Recorder(trace=True)
        with instrument(probe, alloc=True):
            checked.append(run_pass(wl, gts, seed, 0, probe, expected))
        for p, untraced in zip(checked[len(passes):], passes + passes[:1]):
            if p.digest != untraced.digest:
                print(f"{wl.name} seed {p.data_seed}: traced models differ", file=sys.stderr)
                p.failed = p.attempted
        metrics = layer_metrics(passes, traced_passes, traced, probe.alloc_peak)
        write_spans(wl, seed, traced.spans)
    else:
        metrics = end_to_end_metrics(passes, setup)
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {"passes": len(passes), "jobs": sum(len(p.job_walls) for p in passes),
                    "setup": len(setup), "raw_wall_s": statistics.median(p.wall for p in passes)},
    }


def _stage_total(p: PassResult, metric: str) -> float:
    return sum(v for k, v in p.totals.items() if STAGES.get(k) == metric)


def end_to_end_metrics(passes: list[PassResult], setup: list[float]) -> dict:
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": REFERENCE_S * statistics.median(p.wall / p.reference for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_metrics(passes: list[PassResult], traced_passes: list[PassResult],
                  rec: Recorder, alloc_peak: int) -> dict:
    """Stage times from the untraced passes, layer times from the traced
    ones, quality and counters from the first traced pass."""
    med = statistics.median
    own = self_times(rec.spans)
    self_by_pass = [dict() for _ in traced_passes]
    for span, t in zip(rec.spans, own):
        bucket = self_by_pass[span[4][0]]
        bucket[span[0]] = bucket.get(span[0], 0.0) + t
    top_level = sum(end - start for _, start, end, parent, _ in rec.spans if parent is None)
    first = traced_passes[0]
    counts = first.counts
    walls = [w for p in passes for w in p.job_walls]
    values = {
        **{m: med(_stage_total(p, m) for p in passes) for m in STAGE_METRICS},
        "job_p50_ms": med(walls) * 1000,
        "job_p95_ms": (statistics.quantiles(walls, n=20, method="inclusive")[18]
                       if len(walls) > 1 else walls[0]) * 1000,
        "f1_raw": statistics.fmean(first.f1_raw),
        "f1_vdpa": statistics.fmean(first.f1_vdpa),
        "identified_share": statistics.fmean(first.identified),
        **{m: med(p.totals.get(span, 0.0) for p in traced_passes)
           for m, span in LAYER_SPANS.items()},
        **{m: med(sum(b.get(s, 0.0) for s in names) for b in self_by_pass)
           for m, names in LAYER_SELF.items()},
        **{m: counts.get(key, 0) for m, key in LAYER_COUNTS.items()},
        "preprocess.kept_ratio": counts["preprocess.kept"] / counts["preprocess.input"],
        "rpni.merge_yield": counts["rpni.commits"] / counts["rpni.trial_merges"],
        "rpni.alloc_peak_mb": alloc_peak / 2**20,
        "trace.overhead_s": med(t.wall - p.wall for t, p in zip(traced_passes, passes)),
        "trace.span_coverage": top_level / sum(p.wall for p in traced_passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def write_spans(wl: Workload, seed: int, spans: list[list]) -> None:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"trace-{wl.name}-{seed}.jsonl", "w") as fh:
        for name, start, end, parent, (index, cell) in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "job": f"{index}.{cell}"}) + "\n")


def report(result: dict) -> str:
    """Human-readable metric table, then the JSON result line."""
    lines = [f"{name:<28} {m['value']:>16.6f} {m['unit']}"
             for name, m in result["metrics"].items()]
    s = result["samples"]
    lines.append(f"# {s['passes']} passes, {s['jobs']} jobs, {s['setup']} set-ups; "
                 f"failed {result['failed']} of {result['attempted']} jobs; "
                 f"unscaled median pass wall {s['raw_wall_s']:.4f} s")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    lines.append(json.dumps(line))
    return "\n".join(lines)


def load_expected(name: str) -> dict:
    with open(BENCH / "digests.json") as fh:
        return json.load(fh).get(name, {})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    result = run(wl, seed, args.seconds, bool(args.trace), load_expected(wl.name))
    print(report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
