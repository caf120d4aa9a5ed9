"""The benchmark's workloads and the job each of them repeats.

Every job follows the command-line path a user takes: ``generate --split``,
save and reload the training file, ``learn --mode dfa``, ``learn``, ``eval``
for both models, a bounded equivalence check of each pushdown model against
the ground truth, and saving every model. A pass runs every cell (grammar,
generation mode, word lengths) of a workload ``rounds`` times, each time on
fresh data; a run repeats passes until its time is up.

Outputs are checked outside the timed region: each model must classify its
own training words correctly (by the small runners below, not by the
library's own execution code), the dataset file must round-trip, and the
saved models of a pass must hash to the digest recorded for its data seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager

from vpalearn import automata, benchgen, formats, papni, rpni
from vpalearn.automata import Dfa, Vdpa

# Round r of pass p of a run with seed s draws its data with seed
# s + SEED_STRIDE * (p * rounds + r): the first job reproduces the
# workload's published seed, and runs with nearby seeds share no data.
SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    # (grammar, generation mode, len_min, len_max) per job of a pass
    cells: tuple[tuple[str, str, int, int], ...]
    total: int
    raw: str                    # raw learner: "rpni" or "edsm"
    pipeline: tuple[str, ...]   # papni_learn backends, one model each
    verify_len: int
    eval_all: bool = False      # evaluate on every generated word, not the eval half
    rounds: int = 1             # times a pass runs its cells, each on fresh data

    def jobs(self, seed: int, index: int) -> list[tuple[tuple[str, str, int, int], int]]:
        """(cell, data seed) of every job of pass ``index`` of a run."""
        first = seed + SEED_STRIDE * index * self.rounds
        return [(cell, first + SEED_STRIDE * r) for r in range(self.rounds)
                for cell in self.cells]


# Sizes are set so that a 30 s run holds many passes (medians of few
# passes do not repeat on a shared machine; at 50k words the scaling cell
# fits only four) and no job fails at any seed:
# the grid keeps criterion 3's two balanced-mode grammars (its uniform cells
# need 10k words for two distinct positives, and still miss on ~3% of seeds),
# identify_small stays at 8 samples (10 raise GenerationError on ~0.03% of
# seeds), and verification lengths stay short, because full enumeration of
# an identified model costs 100x an early miss (at length 8 the walls of
# 40-job identify_small passes varied 6x).
WORKLOADS = {w.name: w for w in (
    Workload("trend_grid", 73,
             (("arithmetic_expr", "balanced", 4, 50), ("dyck2", "balanced", 4, 50)),
             total=2500, raw="rpni", pipeline=("rpni",), verify_len=6),
    # raw RPNI cannot generalise (^n )^n: on the held-out half its F1 is 0
    Workload("scale_25k", 7, (("balanced_parens", "uniform", 4, 50),),
             total=25000, raw="rpni", pipeline=("rpni",), verify_len=12, eval_all=True),
    # one EDSM run or one tiny job costs 0.1-1 s or 1-300 ms depending on its
    # data, so a pass sums several and per-pass walls have one mode
    Workload("edsm_dyck2", 73, (("dyck2", "balanced", 4, 50),),
             total=200, raw="edsm", pipeline=("edsm",), verify_len=6, rounds=4),
    Workload("identify_small", 1,
             tuple((g, "balanced", 2, 12) for g in benchgen.BUILTIN_NAMES),
             total=8, raw="rpni", pipeline=("rpni", "edsm"), verify_len=6, rounds=5),
)}

# The benchmark's spans that count towards a stage metric, named after the
# library call they time; the formats spans count only towards the pass wall.
STAGES = {
    "benchgen.generate_dataset": "generate_s",
    "benchgen.split_dataset": "generate_s",
    "rpni.rpni_learn": "learn_raw_s",
    "rpni.edsm_learn": "learn_raw_s",
    "papni.papni_learn": "learn_vdpa_s",
    "benchgen.evaluate": "eval_s",
    "automata.bounded_equivalence": "verify_s",
}

Stage = Callable[[str], ContextManager[None]]


@dataclass
class JobResult:
    wall: float
    f1_raw: float
    f1_vdpa: list[float]
    identified: list[bool]
    dumps: list[str]
    # kept for the output checks, dropped once they ran
    train: object = None
    reloaded: object = None
    raw_model: object = None
    vdpa_models: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def run_job(wl: Workload, cell: tuple[str, str, int, int], gt: benchgen.GroundTruth,
            seed: int, stage: Stage) -> JobResult:
    """One grammar cell at one data seed; ``stage(name)`` times each call."""
    grammar, mode, len_min, len_max = cell
    cfg = benchgen.GenConfig(total=wl.total, len_min=len_min, len_max=len_max,
                             seed=seed, mode=mode)
    t0 = time.perf_counter()
    with stage("benchgen.generate_dataset"):
        dataset = benchgen.generate_dataset(gt, cfg)
    with stage("benchgen.split_dataset"):
        train, evl = benchgen.split_dataset(dataset, seed=seed)
    with stage("formats.dump_dataset"):
        text = formats.dump_dataset(train)
    with stage("formats.parse_dataset"):
        reloaded = formats.parse_dataset(text)
    raw_name = f"rpni.{wl.raw}_learn"
    with stage(raw_name):
        raw_model = getattr(rpni, f"{wl.raw}_learn")(reloaded)
    vdpas = []
    for backend in wl.pipeline:
        with stage("papni.papni_learn"):
            vdpa, report = papni.papni_learn(reloaded, gt.alphabet,
                                             papni.PapniConfig(backend=backend))
        vdpas.append(vdpa)
    if wl.eval_all:
        evl = dataset
    with stage("benchgen.evaluate"):
        f1_raw = benchgen.evaluate(raw_model, evl).f1
        f1_vdpa = [benchgen.evaluate(v, evl).f1 for v in vdpas]
    identified = []
    for vdpa in vdpas:
        with stage("automata.bounded_equivalence"):
            witness = automata.bounded_equivalence(vdpa, gt.vdpa, wl.verify_len)
        identified.append(witness is None)
    dumps = []
    for model in [raw_model] + vdpas:
        with stage("formats.dump_automaton"):
            dumps.append(formats.dump_automaton(model))
    wall = time.perf_counter() - t0
    counts = {
        "samples_generated": len(dataset),
        "evaluate_words": len(evl) * (1 + len(vdpas)),
        "dataset_bytes": len(text.encode()),
        "dfa_states": raw_model.size,
        "vdpa_states": sum(v.size for v in vdpas),
    }
    return JobResult(wall, f1_raw, f1_vdpa, identified, dumps, train, reloaded,
                     raw_model, vdpas, counts)


def dfa_run(dfa: Dfa, word) -> bool:
    state = dfa.initial
    for sym in word:
        state = dfa.transitions.get((state, sym))
        if state is None:
            return False
    return state in dfa.accepting


def vdpa_run(vdpa: Vdpa, word) -> bool:
    alpha, state, stack = vdpa.alphabet, vdpa.initial, []
    for sym in word:
        if sym in alpha.call:
            state = vdpa.call_trans.get((state, sym))
            stack.append(sym)
        elif sym in alpha.ret:
            if not stack:
                return False
            state = vdpa.return_trans.get((state, sym, stack.pop()))
        else:
            state = vdpa.internal_trans.get((state, sym))
        if state is None:
            return False
    return not stack and state in vdpa.accepting


def check_job(job: JobResult) -> list[str]:
    """Problems with a job's outputs; empty when they are correct."""
    problems = []
    if job.reloaded.samples != job.train.samples:
        problems.append("training file does not round-trip")
    for sample in job.train:
        if dfa_run(job.raw_model, sample.word) != sample.label:
            problems.append(f"raw model misclassifies training word {sample.word}")
            break
    for vdpa in job.vdpa_models:
        for sample in job.train:
            if vdpa_run(vdpa, sample.word) != sample.label:
                problems.append(f"pipeline model misclassifies training word {sample.word}")
                break
    job.train = job.reloaded = job.raw_model = None
    job.vdpa_models = []
    return problems


def pass_digest(jobs: list[JobResult]) -> str:
    """Hash of every saved model of a pass, in job order."""
    h = hashlib.sha256()
    for job in jobs:
        for text in job.dumps:
            h.update(text.encode())
            h.update(b"\0")
    return h.hexdigest()[:16]
