"""End-to-end acceptance gate.

Each test exercises one published claim about the pipeline and prints a
single PASS/FAIL line (run with ``pytest -s`` to see them on success):

1. Worked-example reproduction: the balanced-parentheses training set yields
   a 3-state pushdown model bounded-equivalent to the ground truth.
2. Plain RPNI on the same raw data stays consistent with training but
   overgeneralizes to the non-well-matched word ")()" at size 5.
3. Benchmark trend over four grammars: the pushdown pipeline reaches mean
   F1 >= 0.95 and beats raw RPNI on every grammar.
4. Runtime trend: the pushdown pipeline is no slower than raw RPNI at every
   dataset size from 5k to 50k.
5. Five randomized property suites (>= 1000 cases each).
6. The observed stack-aware alphabet never exceeds its size bound.

The worked-example script's stdout and the public API are pinned as well.
"""

import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType

import vpalearn
from vpalearn import (
    Dfa,
    GenConfig,
    LabeledDataset,
    LabeledSample,
    VpaAlphabet,
    acceptor,
    bounded_equivalence,
    builtin,
    dfa_to_vdpa,
    edsm_learn,
    evaluate,
    generate_dataset,
    is_well_matched,
    papni_learn,
    preprocess_dataset,
    rpni_learn,
    runner,
    split_dataset,
    to_stack_aware,
)

from conftest import WORKED_SAMPLES, as_dataset, from_stack_aware, random_well_matched

PAREN = VpaAlphabet(frozenset(), frozenset({"("}), frozenset({")"}))


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_worked_example_reproduction():
    t0 = time.perf_counter()
    dataset = as_dataset(WORKED_SAMPLES)
    gt = builtin("balanced_parens")
    vdpa, _ = papni_learn(dataset, PAREN)
    counterexample = bounded_equivalence(vdpa, gt.vdpa, 12)
    elapsed = time.perf_counter() - t0
    ok = vdpa.size == 3 and counterexample is None and elapsed < 1.0
    _report(1, ok, f"size={vdpa.size}, counterexample={counterexample}, "
                   f"time={elapsed:.3f}s")


# scripts/worked_example.py's whole stdout; its sha256 is 6ce99ba9...7f88
WORKED_EXAMPLE_STDOUT = """\
preprocessing:
  kept: 6
  dropped_positive: 0
  dropped_negative: 5
  observed_pairs: )|(

raw RPNI model size: 5
raw RPNI accepts ')()': True

pushdown pipeline model size: 3
bounded-equivalent to ground truth (len <= 12): True
"""


def test_worked_example_script_output_is_pinned():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    script = root / "scripts" / "worked_example.py"
    proc = subprocess.run([sys.executable, "-W", "error", str(script)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == WORKED_EXAMPLE_STDOUT


# the whole public API: one run of a word (runner, and acceptor as its
# boolean form), no submodule
PUBLIC_API = {
    "AlphabetError", "BUILTIN_NAMES", "DatasetError", "Dfa", "EvalMetrics", "GenConfig",
    "GenerationError", "GroundTruth", "LabeledDataset", "LabeledSample",
    "NoWellMatchedSamplesError", "PapniConfig", "PreprocessReport", "Pta", "Reason",
    "TransformError", "Vdpa", "VpaAlphabet", "acceptor", "bounded_equivalence", "build_pta",
    "builtin", "dfa_to_vdpa", "edsm_learn", "evaluate", "generate_dataset", "is_well_matched",
    "papni_learn", "preprocess_dataset", "render_dot", "rpni_learn", "runner", "split_dataset",
    "to_stack_aware",
}


def test_public_api_is_pinned():
    assert set(vpalearn.__all__) == PUBLIC_API
    namespace: dict = {}
    exec("from vpalearn import *", namespace)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]


def test_criterion_2_rpni_failure_mode():
    dataset = as_dataset([p for p in WORKED_SAMPLES if p[0]])  # 10 non-empty words
    dfa = rpni_learn(dataset)
    consistent = all(acceptor(dfa)(s.word) == s.label for s in dataset)
    accepts_unmatched = acceptor(dfa)(tuple(")()"))
    ok = consistent and dfa.size == 5 and accepts_unmatched
    _report(2, ok, f"size={dfa.size}, consistent={consistent}, "
                   f"accepts ')()'={accepts_unmatched}")


# balanced sampling for the sparse languages (too few distinct accepted
# words exist in the uniform draw to cover both labels in both halves);
# uniform sampling where the uniform draw already covers both labels
TREND_SETUP = {
    "balanced_parens": "uniform",
    "anbn": "uniform",
    "arithmetic_expr": "balanced",
    "dyck2": "balanced",
}
TREND_SEEDS = (73, 74, 75, 76, 77)


def test_criterion_3_benchmark_trend():
    t0 = time.perf_counter()
    failures = []
    summary = []
    for grammar, mode in TREND_SETUP.items():
        gt = builtin(grammar)
        rpni_f1, papni_f1 = [], []
        for seed in TREND_SEEDS:
            cfg = GenConfig(total=10000, seed=seed, mode=mode)
            train, evl = split_dataset(generate_dataset(gt, cfg), seed=seed)
            rpni_f1.append(evaluate(rpni_learn(train), evl).f1)
            vdpa, _ = papni_learn(train, gt.alphabet)
            papni_f1.append(evaluate(vdpa, evl).f1)
        r, p = statistics.fmean(rpni_f1), statistics.fmean(papni_f1)
        summary.append(f"{grammar}: rpni={r:.3f} papni={p:.3f}")
        if not (p >= 0.95 and p > r):
            failures.append(grammar)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(3, ok, "; ".join(summary) + f"; time={elapsed:.1f}s")


def test_criterion_4_runtime_trend():
    gt = builtin("balanced_parens")
    results = []
    ok = True
    for total in (5000, 12500, 25000, 50000):
        dataset = generate_dataset(gt, GenConfig(total=total, seed=7))
        t0 = time.perf_counter()
        rpni_learn(dataset)
        rpni_t = time.perf_counter() - t0
        t0 = time.perf_counter()
        papni_learn(dataset, gt.alphabet)
        papni_t = time.perf_counter() - t0
        results.append(f"{total}: rpni={rpni_t:.2f}s papni={papni_t:.2f}s")
        ok = ok and papni_t <= rpni_t
    _report(4, ok, "; ".join(results))


XML = VpaAlphabet(frozenset({"text"}), frozenset({"<a>", "<b>"}),
                  frozenset({"</a>", "</b>"}))


def _random_word(rng, symbols, max_len):
    return tuple(rng.choice(symbols) for _ in range(rng.randrange(0, max_len + 1)))


def test_criterion_5_property_suites():
    t0 = time.perf_counter()
    failures = []

    # (a) accepted => well-matched, across every builtin ground truth
    rng = random.Random(500)
    cases = 0
    for name in ("balanced_parens", "arithmetic_expr", "anbn", "dyck1",
                 "dyck1_even", "dyck1_odd", "dyck2", "nested_xml_tags"):
        gt = builtin(name)
        symbols = sorted(gt.alphabet.symbols)
        for _ in range(150):
            word = _random_word(rng, symbols, 14)
            cases += 1
            if runner(gt.vdpa)(word).accepted and not is_well_matched(word, gt.alphabet):
                failures.append(f"(a) {name} accepted non-matched {word}")
    assert cases >= 1000

    # (b) round trip and injectivity of the stack-aware transform
    rng = random.Random(501)
    words = [random_well_matched(rng, XML, 20) for _ in range(1200)]
    images = {}
    for word in words:
        image = to_stack_aware(word, XML)
        if from_stack_aware(image) != word:
            failures.append(f"(b) round trip broke on {word}")
        if images.setdefault(image, word) != word:
            failures.append(f"(b) transform not injective at {image}")

    # (c) lifting a DFA over the extended alphabet preserves classification
    rng = random.Random(502)
    ext = sorted(XML.stack_aware_symbols())
    cases = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        transitions = {(q, sym): rng.randrange(n)
                       for q in range(n) for sym in ext if rng.random() < 0.8}
        dfa = Dfa(frozenset(range(n)), frozenset(ext), transitions, 0,
                  frozenset(q for q in range(n) if rng.random() < 0.5))
        lifted = dfa_to_vdpa(dfa, XML)
        for _ in range(30):
            word = random_well_matched(rng, XML, 14)
            cases += 1
            if runner(lifted)(word).accepted != acceptor(dfa)(to_stack_aware(word, XML)):
                failures.append(f"(c) lift disagreed on {word}")
    assert cases >= 1000

    # (d) both backends stay consistent with their training data
    rng = random.Random(503)
    cases = 0
    while cases < 1100:
        unique = {}
        for _ in range(rng.randrange(2, 20)):
            unique.setdefault(_random_word(rng, "ab", 6), rng.random() < 0.5)
        ds = as_dataset(sorted(unique.items()))
        for learn in (rpni_learn, edsm_learn):
            dfa = learn(ds)
            for word, label in unique.items():
                cases += 1
                if acceptor(dfa)(word) != label:
                    failures.append(f"(d) {learn.__name__} inconsistent on {word}")

    # (e) empty call/return alphabets reduce the pipeline to its backend
    rng = random.Random(504)
    plain = VpaAlphabet(frozenset({"a", "b"}), frozenset(), frozenset())
    cases = 0
    while cases < 1000:
        unique = {}
        for _ in range(rng.randrange(2, 15)):
            unique.setdefault(_random_word(rng, "ab", 6), rng.random() < 0.5)
        ds = as_dataset(sorted(unique.items()))
        vdpa, _ = papni_learn(ds, plain)
        dfa = rpni_learn(ds)
        probe = list(unique) + [_random_word(rng, "ab", 8) for _ in range(20)]
        for word in probe:
            cases += 1
            if runner(vdpa)(word).accepted != acceptor(dfa)(word):
                failures.append(f"(e) degenerate pipeline diverged on {word}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(5, ok, (failures[0] if failures else "all five suites clean")
            + f"; time={elapsed:.1f}s")


def test_criterion_6_alphabet_size_bound():
    violations = []
    # randomized datasets over alphabets of different shapes
    rng = random.Random(600)
    alphabets = [
        PAREN,
        VpaAlphabet(frozenset({"1", "+"}), frozenset({"("}), frozenset({")"})),
        XML,
        VpaAlphabet(frozenset({"x"}), frozenset({"(", "["}), frozenset({")", "]"})),
    ]
    for alpha in alphabets:
        bound = (len(alpha.internal) + len(alpha.call)
                 + len(alpha.ret) * len(alpha.call))
        symbols = sorted(alpha.symbols)
        for _ in range(50):
            unique = {}
            for _ in range(rng.randrange(1, 40)):
                unique.setdefault(_random_word(rng, symbols, 12), rng.random() < 0.5)
            kept, _ = preprocess_dataset(as_dataset(sorted(unique.items())), alpha)
            observed = {sym for s in kept for sym in s.word}
            if len(observed) > bound:
                violations.append(f"{sorted(alpha.symbols)}: {len(observed)} > {bound}")
    # and the full-size benchmark datasets from criterion 3
    for grammar, mode in TREND_SETUP.items():
        gt = builtin(grammar)
        alpha = gt.alphabet
        bound = (len(alpha.internal) + len(alpha.call)
                 + len(alpha.ret) * len(alpha.call))
        ds = generate_dataset(gt, GenConfig(total=10000, seed=TREND_SEEDS[0], mode=mode))
        kept, _ = preprocess_dataset(ds, alpha)
        observed = {sym for s in kept for sym in s.word}
        if len(observed) > bound:
            violations.append(f"{grammar}: {len(observed)} > {bound}")
    ok = not violations
    _report(6, ok, violations[0] if violations else "bound held on every dataset")
