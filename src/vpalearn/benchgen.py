"""Ground-truth grammars, seeded dataset generation, and evaluation.

Built-ins cover the usual visibly-pushdown benchmark families: X^nY^n,
Dyck languages over one and two bracket pairs, parity-constrained Dyck
variants, nested tags, and a small arithmetic-expression language.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Literal, Optional

# classify is unused here but stays importable: bench/spans.py rebinds benchgen.classify
from .automata import Automaton, Dfa, Vdpa, VpaAlphabet, acceptor, classify, edges  # noqa: F401
from .papni import dfa_to_vdpa
from .preprocess import LabeledDataset, LabeledSample, Word


class GenerationError(RuntimeError):
    """Balanced-mode sampling exhausted its retry budget."""


@dataclass(frozen=True)
class GroundTruth:
    name: str
    vdpa: Vdpa

    def __post_init__(self) -> None:
        if not self.alphabet.symbols:
            raise ValueError("ground-truth alphabet has no symbols to draw words from")

    @property
    def alphabet(self) -> VpaAlphabet:
        return self.vdpa.alphabet


@dataclass(frozen=True)
class GenConfig:
    total: int = 10000
    len_min: int = 4
    len_max: int = 50
    seed: int = 0
    mode: Literal["uniform", "balanced"] = "uniform"

    def __post_init__(self) -> None:
        if not (0 < self.len_min <= self.len_max):
            raise ValueError("need 0 < len_min <= len_max")
        if self.total < 2:
            raise ValueError("need total >= 2")
        if self.mode not in ("uniform", "balanced"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class EvalMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    # ratios with a zero denominator are reported as 0 and flagged here
    undefined: tuple[str, ...] = ()

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def _simple_vdpa(internal, call, ret, transitions, initial, accepting) -> Vdpa:
    """The lift of a DFA over the stack-aware alphabet: transitions are
    (src, sym, dst), a return written as its ``ret|call`` pair. The states
    are the initial state and those the transitions name."""
    alphabet = VpaAlphabet(internal, call, ret)
    states = {initial, *(q for src, _, dst in transitions for q in (src, dst))}
    dfa = Dfa(states, alphabet.stack_aware_symbols(),
              {(src, sym): dst for src, sym, dst in transitions}, initial, accepting)
    return dfa_to_vdpa(dfa, alphabet)


def _balanced_parens() -> Vdpa:
    # ("^n ")"^n for n >= 1; s2 is a sink that discards everything after
    # the first pop is followed by a push
    return _simple_vdpa(
        internal=[], call=["("], ret=[")"],
        transitions=[
            ("s0", "(", "s0"),
            ("s0", ")|(", "s1"),
            ("s1", ")|(", "s1"),
            ("s1", "(", "s2"),
            ("s2", "(", "s2"),
            ("s2", ")|(", "s2"),
        ],
        initial="s0", accepting=["s1"])


def _arithmetic_expr() -> Vdpa:
    return _simple_vdpa(
        internal=["1", "+"], call=["("], ret=[")"],
        transitions=[
            ("s0", "(", "s0"),
            ("s0", "1", "s1"),
            ("s1", ")|(", "s1"),
            ("s1", "+", "s0"),
        ],
        initial="s0", accepting=["s1"])


def _anbn() -> Vdpa:
    return _simple_vdpa(
        internal=[], call=["a"], ret=["b"],
        transitions=[
            ("s0", "a", "s0"),
            ("s0", "b|a", "s1"),
            ("s1", "b|a", "s1"),
        ],
        initial="s0", accepting=["s1"])


def _dyck1() -> Vdpa:
    return _simple_vdpa(
        internal=[], call=["("], ret=[")"],
        transitions=[
            ("s0", "(", "s0"),
            ("s0", ")|(", "s0"),
        ],
        initial="s0", accepting=["s0"])


def _dyck2() -> Vdpa:
    return _simple_vdpa(
        internal=[], call=["(", "["], ret=[")", "]"],
        transitions=[
            ("s0", "(", "s0"),
            ("s0", "[", "s0"),
            ("s0", ")|(", "s0"),
            ("s0", "]|[", "s0"),
        ],
        initial="s0", accepting=["s0"])


def _dyck1_parity(accept_odd: bool) -> Vdpa:
    # two states track the parity of the number of opening brackets
    return _simple_vdpa(
        internal=[], call=["("], ret=[")"],
        transitions=[
            ("even", "(", "odd"),
            ("odd", "(", "even"),
            ("even", ")|(", "even"),
            ("odd", ")|(", "odd"),
        ],
        initial="even", accepting=["odd" if accept_odd else "even"])


def _nested_xml_tags() -> Vdpa:
    return _simple_vdpa(
        internal=["text"], call=["<a>", "<b>"], ret=["</a>", "</b>"],
        transitions=[
            ("s0", "text", "s0"),
            ("s0", "<a>", "s0"),
            ("s0", "<b>", "s0"),
            ("s0", "</a>|<a>", "s0"),
            ("s0", "</b>|<b>", "s0"),
        ],
        initial="s0", accepting=["s0"])


_BUILTINS = {
    "balanced_parens": _balanced_parens,
    "arithmetic_expr": _arithmetic_expr,
    "anbn": _anbn,
    "dyck1": _dyck1,
    "dyck2": _dyck2,
    "dyck1_even": lambda: _dyck1_parity(accept_odd=False),
    "dyck1_odd": lambda: _dyck1_parity(accept_odd=True),
    "nested_xml_tags": _nested_xml_tags,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> GroundTruth:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown grammar {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    vdpa = factory()
    return GroundTruth(name, vdpa)


def _randbelow(getrandbits, n: int) -> int:
    """``rng.randrange(n)`` with the same draws: ``getrandbits(k)``, k the bit
    length of n, repeated until the result is below n. ``choice``, ``randint``
    and ``shuffle`` draw the same way, so the hot loops below run this loop
    inline and still make byte-identical datasets."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _uniform_word(rng: random.Random, symbols: list[str], cfg: GenConfig) -> Word:
    """The word ``rng.randint(len_min, len_max)`` times ``rng.choice(symbols)``
    would draw."""
    getrandbits = rng.getrandbits
    n = len(symbols)
    k = n.bit_length()
    word = []
    for _ in range(cfg.len_min + _randbelow(getrandbits, cfg.len_max - cfg.len_min + 1)):
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        word.append(symbols[i])
    return tuple(word)


def _walk_moves(vdpa: Vdpa) -> tuple[dict, dict, dict, dict]:
    """The moves an accepting walk draws from: (symbol, target) lists per
    state for internal and call symbols, and per (state, stack top) for
    return symbols, each in symbol order so the walk is reproducible across
    processes. Built once per dataset, so the walk itself never sorts. The
    fourth dict memoizes the walk's option lists."""
    moves: dict[str, dict] = {"internal": {}, "call": {}, "return": {}}
    # the kinds partition the symbols, so one stable sort orders each list
    for kind, src, sym, top, dst in sorted(edges(vdpa), key=lambda e: e[2]):
        moves[kind].setdefault(src if top is None else (src, top), []).append((sym, dst))
    return moves["internal"], moves["call"], moves["return"], {}


def _accepting_walk(rng: random.Random, vdpa: Vdpa, moves: tuple[dict, dict, dict, dict],
                    length: int) -> Optional[Word]:
    """One random walk of exactly `length` steps that must end accepting with
    an empty stack; pushes are pruned so the stack can always drain in time.
    Each step draws as ``rng.randrange(len(options))`` would."""
    internal, call, ret, memo = moves
    getrandbits = rng.getrandbits
    calls, rets = vdpa.alphabet.call, vdpa.alphabet.ret
    state = vdpa.initial
    stack: list[str] = []
    word: list[str] = []
    for remaining_after in range(length - 1, -1, -1):
        depth = len(stack)
        top = stack[-1] if stack else None
        key = (state, top, depth <= remaining_after, depth < remaining_after)
        entry = memo.get(key)
        if entry is None:
            options: list[tuple[str, object]] = []
            if key[2]:
                options += internal.get(state, ())
                if key[3]:
                    options += call.get(state, ())
            if stack:
                options += ret.get((state, top), ())
            entry = memo[key] = (options, len(options), len(options).bit_length())
        options, n, k = entry
        if not n:
            return None
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        sym, state = options[i]
        if sym in calls:
            stack.append(sym)
        elif sym in rets:
            stack.pop()
        word.append(sym)
    if state in vdpa.accepting and not stack:
        return tuple(word)
    return None


def generate_dataset(gt: GroundTruth, cfg: GenConfig) -> LabeledDataset:
    """Seeded random dataset labeled by simulation on the ground truth.

    uniform: lengths and symbols drawn uniformly, duplicates possible.
    balanced: half accepting words via accepting random walks, half uniform
    rejected words; de-duplicated with resampling under a retry budget.
    """
    rng = random.Random(cfg.seed)
    symbols = sorted(gt.alphabet.symbols)
    accepts = acceptor(gt.vdpa)
    if cfg.mode == "uniform":
        samples = []
        for _ in range(cfg.total):
            word = _uniform_word(rng, symbols, cfg)
            samples.append(LabeledSample(word, accepts(word)))
        return LabeledDataset(samples)
    n_pos = cfg.total // 2 + cfg.total % 2
    n_neg = cfg.total - n_pos
    budget = 100 * cfg.total
    moves = _walk_moves(gt.vdpa)
    positives: set[Word] = set()
    while len(positives) < n_pos:
        if budget <= 0:
            raise GenerationError(
                f"could not sample {n_pos} distinct accepted words of length "
                f"[{cfg.len_min}, {cfg.len_max}] from {gt.name!r}")
        budget -= 1
        length = cfg.len_min + _randbelow(rng.getrandbits, cfg.len_max - cfg.len_min + 1)
        word = _accepting_walk(rng, gt.vdpa, moves, length)
        if word is not None:
            positives.add(word)
    negatives: set[Word] = set()
    while len(negatives) < n_neg:
        if budget <= 0:
            raise GenerationError(f"could not sample {n_neg} distinct rejected words from {gt.name!r}")
        budget -= 1
        word = _uniform_word(rng, symbols, cfg)
        if word not in positives and not accepts(word):
            negatives.add(word)
    samples = [LabeledSample(w, True) for w in sorted(positives)]
    samples += [LabeledSample(w, False) for w in sorted(negatives)]
    rng.shuffle(samples)
    return LabeledDataset(samples)


def split_dataset(dataset: LabeledDataset, seed: int = 0,
                  ) -> tuple[LabeledDataset, LabeledDataset]:
    """Deduplicate by word, shuffle, split in half; both halves are forced to
    contain at least one positive and one negative sample."""
    unique: dict[Word, LabeledSample] = {}
    for s in dataset:
        unique.setdefault(s.word, s)
    samples = list(unique.values())
    pos = sum(1 for s in samples if s.label)
    neg = len(samples) - pos
    if pos < 2 or neg < 2:
        raise ValueError("need at least 2 distinct positives and 2 distinct negatives to split")
    rng = random.Random(seed)
    rng.shuffle(samples)
    half = len(samples) // 2
    train, evl = samples[:half], samples[half:]
    for want in (True, False):
        for lacking, other in ((train, evl), (evl, train)):
            if not any(s.label is want for s in lacking):
                give = next(i for i, s in enumerate(other) if s.label is want)
                take = next(i for i, s in enumerate(lacking) if s.label is not want)
                lacking[take], other[give] = other[give], lacking[take]
    return LabeledDataset(train), LabeledDataset(evl)


def evaluate(model: Automaton, dataset: LabeledDataset) -> EvalMetrics:
    """Classify every sample and tally precision, recall and F1."""
    if not dataset.samples:
        raise ValueError("evaluation dataset is empty")
    accepts = acceptor(model)
    tp = fp = fn = tn = 0
    for sample in dataset:
        predicted = accepts(sample.word)
        if predicted and sample.label:
            tp += 1
        elif predicted and not sample.label:
            fp += 1
        elif not predicted and sample.label:
            fn += 1
        else:
            tn += 1
    undefined = []
    if tp + fp:
        precision = tp / (tp + fp)
    else:
        precision, undefined = 0.0, undefined + ["precision"]
    if tp + fn:
        recall = tp / (tp + fn)
    else:
        recall, undefined = 0.0, undefined + ["recall"]
    if precision + recall:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, undefined = 0.0, undefined + ["f1"]
    return EvalMetrics(tp, fp, fn, tn, precision, recall, f1, tuple(undefined))
