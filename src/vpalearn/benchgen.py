"""Ground-truth grammars, seeded dataset generation, and evaluation.

Built-ins cover the usual visibly-pushdown benchmark families: X^nY^n,
Dyck languages over one and two bracket pairs, parity-constrained Dyck
variants, nested tags, and a small arithmetic-expression language.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterator, Literal, Optional, get_args

# classify is unused here: only bench/spans.py rebinds benchgen.classify (ROADMAP item 3)
from .automata import (  # noqa: F401
    AlphabetError, Automaton, Dfa, Reason, Vdpa, VpaAlphabet, _compile, classify, runner)
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
            raise AlphabetError("ground-truth alphabet has no symbols to draw words from")

    @property
    def alphabet(self) -> VpaAlphabet:
        return self.vdpa.alphabet

    # Built on first use and kept in the instance dict, which the fields,
    # equality and repr do not read: a truth compiles once, builtin() never.
    @cached_property
    def _run(self) -> Callable[[Word], Reason]:
        return runner(self.vdpa)

    @cached_property
    def _walk(self) -> tuple[list, int, frozenset[int]]:
        """The accepting walk's table, read from the compiled one: the entry
        for (state, stack top, room) sits at the state's base plus the top's
        code plus the room. The empty stack's code is 0, the i-th call's in
        symbol order 3i, and bases step by 3 (calls + 1). An entry holds the
        options, their count and its bit length; an option, its symbol, the
        next base and a push code (0 internal, the call's top code, -1 pop).
        Also the initial base and the accepting states' bases."""
        moves, accepting, initial, calls, _ = _compile(self.vdpa)
        tops = {call: 3 * i for i, call in enumerate(sorted(calls), 1)}
        width = 3 * (len(tops) + 1)
        entries = []
        for row in moves:
            # rank 0 internal, 1 call, 2 return keyed (return, popped call)
            ranked = sorted((2 if isinstance(sym, tuple) else sym in calls, sym, dst)
                            for sym, dst in row.items())
            internal = [(sym, width * dst, 0) for rank, sym, dst in ranked if rank == 0]
            pushes = [(sym, width * dst, tops[sym]) for rank, sym, dst in ranked if rank == 1]
            for top in (None, *tops):  # in top code order
                pops = [(sym[0], width * dst, -1) for rank, sym, dst in ranked
                        if rank == 2 and sym[1] == top]
                for options in (pops, internal + pops, internal + pushes + pops):
                    entries.append((options, len(options), len(options).bit_length()))
        return entries, width * initial, frozenset(width * q for q, flag in enumerate(accepting) if flag)


Mode = Literal["uniform", "balanced"]
_MODES: tuple[str, ...] = get_args(Mode)


@dataclass(frozen=True)
class GenConfig:
    total: int = 10000
    len_min: int = 4
    len_max: int = 50
    seed: int = 0
    mode: Mode = "uniform"

    def __post_init__(self) -> None:
        if not (0 < self.len_min <= self.len_max):
            raise ValueError("need 0 < len_min <= len_max")
        if self.total < 2:
            raise ValueError("need total >= 2")
        if self.mode not in _MODES:
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
        raise KeyError(f"unknown grammar {name!r}; available: {', '.join(BUILTIN_NAMES)}") from None
    vdpa = factory()
    return GroundTruth(name, vdpa)


def _randbelow(getrandbits, n: int) -> int:
    """``rng.randrange(n)`` with the same draws: ``getrandbits(k)``, k the bit
    length of n, repeated until the result is below n. ``choice``, ``randint``
    and ``shuffle`` draw the same way, so the hot loops below (the uniform
    words, the accepting walk and ``_shuffle``) run this loop inline and
    still make byte-identical datasets."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle(getrandbits, items: list) -> None:
    """``rng.shuffle(items)`` with the same draws: from the last index down
    to 1, swap it with an index drawn below it plus one."""
    for i in range(len(items) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def _uniform_words(rng: random.Random, symbols: list[str], cfg: GenConfig) -> Iterator[Word]:
    """Endless words, each the one ``rng.randint(len_min, len_max)`` times
    ``rng.choice(symbols)`` would draw next; the draw widths and bounds are
    bound once for all of them."""
    getrandbits = rng.getrandbits
    n, len_min, span = len(symbols), cfg.len_min, cfg.len_max - cfg.len_min + 1
    k, k_span = n.bit_length(), span.bit_length()
    while True:
        extra = getrandbits(k_span)
        while extra >= span:
            extra = getrandbits(k_span)
        word = []
        for _ in range(len_min + extra):
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            word.append(symbols[i])
        yield tuple(word)


def _accepting_walk(rng: random.Random, walk: tuple, length: int) -> Optional[Word]:
    """One random walk of exactly `length` steps over a truth's walk table
    (``GroundTruth._walk``) that must end accepting with an empty stack;
    pushes are pruned so the stack can always drain in time. Each step draws
    as ``rng.randrange(len(options))`` would. The options are the state's
    row: internal moves, then call moves, then return moves for the stack
    top, each kind in symbol order, so the walk is reproducible across
    processes. The room left after the step picks the entry: 2 while a call
    can still be closed, 1 when no call fits and 0 when the stack must drain.
    A step indexes one list; the top and depth stay in locals."""
    entries, base, accepting = walk
    getrandbits = rng.getrandbits
    top, depth = 0, 0
    below: list[int] = []  # the top codes under the top
    word: list[str] = []
    for remaining_after in range(length - 1, -1, -1):
        options, n, k = entries[base + top + (depth <= remaining_after) + (depth < remaining_after)]
        if not n:
            return None
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        sym, base, push = options[i]
        if push > 0:
            below.append(top)
            top = push
            depth += 1
        elif push:
            top = below.pop()
            depth -= 1
        word.append(sym)
    if depth or base not in accepting:
        return None
    return tuple(word)


def generate_dataset(gt: GroundTruth, cfg: GenConfig) -> LabeledDataset:
    """Seeded random dataset labeled by simulation on the ground truth.

    uniform: lengths and symbols drawn uniformly, duplicates possible.
    balanced: half accepting words via accepting random walks, half uniform
    rejected words; de-duplicated with resampling under a retry budget.
    """
    rng = random.Random(cfg.seed)
    words = _uniform_words(rng, sorted(gt.alphabet.symbols), cfg)
    run, accepted, make = gt._run, Reason.ACCEPTED, LabeledSample._checked
    if cfg.mode == "uniform":
        samples = [make(word, run(word) is accepted) for word in islice(words, cfg.total)]
        return LabeledDataset._checked(samples)  # one run labels every word
    n_pos = cfg.total // 2 + cfg.total % 2
    n_neg = cfg.total - n_pos
    budget = 100 * cfg.total
    walk = gt._walk
    positives: set[Word] = set()
    while len(positives) < n_pos:
        if budget <= 0:
            raise GenerationError(
                f"could not sample {n_pos} distinct accepted words of length "
                f"[{cfg.len_min}, {cfg.len_max}] from {gt.name!r}")
        budget -= 1
        length = cfg.len_min + _randbelow(rng.getrandbits, cfg.len_max - cfg.len_min + 1)
        word = _accepting_walk(rng, walk, length)
        if word is not None:
            positives.add(word)
    negatives: set[Word] = set()
    while len(negatives) < n_neg:
        if budget <= 0:
            raise GenerationError(f"could not sample {n_neg} distinct rejected words from {gt.name!r}")
        budget -= 1
        word = next(words)
        if run(word) is not accepted:
            negatives.add(word)
    samples = [make(w, True) for w in sorted(positives)]
    samples += [make(w, False) for w in sorted(negatives)]
    _shuffle(rng.getrandbits, samples)
    return LabeledDataset._checked(samples)  # the positives are accepted, the negatives not


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
    _shuffle(random.Random(seed).getrandbits, samples)
    half = len(samples) // 2
    train, evl = samples[:half], samples[half:]
    for want in (True, False):
        for lacking, other in ((train, evl), (evl, train)):
            if not any(s.label is want for s in lacking):
                give = next(i for i, s in enumerate(other) if s.label is want)
                take = next(i for i, s in enumerate(lacking) if s.label is not want)
                lacking[take], other[give] = other[give], lacking[take]
    return LabeledDataset._checked(train), LabeledDataset._checked(evl)  # of a checked dataset


def evaluate(model: Automaton, dataset: LabeledDataset) -> EvalMetrics:
    """Classify every sample and tally precision, recall and F1."""
    if not dataset.samples:
        raise ValueError("evaluation dataset is empty")
    run, accepted = runner(model), Reason.ACCEPTED
    tp = fp = fn = tn = 0
    for sample in dataset:
        predicted = run(sample.word) is accepted
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
