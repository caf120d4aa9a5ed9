"""Shared fixtures: the balanced-parentheses worked example, reference
automata, and independent oracles used to cross-check implementations."""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterator, Optional, Sequence

import pytest

from vpalearn import (AlphabetError, Dfa, LabeledDataset, LabeledSample, Vdpa, VpaAlphabet,
                      builtin, classify)

# the balanced-parentheses learning example: 10 labeled words plus the
# empty word; 5 of the 10 non-empty words are not well-matched
WORKED_SAMPLES = [
    ("", False),
    ("()", True),
    ("(())", True),
    ("()()", False),
    ("()()()", False),
    ("()(())", False),
    ("(", False),
    ("())", False),
    (")(", False),
    ("(()", False),
    ("(()))(", False),
]


def as_dataset(pairs) -> LabeledDataset:
    return LabeledDataset([LabeledSample(tuple(word), label) for word, label in pairs])


@pytest.fixture
def paren_alphabet() -> VpaAlphabet:
    return VpaAlphabet(frozenset(), frozenset({"("}), frozenset({")"}))


@pytest.fixture
def arith_alphabet() -> VpaAlphabet:
    return VpaAlphabet(frozenset({"1", "+"}), frozenset({"("}), frozenset({")"}))


@pytest.fixture
def worked_dataset() -> LabeledDataset:
    return as_dataset(WORKED_SAMPLES)


@pytest.fixture
def table1_dataset() -> LabeledDataset:
    return as_dataset([p for p in WORKED_SAMPLES if p[0]])


@pytest.fixture
def parens_gt():
    return builtin("balanced_parens")


@pytest.fixture
def arith_gt():
    return builtin("arithmetic_expr")


@pytest.fixture
def stack_aware_parens_dfa() -> Dfa:
    """The 3-state DFA over the extended alphabet that the worked example
    should converge to: accept ("^n ( ")|(" )^n, sink on reopening."""
    return Dfa(
        states=frozenset({"s0", "s1", "s2"}),
        alphabet=frozenset({"(", ")|("}),
        transitions={
            ("s0", "("): "s0",
            ("s0", ")|("): "s1",
            ("s1", ")|("): "s1",
            ("s1", "("): "s2",
            ("s2", "("): "s2",
            ("s2", ")|("): "s2",
        },
        initial="s0",
        accepting=frozenset({"s1"}),
    )


# ---------------------------------------------------------------- oracles


def oracle_well_matched(word, alphabet: VpaAlphabet) -> bool:
    """Full stack simulation, independent of the counter shortcut."""
    stack = []
    for sym in word:
        if sym in alphabet.call:
            stack.append(sym)
        elif sym in alphabet.ret:
            if not stack:
                return False
            stack.pop()
    return not stack


def oracle_vdpa_reason(vdpa: Vdpa, word) -> Optional[str]:
    """Run over one move table keyed by (state, symbol, popped top or None);
    returns the verdict's ``Reason`` value, or None when the run reaches a
    symbol outside the alphabet before it ends."""
    moves = {}
    for (src, sym), dst in vdpa.internal_trans.items():
        moves[src, sym, None] = (dst, None)
    for (src, sym), dst in vdpa.call_trans.items():
        moves[src, sym, None] = (dst, sym)
    for (src, sym, top), dst in vdpa.return_trans.items():
        moves[src, sym, top] = (dst, None)
    state, stack = vdpa.initial, []
    for sym in word:
        if sym in vdpa.alphabet.ret:
            if not stack:
                return "PopFromEmptyStack"
            key = (state, sym, stack[-1])
        elif sym in vdpa.alphabet.call or sym in vdpa.alphabet.internal:
            key = (state, sym, None)
        else:
            return None
        if key not in moves:
            return "UndefinedTransition"
        state, pushed = moves[key]
        if pushed is not None:
            stack.append(pushed)
        elif key[2] is not None:
            stack.pop()
    if stack:
        return "NonEmptyStackAtEnd"
    return "Accepted" if state in vdpa.accepting else "RejectedAtState"


def oracle_dfa_walk(dfa: Dfa, word) -> bool:
    """Naive table walk over an adjacency-list view of the DFA."""
    table = {state: {} for state in dfa.states}
    for (src, sym), dst in dfa.transitions.items():
        table[src][sym] = dst
    state = dfa.initial
    for sym in word:
        if sym not in table[state]:
            return False
        state = table[state][sym]
    return state in dfa.accepting


def _model_symbols(model) -> frozenset:
    return model.alphabet if isinstance(model, Dfa) else model.alphabet.symbols


def _enumerate_words(symbols: Sequence[str], max_len: int,
                     alpha: Optional[VpaAlphabet]) -> Iterator[tuple]:
    """Shortlex enumeration. With a VPA alphabet, prune to words that can
    still extend to a well-matched word (counter never negative, never larger
    than the remaining length)."""
    order = sorted(symbols)
    # counter change per symbol: a call raises it, a return lowers it
    delta = {sym: 0 if alpha is None else (sym in alpha.call) - (sym in alpha.ret)
             for sym in order}
    for length in range(max_len + 1):
        # depth-first in lexicographic order at fixed length
        def extend(prefix: tuple, counter: int) -> Iterator[tuple]:
            if len(prefix) == length:
                if counter == 0 or alpha is None:
                    yield prefix
                return
            remaining = length - len(prefix)
            for sym in order:
                c = counter + delta[sym]
                if alpha is not None and (c < 0 or c > remaining - 1):
                    continue
                yield from extend(prefix + (sym,), c)

        yield from extend((), 0)


def oracle_bounded_equivalence(a, b, max_len: int) -> Optional[tuple]:
    """Run both models from the start on every word up to ``max_len``, in
    shortlex order, and return the first word they classify differently.
    Two VDPAs only see well-matched words, as ``bounded_equivalence`` does."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    alpha = a.alphabet if isinstance(a, Vdpa) and isinstance(b, Vdpa) else None
    if _model_symbols(a) != _model_symbols(b) or (alpha is not None and b.alphabet != alpha):
        raise AlphabetError(f"alphabet mismatch: {a.alphabet} vs {b.alphabet}")
    for word in _enumerate_words(_model_symbols(a), max_len, alpha):
        if classify(a, word) != classify(b, word):
            return word
    return None


def distinct_prefixes(words) -> int:
    seen = {()}
    for word in words:
        for i in range(1, len(word) + 1):
            seen.add(tuple(word[:i]))
    return len(seen)


def random_well_matched(rng: random.Random, alphabet: VpaAlphabet, max_len: int):
    """Random well-matched word: random walk that never lets the stack
    exceed the remaining budget."""
    length = rng.randrange(0, max_len + 1)
    internal = sorted(alphabet.internal)
    calls = sorted(alphabet.call)
    rets = sorted(alphabet.ret)
    word, depth = [], 0
    while len(word) < length:
        remaining = length - len(word)
        choices = []
        if internal and depth <= remaining - 1:
            choices.append("internal")
        if calls and depth + 1 <= remaining - 1:
            choices.append("call")
        if rets and depth > 0:
            choices.append("return")
        if not choices:
            break
        kind = rng.choice(choices)
        if kind == "internal":
            word.append(rng.choice(internal))
        elif kind == "call":
            word.append(rng.choice(calls))
            depth += 1
        else:
            word.append(rng.choice(rets))
            depth -= 1
    word.extend(rng.choice(rets) for _ in range(depth) if rets)
    return tuple(word)


# ------------------------------------------------------- reference learner


def reference_learn(dataset: LabeledDataset, evidence: bool) -> Dfa:
    """Red-blue state merging written to be read, not to be fast: the spec
    of the candidate order that ``rpni_learn`` (``evidence`` False) and
    ``edsm_learn`` (True) follow.

    The prefix tree's nodes are the distinct prefixes of the words, numbered
    in shortlex order. A partition is a plain node-to-block list, each block
    named by its least node. A trial merge copies the list, joins two blocks,
    then joins the targets of any two same-symbol edges that leave one block
    until there are none, all from scratch with no undo log. It fails when a
    block holds an accepting and a rejecting node.

    Each round resolves the reds to their blocks and sorts them; the blues
    are the non-red blocks that edges from red blocks reach, sorted.
    - RPNI merges the least blue with the first red it is compatible with,
      or else promotes it.
    - EDSM tries every blue with every red, in order, scoring a merge by the
      same-label node pairs that its blocks hold and the old ones did not.
      The first blue with no compatible red is promoted and ends the round;
      otherwise the pair with the least (-score, red, blue) merges.
    The model keeps the root and every block reachable from it from which a
    labeled block is reachable.
    """
    labels = {s.word: s.label for s in dataset}
    prefixes = sorted({w[:i] for w in labels for i in range(len(w) + 1)},
                      key=lambda w: (len(w), w))
    rank = {w: i for i, w in enumerate(prefixes)}
    edges = [(rank[w[:-1]], w[-1], rank[w]) for w in prefixes[1:]]
    label = [labels.get(w) for w in prefixes]

    def fold(block: list[int], x: int, y: int) -> Optional[list[int]]:
        join: Optional[tuple[int, int]] = (block[x], block[y])
        while join is not None:
            low, high = sorted(join)
            block = [low if b == high else b for b in block]
            join = None
            target: dict[tuple[int, str], int] = {}
            for src, sym, dst in edges:
                seen = target.setdefault((block[src], sym), block[dst])
                if seen != block[dst]:
                    join = (seen, block[dst])
                    break
        for b in set(block):
            if {label[n] for n in range(len(block)) if block[n] == b} >= {True, False}:
                return None
        return block

    def same_label_pairs(block: list[int]) -> int:
        sizes = Counter((block[n], label[n]) for n in range(len(block)) if label[n] is not None)
        return sum(c * (c - 1) // 2 for c in sizes.values())

    block = list(range(len(prefixes)))
    red = [0]
    while True:
        red = sorted({block[r] for r in red})
        blues = sorted({block[dst] for src, _, dst in edges if block[src] in red} - set(red))
        if not blues:
            break
        if not evidence:
            for r in red:
                merged = fold(block, r, blues[0])
                if merged is not None:
                    block = merged
                    break
            else:
                red.append(blues[0])
            continue
        keys: list[tuple[int, int, int]] = []
        for blue in blues:
            compatible = [(same_label_pairs(block) - same_label_pairs(merged), r, blue)
                          for r in red if (merged := fold(block, r, blue)) is not None]
            if not compatible:
                red.append(blue)
                keys = []
                break
            keys += compatible
        if keys:
            _, r, blue = min(keys)
            block = fold(block, r, blue)

    step = {(block[src], sym): block[dst] for src, sym, dst in edges}

    def reachable(start: int) -> set[int]:
        found, todo = {start}, [start]
        while todo:
            b = todo.pop()
            for (src, _), dst in step.items():
                if src == b and dst not in found:
                    found.add(dst)
                    todo.append(dst)
        return found

    labeled = {block[n] for n in range(len(block)) if label[n] is not None}
    root = block[0]
    kept = {b for b in reachable(root) if reachable(b) & labeled} | {root}
    return Dfa(
        states=frozenset(kept),
        alphabet=dataset.symbols(),
        transitions={(src, sym): dst for (src, sym), dst in step.items()
                     if src in kept and dst in kept},
        initial=root,
        accepting=frozenset(block[n] for n in range(len(block))
                            if label[n] is True and block[n] in kept),
    )
