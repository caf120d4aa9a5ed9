"""Passive regular inference by state merging.

A prefix tree acceptor (PTA) spans every training word; nodes carry a
tri-state label (accepting / rejecting / unknown). Learning runs a red-blue
loop over a union-find partition of PTA nodes. Every block is represented by
its smallest node id, which is its shortlex-least node because ids are
shortlex ranks; the candidate order and the emitted state names read the
representative. A merge unions two blocks and then cascades determinization
folds with an explicit work queue; it is rejected the moment a block would
hold both an accepting and a rejecting node.

Two candidate policies are provided: classic RPNI and EDSM. Their candidate
order and the pruning of the emitted model are specified by ``reference_learn``
in ``tests/conftest.py``, a slow learner that re-folds every trial from scratch
and whose models these equal byte for byte.

EDSM re-scores every (red, blue) pair each round, so it remembers the
pairs that conflicted, by PTA node ids, and never tries them again. This is
sound because the partition only coarsens: the blocks holding those nodes
later are supersets of the ones that conflicted, and the fold of a coarser
partition identifies at least the same nodes, so it meets the same
conflict. A round also ends at the first blue with no compatible red, the
one it promotes, without scoring the blues after it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .automata import Dfa
from .preprocess import DatasetError, LabeledDataset


@dataclass
class Pta:
    """Prefix tree acceptor in flat lists. Node 0 is the root; ids are the
    shortlex ranks of the access strings. With k = len(symbols), the sorted
    alphabet, ``child[node * k + i]`` is the child on ``symbols[i]``, or 0 for
    none (the root is nobody's child); ``label`` is True, False or None."""

    symbols: tuple[str, ...]
    child: list[int]
    label: list[Optional[bool]]

    @property
    def size(self) -> int:
        return len(self.label)


def build_pta(dataset: LabeledDataset) -> Pta:
    """Span all sample words; endpoints get the sample label, the rest stay
    unknown. Conflicting labels for one word raise a DatasetError.

    Two passes over the sorted words give every node its shortlex id: one
    counts the nodes of each depth, the other makes them.
    """
    samples = sorted(dataset, key=lambda s: s.word)
    # In sorted order a word shares its first `common` symbols with the word
    # before it and makes exactly the nodes at depths common+1..len(word); a
    # difference array over those ranges counts the nodes of each depth.
    shared: list[int] = []
    delta = [0] * (max((len(s.word) for s in samples), default=0) + 2)
    prev: tuple[str, ...] = ()
    for sample in samples:
        word = sample.word
        common = 0
        for a, b in zip(prev, word):
            if a != b:
                break
            common += 1
        shared.append(common)
        delta[common + 1] += 1
        delta[len(word) + 1] -= 1
        prev = word
    # Within one depth sorted order is lexicographic order of the prefixes,
    # so a depth's ids run on from the root and every shallower node.
    next_id = [0] * len(delta)
    width, size = 0, 1
    for depth in range(1, len(delta)):
        width += delta[depth]
        next_id[depth] = size
        size += width
    symbols = tuple(sorted(dataset.symbols()))
    k = len(symbols)
    column = {sym: i for i, sym in enumerate(symbols)}
    child = [0] * (size * k)
    label: list[Optional[bool]] = [None] * size
    # last[d]: the latest node made at depth d, the current word's prefix
    last = [0] * len(delta)
    for sample, common in zip(samples, shared):
        word = sample.word
        node = last[common]
        for depth, sym in enumerate(word[common:], common + 1):
            new = next_id[depth]
            next_id[depth] = new + 1
            child[node * k + column[sym]] = new
            last[depth] = node = new
        if label[node] is not None and label[node] != sample.label:
            raise DatasetError(f"conflicting labels for word {' '.join(word) or 'ε'!r}")
        label[node] = sample.label
    return Pta(symbols, child, label)


class MergeState:
    """Union-find partition of PTA nodes with rollbackable trial merges.

    Block data lives at the representative, always the block's smallest node
    id: a union keeps the smaller one. ``child[rep * k + i]`` is a node that
    the block moves to on ``symbols[i]`` (0: none). ``count[rep]`` is +n for
    n accepting nodes and -n for n rejecting ones. A block never holds both,
    so a negative product of two counts is a conflict, and any other product
    counts the same-label pairs a union brings together (the EDSM evidence).
    A representative's ``parent`` is -1, one int shared by all; find does no
    path compression, so rollback only resets absorbed parents to -1.

    The merger consumes the PTA: it takes over ``pta.child`` and rewrites it.
    It reads ``pta.label`` into ``count`` and leaves it as it was.
    """

    def __init__(self, pta: Pta) -> None:
        self.symbols = pta.symbols
        self.parent = [-1] * pta.size
        self.child = pta.child
        self.count = [0 if l is None else 1 if l else -1 for l in pta.label]
        # undo log of the trial in progress, ints only: r > 0 is an absorbed
        # representative, ~slot < 0 a transition added at child[slot]
        self._log: list[int] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] >= 0:
            x = parent[x]
        return x

    def block_transitions(self, rep: int) -> dict[str, int]:
        """Outgoing transitions of a block, targets resolved to reps."""
        k = len(self.symbols)
        row = self.child[rep * k:rep * k + k]
        return {sym: self.find(dst) for sym, dst in zip(self.symbols, row) if dst}

    def trial_merge(self, a: int, b: int) -> Optional[int]:
        """Union the blocks of a and b and cascade determinization folds.

        Returns the evidence score (same-label node pairs brought together)
        on success, leaving the merge applied; rolls everything back and
        returns None on a label conflict.
        """
        # the hot loop of both learners: attributes bound to locals, find inlined
        parent, child, count, k = self.parent, self.child, self.count, len(self.symbols)
        columns = range(k)
        log = self._log
        log.clear()
        record = log.append
        score = 0
        queue: deque[tuple[int, int]] = deque([(a, b)])
        pop, push = queue.popleft, queue.append
        while queue:
            rx, ry = pop()
            while parent[rx] >= 0:
                rx = parent[rx]
            while parent[ry] >= 0:
                ry = parent[ry]
            if rx == ry:
                continue
            if ry < rx:
                rx, ry = ry, rx
            cx, cy = count[rx], count[ry]
            pairs = cx * cy
            if pairs < 0:
                self.rollback()
                return None
            score += pairs
            # ry is absorbed into rx, the smaller representative
            record(ry)
            parent[ry] = rx
            count[rx] = cx + cy
            bx, by = rx * k, ry * k
            for i in columns:
                dst = child[by + i]
                if dst:
                    slot = bx + i
                    old = child[slot]
                    if old:
                        push((old, dst))
                    else:
                        child[slot] = dst
                        record(~slot)
        return score

    def commit(self) -> None:
        self._log.clear()

    def rollback(self) -> None:
        parent, child, count = self.parent, self.child, self.count
        for entry in reversed(self._log):
            if entry < 0:
                child[~entry] = 0
            else:
                kept = parent[entry]
                parent[entry] = -1
                count[kept] -= count[entry]
        self._log.clear()


def _blue_frontier(merger: MergeState, red: list[int]) -> list[int]:
    return sorted({t for r in red for t in merger.block_transitions(r).values()} - set(red))


def _emit_dfa(merger: MergeState, alphabet: frozenset[str]) -> Dfa:
    root = merger.find(0)
    # blocks reachable from the root, each with its transitions resolved once
    trans = {root: merger.block_transitions(root)}
    queue = deque([root])
    while queue:
        for dst in trans[queue.popleft()].values():
            if dst not in trans:
                trans[dst] = merger.block_transitions(dst)
                queue.append(dst)
    # prune blocks whose entire reachable closure is unlabeled: reverse BFS
    # from labeled blocks marks everything worth keeping
    reverse: dict[int, set[int]] = {rep: set() for rep in trans}
    for rep, kids in trans.items():
        for dst in kids.values():
            reverse[dst].add(rep)
    count = merger.count
    useful = deque(rep for rep in trans if count[rep])
    kept = set(useful)
    while useful:
        rep = useful.popleft()
        for src in reverse[rep]:
            if src not in kept:
                kept.add(src)
                useful.append(src)
    kept.add(root)
    moves = {(rep, sym): dst for rep in kept for sym, dst in trans[rep].items() if dst in kept}
    accepting = frozenset(rep for rep in kept if count[rep] > 0)
    return Dfa(frozenset(kept), alphabet, moves, root, accepting)


def _learn(dataset: LabeledDataset, use_evidence: bool) -> Dfa:
    # no name keeps the PTA, so its label list is freed before any merge
    merger = MergeState(build_pta(dataset))
    red: list[int] = [0]
    # EDSM only: blue rep -> red reps whose merge with it conflicted.
    # The partition only coarsens, so a merge that conflicted once conflicts
    # in every later round (see the module docstring). An entry goes when its
    # blue is merged or promoted; one whose block a fold gave a smaller node
    # just stops matching, which costs a repeated trial, never a model.
    rejected: dict[int, set[int]] = {}
    while True:
        # a fold can bring a smaller node into a red block and so move its
        # representative, so re-resolve and re-sort the reds every round
        red = sorted({merger.find(r) for r in red})
        blues = _blue_frontier(merger, red)
        if not blues:
            break
        if not use_evidence:
            blue = blues[0]
            for r in red:
                if merger.trial_merge(r, blue) is not None:
                    merger.commit()
                    break
            else:
                red.append(blue)
        else:
            # key: highest score, ties by shortlex red then shortlex blue;
            # the first blue with no compatible red ends the round promoted
            best: Optional[tuple[int, int, int]] = None
            orphan: Optional[int] = None
            for blue in blues:
                known = rejected.get(blue, ())
                compatible = False
                for r in red:
                    if r in known:
                        continue
                    score = merger.trial_merge(r, blue)
                    if score is None:
                        rejected.setdefault(blue, set()).add(r)
                        continue
                    merger.rollback()
                    compatible = True
                    key = (-score, r, blue)
                    if best is None or key < best:
                        best = key
                if not compatible:
                    orphan = blue
                    break
            if orphan is not None:
                rejected.pop(orphan, None)
                red.append(orphan)
            else:
                _, r, blue = best
                rejected.pop(blue, None)
                if merger.trial_merge(r, blue) is None:
                    raise AssertionError("previously compatible merge failed on replay")
                merger.commit()
    return _emit_dfa(merger, frozenset(merger.symbols))


def rpni_learn(dataset: LabeledDataset) -> Dfa:
    """Classic RPNI: first compatible (red, blue) merge in shortlex order."""
    return _learn(dataset, use_evidence=False)


def edsm_learn(dataset: LabeledDataset) -> Dfa:
    """Evidence-driven merging: highest-scoring compatible pair, ties by shortlex red then blue."""
    return _learn(dataset, use_evidence=True)
