"""Passive regular inference by state merging.

A prefix tree acceptor (PTA) spans every training word; nodes carry a
tri-state label (accepting / rejecting / unknown). Learning runs a red-blue
loop over a union-find partition of PTA nodes: confirmed (red) blocks vs.
frontier (blue) candidates, processed in shortlex order of their access
strings. Every block is represented by its smallest node id, which is its
shortlex-least node because ids are shortlex ranks; that order, the EDSM
tie-break and the emitted state names all read the representative. A merge
unions two blocks and then cascades determinization folds with an explicit
work queue; it is rejected the moment a block would hold both an accepting
and a rejecting node.

Two candidate policies are provided: classic RPNI (first compatible merge
in shortlex order) and EDSM (highest evidence score, counting same-label
node pairs co-located by the fold).

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
from typing import Iterable, Optional

from .automata import Dfa
from .preprocess import DatasetError, LabeledDataset

_ACC = True
_REJ = False


@dataclass
class Pta:
    """Prefix tree acceptor. Node 0 is the root; node ids are the shortlex
    ranks of the access strings, so id order is shortlex order, and every
    node's children dict lists its symbols in sorted order."""

    children: list[dict[str, int]]
    label: list[Optional[bool]]
    alphabet: frozenset[str]

    @property
    def size(self) -> int:
        return len(self.children)


def build_pta(dataset: LabeledDataset) -> Pta:
    """Span all sample words; endpoints get the sample label, the rest stay
    unknown. Conflicting labels for one word raise a DatasetError.

    Two passes over the sorted words give every node its shortlex id: one
    counts the nodes of each depth, the other makes them.
    """
    samples = sorted(dataset, key=lambda s: s.word)
    # In sorted order a word shares a prefix of some length k with the word
    # before it and makes exactly the nodes at depths k+1..len(word); a
    # difference array over those ranges counts the nodes of each depth.
    shared: list[int] = []
    delta = [0] * (max((len(s.word) for s in samples), default=0) + 2)
    prev: tuple[str, ...] = ()
    for sample in samples:
        word = sample.word
        k = 0
        for a, b in zip(prev, word):
            if a != b:
                break
            k += 1
        shared.append(k)
        delta[k + 1] += 1
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
    children: list[dict[str, int]] = [{} for _ in range(size)]
    label: list[Optional[bool]] = [None] * size
    # last[d]: the latest node made at depth d, the current word's prefix
    last = [0] * len(delta)
    for sample, k in zip(samples, shared):
        word = sample.word
        node = last[k]
        for depth, sym in enumerate(word[k:], k + 1):
            new = next_id[depth]
            next_id[depth] = new + 1
            # sorted order hands every node its children in symbol order
            children[node][sym] = new
            last[depth] = node = new
        if label[node] is not None and label[node] != sample.label:
            raise DatasetError(f"conflicting labels for word {' '.join(word) or 'ε'!r}")
        label[node] = sample.label
    return Pta(children, label, dataset.symbols())


class MergeState:
    """Union-find partition of PTA nodes with rollbackable trial merges.

    Block data (outgoing transitions, labeled-node counts) lives at
    the representative, which is always the block's smallest node id: a
    union keeps the smaller of the two representatives. find does no path
    compression, so rollback only has to reset the absorbed parents.

    The merger consumes the PTA: it takes over ``pta.children`` and rewrites
    those dicts as blocks merge, so the PTA's transitions are not valid
    afterwards.
    """

    def __init__(self, pta: Pta) -> None:
        self.parent = list(range(pta.size))
        self.children: list[dict[str, int]] = pta.children
        # a block is accepting when it holds an accepting node, rejecting
        # when it holds a rejecting node, and never both
        self.acc_n = [1 if l is _ACC else 0 for l in pta.label]
        self.rej_n = [1 if l is _REJ else 0 for l in pta.label]
        # undo log for the trial in progress: an int is an absorbed
        # representative, (rep, sym) is an added transition
        self._log: list[int | tuple[int, str]] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def block_transitions(self, rep: int) -> dict[str, int]:
        """Outgoing transitions of a block, targets resolved to reps."""
        return {sym: self.find(dst) for sym, dst in self.children[rep].items()}

    def trial_merge(self, a: int, b: int) -> Optional[int]:
        """Union the blocks of a and b and cascade determinization folds.

        Returns the evidence score (same-label node pairs brought together)
        on success, leaving the merge applied; rolls everything back and
        returns None on a label conflict.
        """
        # the hot loop of both learners: attributes bound to locals, find inlined
        parent, children, acc_n, rej_n = self.parent, self.children, self.acc_n, self.rej_n
        log = self._log
        log.clear()
        record = log.append
        score = 0
        queue: deque[tuple[int, int]] = deque([(a, b)])
        pop, push = queue.popleft, queue.append
        while queue:
            rx, ry = pop()
            while parent[rx] != rx:
                rx = parent[rx]
            while parent[ry] != ry:
                ry = parent[ry]
            if rx == ry:
                continue
            if ry < rx:
                rx, ry = ry, rx
            ax, rjx, ay, rjy = acc_n[rx], rej_n[rx], acc_n[ry], rej_n[ry]
            if ax and rjy or rjx and ay:
                self.rollback()
                return None
            score += ax * ay + rjx * rjy
            # ry is absorbed into rx, the smaller representative
            record(ry)
            parent[ry] = rx
            acc_n[rx] = ax + ay
            rej_n[rx] = rjx + rjy
            kids_x = children[rx]
            for sym, dst in children[ry].items():
                old = kids_x.get(sym)
                if old is None:
                    kids_x[sym] = dst
                    record((rx, sym))
                else:
                    push((old, dst))
        return score

    def commit(self) -> None:
        self._log.clear()

    def rollback(self) -> None:
        parent, children, acc_n, rej_n = self.parent, self.children, self.acc_n, self.rej_n
        for entry in reversed(self._log):
            if entry.__class__ is tuple:
                rep, sym = entry
                del children[rep][sym]
            else:
                kept = parent[entry]
                parent[entry] = entry
                acc_n[kept] -= acc_n[entry]
                rej_n[kept] -= rej_n[entry]
        self._log.clear()


def _blue_frontier(merger: MergeState, red: list[int]) -> list[int]:
    redset = set(red)
    blues = {t for r in red for t in merger.block_transitions(r).values()} - redset
    return sorted(blues)


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
    acc_n, rej_n = merger.acc_n, merger.rej_n
    useful = deque(rep for rep in trans if acc_n[rep] or rej_n[rep])
    kept = set(useful)
    while useful:
        rep = useful.popleft()
        for src in reverse[rep]:
            if src not in kept:
                kept.add(src)
                useful.append(src)
    kept.add(root)
    transitions = {
        (rep, sym): dst
        for rep in kept
        for sym, dst in trans[rep].items()
        if dst in kept
    }
    accepting = frozenset(rep for rep in kept if acc_n[rep])
    return Dfa(frozenset(kept), alphabet, transitions, root, accepting)


def _learn(dataset: LabeledDataset, use_evidence: bool) -> Dfa:
    pta = build_pta(dataset)
    merger = MergeState(pta)
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
                assert best is not None
                _, r, blue = best
                rejected.pop(blue, None)
                if merger.trial_merge(r, blue) is None:
                    raise AssertionError("previously compatible merge failed on replay")
                merger.commit()
    return _emit_dfa(merger, pta.alphabet)


def rpni_learn(dataset: LabeledDataset) -> Dfa:
    """Classic RPNI: first compatible (red, blue) merge in shortlex order."""
    return _learn(dataset, use_evidence=False)


def edsm_learn(dataset: LabeledDataset) -> Dfa:
    """Evidence-driven merging: highest-scoring compatible pair each round,
    ties broken by shortlex (red access string, then blue)."""
    return _learn(dataset, use_evidence=True)
