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
and whose models these equal byte for byte. The model emitted here is trim by
construction, so that prune has nothing to remove.

EDSM re-scores every (red, blue) pair each round, so it remembers the
pairs that conflicted, by PTA node ids, and never tries them again. This is
sound because the partition only coarsens: the blocks holding those nodes
later are supersets of the ones that conflicted, and the fold of a coarser
partition identifies at least the same nodes, so it meets the same
conflict. A round also ends at the first blue with no compatible red, the
one it promotes, without scoring the blues after it.

Both policies reject most conflicting trials without folding. A merge state
remembers the column paths of its last few conflicts: the symbols that led
from a trial's two blocks to the pair of blocks whose labels clashed. Before
folding, a trial walks each path from both of its blocks through the current
quotient. If both walks exist and end in blocks of opposite labels, the
trial is rejected as it stands. This is sound because the fold pairs the
successors of every identified pair on each symbol that both have: it would
identify the two blocks at the ends of the walks, and so conflict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .automata import Dfa
from .preprocess import DatasetError, LabeledDataset

# conflict witnesses a MergeState remembers: lists of 2, 4 and 8 saved alike
_WITNESSES = 4


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
        # column paths of recent conflicts, most recently useful first, and
        # the bits a column takes in the path each fold queue entry carries
        self._witnesses: list[tuple[int, ...]] = []
        self._bits = max(1, (len(self.symbols) - 1).bit_length())

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] >= 0:
            x = parent[x]
        return x

    def trial_merge(self, a: int, b: int) -> Optional[int]:
        """Union the blocks of a and b and cascade determinization folds.

        Returns the evidence score (same-label node pairs brought together)
        on success, leaving the merge applied; rolls everything back and
        returns None on a label conflict.

        Before folding, it walks each remembered conflict witness from both
        blocks (see the module docstring). When both walks end in blocks of
        opposite labels, the fold would pair them and conflict, so it returns
        None without touching any field or the undo log.
        """
        # the hot loop of both learners: attributes bound to locals, find inlined
        parent, child, count, k = self.parent, self.child, self.count, len(self.symbols)
        columns = range(k)
        log = self._log
        log.clear()
        while parent[a] >= 0:
            a = parent[a]
        while parent[b] >= 0:
            b = parent[b]
        witnesses = self._witnesses
        for path in witnesses:
            x, y = a, b
            for i in path:
                x, y = child[x * k + i], child[y * k + i]
                if not (x and y):
                    break
                while parent[x] >= 0:
                    x = parent[x]
                while parent[y] >= 0:
                    y = parent[y]
            else:
                if count[x] * count[y] < 0:
                    witnesses.remove(path)
                    witnesses.insert(0, path)
                    return None
        record = log.append
        bits = self._bits
        score = 0
        # each entry carries its column path from (a, b): a leading 1 bit,
        # then `bits` bits per column
        queue: deque[tuple[int, int, int]] = deque([(a, b, 1)])
        pop, push = queue.popleft, queue.append
        while queue:
            rx, ry, path = pop()
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
                steps, mask = [], (1 << bits) - 1
                while path > 1:
                    steps.append(path & mask)
                    path >>= bits
                witnesses.insert(0, tuple(reversed(steps)))
                del witnesses[_WITNESSES:]
                return None
            score += pairs
            # ry is absorbed into rx, the smaller representative
            record(ry)
            parent[ry] = rx
            count[rx] = cx + cy
            bx, by = rx * k, ry * k
            path <<= bits
            for i in columns:
                dst = child[by + i]
                if dst:
                    slot = bx + i
                    old = child[slot]
                    if old:
                        push((old, dst, path | i))
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
    """The blocks one move from a red block that are not red, in shortlex order."""
    find, child, k = merger.find, merger.child, len(merger.symbols)
    return sorted({find(dst) for r in red for dst in child[r * k:r * k + k] if dst} - set(red))


def _emit_dfa(merger: MergeState, red: list[int]) -> Dfa:
    """The quotient on the final reds. With no blue left they are exactly the
    blocks reachable from the root block 0, and every block holds a prefix of
    a training word, so reaches a labeled block: the model is trim as it is."""
    find, child, symbols, k = merger.find, merger.child, merger.symbols, len(merger.symbols)
    moves = {(rep, sym): find(dst) for rep in red
             for sym, dst in zip(symbols, child[rep * k:rep * k + k]) if dst}
    accepting = frozenset(rep for rep in red if merger.count[rep] > 0)
    return Dfa(frozenset(red), frozenset(symbols), moves, 0, accepting)


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
    return _emit_dfa(merger, red)


def rpni_learn(dataset: LabeledDataset) -> Dfa:
    """Classic RPNI: first compatible (red, blue) merge in shortlex order."""
    return _learn(dataset, use_evidence=False)


def edsm_learn(dataset: LabeledDataset) -> Dfa:
    """Evidence-driven merging: highest-scoring compatible pair, ties by shortlex red then blue."""
    return _learn(dataset, use_evidence=True)
