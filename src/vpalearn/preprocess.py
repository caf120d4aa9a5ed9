"""Dataset model and the stack-aware preprocessing front end.

Non-well-matched words can never be accepted by a pushdown model with
empty-stack acceptance, so they are filtered out before learning. The
surviving words are rewritten over the extended alphabet in which each
return symbol is fused with the call symbol it pops (token ``ret|call``),
which flattens the stack behavior into the symbol stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .automata import (
    AlphabetError,
    VpaAlphabet,
    is_return_pair,
    make_return_pair,
    split_return_pair,
)

Word = tuple[str, ...]


class DatasetError(ValueError):
    """Inconsistent dataset: the same word occurs with both labels."""


class TransformError(ValueError):
    """Word violates the well-matchedness precondition of the transform."""


@dataclass(frozen=True)
class LabeledSample:
    word: Word
    label: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", tuple(self.word))
        # the learners test `label is True`, so a 1 must become True here
        if type(self.label) is not bool:
            if not isinstance(self.label, int) or self.label not in (0, 1):
                raise ValueError(f"label must be a bool or 0/1, got {self.label!r}")
            object.__setattr__(self, "label", bool(self.label))


@dataclass
class LabeledDataset:
    samples: list[LabeledSample]

    def __post_init__(self) -> None:
        self.samples = [s if isinstance(s, LabeledSample) else LabeledSample(*s)
                        for s in self.samples]
        seen: dict[Word, bool] = {}
        for s in self.samples:
            if seen.setdefault(s.word, s.label) != s.label:
                raise DatasetError(f"conflicting labels for word {' '.join(s.word) or 'ε'!r}")

    def __iter__(self):
        return iter(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    def symbols(self) -> frozenset[str]:
        return frozenset().union(*(s.word for s in self.samples))

    def positives(self) -> list[LabeledSample]:
        return [s for s in self.samples if s.label]


@dataclass
class PreprocessReport:
    """What filtering removed, plus which (return, call) pairs were seen.

    A dropped positive contradicts the premise that positives come from a
    pushdown source; it is surfaced as an anomaly rather than an error.
    """

    dropped_positive: int = 0
    dropped_negative: int = 0
    kept: int = 0
    observed_pairs: set[tuple[str, str]] = field(default_factory=set)

    @property
    def dropped(self) -> int:
        return self.dropped_positive + self.dropped_negative

    @property
    def has_anomaly(self) -> bool:
        return self.dropped_positive > 0

    def lines(self) -> list[str]:
        out = [
            f"kept: {self.kept}",
            f"dropped_positive: {self.dropped_positive}",
            f"dropped_negative: {self.dropped_negative}",
            "observed_pairs: " + " ".join(
                sorted(make_return_pair(r, c) for r, c in self.observed_pairs)),
        ]
        if self.has_anomaly:
            out.append("anomaly: positive samples were not well-matched")
        return out


def _rewrite(word: Sequence[str], alphabet: VpaAlphabet) -> Optional[Word]:
    """One stack walk: the word over the extended alphabet, each return fused
    with the call it pops, or ``None`` if the word pops an empty stack or
    leaves a call open. A symbol outside the alphabet raises ``AlphabetError``."""
    internal, call, ret = alphabet.internal, alphabet.call, alphabet.ret
    out: list[str] = []
    stack: list[str] = []
    for sym in word:
        if sym in call:
            stack.append(sym)
            out.append(sym)
        elif sym in ret:
            if not stack:
                return None
            out.append(make_return_pair(sym, stack.pop()))
        elif sym in internal:
            out.append(sym)
        else:
            raise AlphabetError(f"symbol {sym!r} not in alphabet")
    return None if stack else tuple(out)


def is_well_matched(word: Sequence[str], alphabet: VpaAlphabet) -> bool:
    """No return pops an empty stack and no call is left open."""
    return _rewrite(word, alphabet) is not None


def to_stack_aware(word: Sequence[str], alphabet: VpaAlphabet) -> Word:
    """Rewrite a well-matched word over the extended alphabet; any other
    word raises ``TransformError``."""
    rewritten = _rewrite(word, alphabet)
    if rewritten is None:
        raise TransformError(f"word {' '.join(word)!r} is not well-matched")
    return rewritten


def from_stack_aware(word: Sequence[str]) -> Word:
    """Inverse of the transform: drop the call annotation from each pair."""
    return tuple(split_return_pair(sym)[0] if is_return_pair(sym) else sym
                 for sym in word)


def preprocess_dataset(dataset: LabeledDataset, alphabet: VpaAlphabet,
                       ) -> tuple[LabeledDataset, PreprocessReport]:
    """Drop non-well-matched samples and rewrite the rest, labels unchanged."""
    report = PreprocessReport()
    kept: list[LabeledSample] = []
    for sample in dataset:
        rewritten = _rewrite(sample.word, alphabet)
        if rewritten is not None:
            kept.append(LabeledSample(rewritten, sample.label))
        elif sample.label:
            report.dropped_positive += 1
        else:
            report.dropped_negative += 1
    result = LabeledDataset(kept)
    report.kept = len(kept)
    report.observed_pairs = {split_return_pair(sym) for sym in result.symbols()
                             if is_return_pair(sym)}
    return result, report
