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


@dataclass(frozen=True, slots=True)
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

    @classmethod
    def _checked(cls, word: Word, label: bool) -> LabeledSample:
        """A sample of a tuple and a bool the caller already holds, set
        through the slots without the coercion above."""
        sample = _new(cls)
        _set_word(sample, word)
        _set_label(sample, label)
        return sample


_new = object.__new__
_set_word, _set_label = LabeledSample.word.__set__, LabeledSample.label.__set__


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

    @classmethod
    def _checked(cls, samples: list[LabeledSample]) -> LabeledDataset:
        """Wrap samples the library knows to pass the checks above, skipping them."""
        dataset = object.__new__(cls)
        dataset.samples = samples
        return dataset

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


def _rewrite(word: Sequence[str], alphabet: VpaAlphabet, symbols: frozenset[str],
             pairs: dict[tuple[str, str], str]) -> Optional[Word]:
    """One stack walk: the word over the extended alphabet, each return fused
    with the call it pops, or ``None`` if the word pops an empty stack or
    leaves a call open. ``symbols`` is the alphabet's symbol set; a symbol
    outside it raises ``AlphabetError`` naming the first one, wherever it
    stands, also after an empty pop. ``pairs`` memoizes each ``ret|call``
    token, so the words rewritten with one dict share one string per pair."""
    internal, call, ret = alphabet.internal, alphabet.call, alphabet.ret
    out: list[str] = []
    stack: list[str] = []
    for sym in word:
        if sym in call:
            stack.append(sym)
            out.append(sym)
        elif sym in ret:
            if not stack:
                if not symbols.issuperset(word):
                    raise _foreign(word, symbols)
                return None
            key = (sym, stack.pop())
            out.append(pairs.get(key) or pairs.setdefault(key, make_return_pair(*key)))
        elif sym in internal:
            out.append(sym)
        else:
            raise _foreign(word, symbols)
    return None if stack else tuple(out)


def _foreign(word: Sequence[str], symbols: frozenset[str]) -> AlphabetError:
    """The error that names the word's first symbol outside ``symbols``."""
    sym = next(sym for sym in word if sym not in symbols)
    return AlphabetError(f"symbol {sym!r} not in alphabet")


def is_well_matched(word: Sequence[str], alphabet: VpaAlphabet) -> bool:
    """No return pops an empty stack and no call is left open. A symbol
    outside the alphabet raises ``AlphabetError``."""
    return _rewrite(word, alphabet, alphabet.symbols, {}) is not None


def to_stack_aware(word: Sequence[str], alphabet: VpaAlphabet) -> Word:
    """Rewrite a well-matched word over the extended alphabet; any other
    word raises ``TransformError``."""
    rewritten = _rewrite(word, alphabet, alphabet.symbols, {})
    if rewritten is None:
        raise TransformError(f"word {' '.join(word)!r} is not well-matched")
    return rewritten


def preprocess_dataset(dataset: LabeledDataset, alphabet: VpaAlphabet,
                       ) -> tuple[LabeledDataset, PreprocessReport]:
    """Drop non-well-matched samples and rewrite the rest, labels unchanged.
    A symbol outside the alphabet raises ``AlphabetError``."""
    report = PreprocessReport()
    kept: list[LabeledSample] = []
    symbols, pairs, make = alphabet.symbols, {}, LabeledSample._checked
    for sample in dataset:
        rewritten = _rewrite(sample.word, alphabet, symbols, pairs)
        if rewritten is not None:
            kept.append(make(rewritten, sample.label))
        elif sample.label:
            report.dropped_positive += 1
        else:
            report.dropped_negative += 1
    result = LabeledDataset._checked(kept)  # the rewrite is injective
    report.kept = len(kept)
    report.observed_pairs = {split_return_pair(sym) for sym in result.symbols()
                             if is_return_pair(sym)}
    return result, report
