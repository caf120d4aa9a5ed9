"""Pushdown-model inference pipeline.

Filter to well-matched samples, rewrite them over the stack-aware alphabet,
learn an ordinary DFA there, then lift the DFA to a pushdown automaton by
reinterpreting its edges: plain call symbols push themselves and paired
``ret|call`` symbols pop their call. States and transitions are untouched
by the lift; only the execution semantics change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .automata import (
    Dfa,
    Vdpa,
    VpaAlphabet,
    is_return_pair,
    split_return_pair,
)
from .preprocess import (
    LabeledDataset,
    PreprocessReport,
    preprocess_dataset,
)
from .rpni import edsm_learn, rpni_learn

Backend = Literal["rpni", "edsm"]

_BACKENDS = {"rpni": rpni_learn, "edsm": edsm_learn}


class NoWellMatchedSamplesError(ValueError):
    """Filtering removed every sample; nothing left to learn from."""


@dataclass(frozen=True)
class PapniConfig:
    backend: Backend = "rpni"

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")


def dfa_to_vdpa(dfa: Dfa, alphabet: VpaAlphabet) -> Vdpa:
    """Re-label a DFA over the stack-aware alphabet as a pushdown automaton.

    Same states, initial and accepting sets; each edge moves to the
    transition table its symbol class dictates. No minimization, no pruning.
    ``Vdpa`` raises ``ValueError`` for an edge off the alphabet.
    """
    internal_trans: dict = {}
    call_trans: dict = {}
    return_trans: dict = {}
    for (src, sym), dst in dfa.transitions.items():
        if is_return_pair(sym):
            return_trans[(src, *split_return_pair(sym))] = dst
        elif sym in alphabet.call:
            call_trans[(src, sym)] = dst
        else:
            internal_trans[(src, sym)] = dst
    return Vdpa(
        states=dfa.states,
        alphabet=alphabet,
        internal_trans=internal_trans,
        call_trans=call_trans,
        return_trans=return_trans,
        initial=dfa.initial,
        accepting=dfa.accepting,
    )


def papni_learn(dataset: LabeledDataset, alphabet: VpaAlphabet,
                cfg: PapniConfig = PapniConfig(),
                ) -> tuple[Vdpa, PreprocessReport]:
    """Full pipeline: filter, transform, learn over the extended alphabet,
    lift. A dataset symbol outside the alphabet raises ``AlphabetError``.
    With empty call/return sets the filter and the rewrite are the identity
    and the model has internal transitions only."""
    kept, report = preprocess_dataset(dataset, alphabet)
    if not kept.samples:
        raise NoWellMatchedSamplesError("no well-matched samples after filtering")
    return dfa_to_vdpa(_BACKENDS[cfg.backend](kept), alphabet), report
