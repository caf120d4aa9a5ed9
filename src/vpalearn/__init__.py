"""Passive automata learning: RPNI/EDSM for DFAs, plus a stack-aware
preprocessing pipeline that lifts the learned DFA to a visibly deterministic
pushdown automaton."""

from .automata import (
    AlphabetError,
    Dfa,
    Reason,
    Vdpa,
    VpaAlphabet,
    acceptor,
    bounded_equivalence,
    classify,
    dfa_accepts,
    render_dot,
    vdpa_accepts,
)
from .benchgen import (
    BUILTIN_NAMES,
    EvalMetrics,
    GenConfig,
    GenerationError,
    GroundTruth,
    builtin,
    evaluate,
    generate_dataset,
    split_dataset,
)
from .papni import NoWellMatchedSamplesError, PapniConfig, dfa_to_vdpa, papni_learn
from .preprocess import (
    DatasetError,
    LabeledDataset,
    LabeledSample,
    PreprocessReport,
    TransformError,
    from_stack_aware,
    is_well_matched,
    preprocess_dataset,
    to_stack_aware,
)
from .rpni import Pta, build_pta, edsm_learn, rpni_learn

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
