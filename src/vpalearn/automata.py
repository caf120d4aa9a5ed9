"""Automaton data model and execution semantics.

DFAs are partial: a missing transition rejects. VDPAs carry an explicit
stack of call symbols and accept only in an accepting state with an empty
stack; the empty stack itself plays the role of the bottom-of-stack marker,
no sentinel symbol is materialized.

Symbols are plain string tokens. A return symbol annotated with the call
symbol it pops is rendered as a single ``ret|call`` token (see
:mod:`vpalearn.preprocess`), so a DFA over the stack-aware alphabet is an
ordinary DFA over strings.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional, Sequence, Union

State = Hashable
Word = Sequence[str]

PAIR_SEP = "|"


class AlphabetError(ValueError):
    """Invalid alphabet: bad symbol, overlapping partitions, mismatch."""


def validate_symbol(token: str) -> str:
    """A symbol is a non-empty token without whitespace or ``#``, which the
    text formats read as a separator and as a comment start."""
    if not token or "#" in token or any(ch.isspace() for ch in token):
        raise AlphabetError(f"invalid symbol {token!r}: must be non-empty, no whitespace, no '#'")
    return token


def is_return_pair(token: str) -> bool:
    """True if the token is a rendered ``ret|call`` stack-aware pair."""
    return PAIR_SEP in token


def make_return_pair(ret: str, call: str) -> str:
    return f"{ret}{PAIR_SEP}{call}"


def split_return_pair(token: str) -> tuple[str, str]:
    ret, sep, call = token.partition(PAIR_SEP)
    if not sep or not ret or not call:
        raise AlphabetError(f"malformed stack-aware symbol {token!r}")
    return ret, call


@dataclass(frozen=True)
class VpaAlphabet:
    """Partition of the input symbols into internal / call / return sets.

    Call symbols push themselves onto the stack, return symbols pop, internal
    symbols leave the stack alone. The three sets must be pairwise disjoint,
    and call/return must be both empty or both non-empty.
    """

    internal: frozenset[str] = frozenset()
    call: frozenset[str] = frozenset()
    ret: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        # normalize to frozensets so callers may pass any iterable
        object.__setattr__(self, "internal", frozenset(self.internal))
        object.__setattr__(self, "call", frozenset(self.call))
        object.__setattr__(self, "ret", frozenset(self.ret))
        for sym in itertools.chain(self.internal, self.call, self.ret):
            validate_symbol(sym)
            if PAIR_SEP in sym:
                raise AlphabetError(f"symbol {sym!r} may not contain {PAIR_SEP!r}")
        if self.internal & self.call or self.internal & self.ret or self.call & self.ret:
            raise AlphabetError("alphabet partitions must be pairwise disjoint")
        if bool(self.call) != bool(self.ret):
            raise AlphabetError("call and return alphabets must be both empty or both non-empty")

    @property
    def symbols(self) -> frozenset[str]:
        return self.internal | self.call | self.ret

    def stack_aware_symbols(self) -> frozenset[str]:
        """Every representable symbol of the extended alphabet."""
        pairs = {make_return_pair(r, c) for r in self.ret for c in self.call}
        return self.internal | self.call | frozenset(pairs)


@dataclass(frozen=True)
class Dfa:
    """Partial deterministic finite automaton over string symbols."""

    states: frozenset[State]
    alphabet: frozenset[str]
    transitions: dict[tuple[State, str], State]
    initial: State
    accepting: frozenset[State]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if self.initial not in self.states:
            raise ValueError("initial state not in state set")
        if not self.accepting <= self.states:
            raise ValueError("accepting states not a subset of states")
        for (src, sym), dst in self.transitions.items():
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition ({src!r}, {sym!r}) -> {dst!r} leaves the state set")
            if sym not in self.alphabet:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")

    @property
    def size(self) -> int:
        return len(self.states)


class Reason(enum.Enum):
    ACCEPTED = "Accepted"
    REJECTED_AT_STATE = "RejectedAtState"
    POP_FROM_EMPTY_STACK = "PopFromEmptyStack"
    NON_EMPTY_STACK_AT_END = "NonEmptyStackAtEnd"
    UNDEFINED_TRANSITION = "UndefinedTransition"

    @property
    def accepted(self) -> bool:
        return self is Reason.ACCEPTED


@dataclass(frozen=True)
class Vdpa:
    """Visibly deterministic pushdown automaton with empty-stack acceptance.

    Call transitions push their own symbol; return transitions are keyed by
    (state, return symbol, expected stack top) and pop that top.
    """

    states: frozenset[State]
    alphabet: VpaAlphabet
    internal_trans: dict[tuple[State, str], State]
    call_trans: dict[tuple[State, str], State]
    return_trans: dict[tuple[State, str, str], State]
    initial: State
    accepting: frozenset[State]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if self.initial not in self.states:
            raise ValueError("initial state not in state set")
        if not self.accepting <= self.states:
            raise ValueError("accepting states not a subset of states")
        for (src, sym), dst in self.internal_trans.items():
            self._check_endpoint(src, dst)
            if sym not in self.alphabet.internal:
                raise ValueError(f"{sym!r} used as internal but not in internal alphabet")
        for (src, sym), dst in self.call_trans.items():
            self._check_endpoint(src, dst)
            if sym not in self.alphabet.call:
                raise ValueError(f"{sym!r} used as call but not in call alphabet")
        for (src, sym, top), dst in self.return_trans.items():
            self._check_endpoint(src, dst)
            if sym not in self.alphabet.ret:
                raise ValueError(f"{sym!r} used as return but not in return alphabet")
            if top not in self.alphabet.call:
                raise ValueError(f"stack top {top!r} not a call symbol")

    def _check_endpoint(self, src: State, dst: State) -> None:
        if src not in self.states or dst not in self.states:
            raise ValueError("transition endpoint outside the state set")

    @property
    def size(self) -> int:
        return len(self.states)


Automaton = Union[Dfa, Vdpa]


def dfa_accepts(dfa: Dfa, word: Word) -> bool:
    """Run the word; a missing transition rejects (partial-DFA convention)."""
    state = dfa.initial
    for sym in word:
        if sym not in dfa.alphabet:
            raise AlphabetError(f"symbol {sym!r} not in DFA alphabet")
        nxt = dfa.transitions.get((state, sym))
        if nxt is None:
            return False
        state = nxt
    return state in dfa.accepting


def vdpa_accepts(vdpa: Vdpa, word: Word) -> Reason:
    """Simulate the word with an explicit stack of call symbols; an
    undefined transition ends the run, so the stack may change before it."""
    internal, call, ret = vdpa.alphabet.internal, vdpa.alphabet.call, vdpa.alphabet.ret
    state = vdpa.initial
    stack: list[str] = []
    for sym in word:
        if sym in internal:
            nxt = vdpa.internal_trans.get((state, sym))
        elif sym in call:
            nxt = vdpa.call_trans.get((state, sym))
            stack.append(sym)
        elif sym in ret:
            if not stack:
                return Reason.POP_FROM_EMPTY_STACK
            nxt = vdpa.return_trans.get((state, sym, stack.pop()))
        else:
            raise AlphabetError(f"symbol {sym!r} not in alphabet")
        if nxt is None:
            return Reason.UNDEFINED_TRANSITION
        state = nxt
    if stack:
        return Reason.NON_EMPTY_STACK_AT_END
    return Reason.ACCEPTED if state in vdpa.accepting else Reason.REJECTED_AT_STATE


def classify(model: Automaton, word: Word) -> bool:
    """Boolean verdict; out-of-alphabet symbols reject instead of raising.

    Evaluation sets may contain symbols a learned partial model never saw.
    """
    try:
        if isinstance(model, Dfa):
            return dfa_accepts(model, word)
        return vdpa_accepts(model, word).accepted
    except AlphabetError:
        return False


def model_symbols(model: Automaton) -> frozenset[str]:
    if isinstance(model, Dfa):
        return model.alphabet
    return model.alphabet.symbols


def _enumerate_words(symbols: Sequence[str], max_len: int,
                     alpha: Optional[VpaAlphabet]) -> Iterator[tuple[str, ...]]:
    """Shortlex enumeration. With a VPA alphabet, prune to words that can
    still extend to a well-matched word (counter never negative, never larger
    than the remaining length)."""
    order = sorted(symbols)
    # counter change per symbol: a call raises it, a return lowers it
    delta = {sym: 0 if alpha is None else (sym in alpha.call) - (sym in alpha.ret)
             for sym in order}
    for length in range(max_len + 1):
        # depth-first in lexicographic order at fixed length
        def extend(prefix: tuple[str, ...], counter: int) -> Iterator[tuple[str, ...]]:
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


def bounded_equivalence(a: Automaton, b: Automaton, max_len: int,
                        ) -> Optional[tuple[str, ...]]:
    """Compare two automata on all words up to ``max_len``.

    Returns ``None`` when equivalent, otherwise the shortest (then
    lexicographically smallest) word they classify differently.

    Two VDPAs over the same internal/call/return split both reject every
    word that is not well-matched, so only well-matched words are
    enumerated for them.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    alpha = a.alphabet if isinstance(a, Vdpa) and isinstance(b, Vdpa) else None
    if model_symbols(a) != model_symbols(b) or (alpha is not None and b.alphabet != alpha):
        raise AlphabetError(f"alphabet mismatch: {a.alphabet} vs {b.alphabet}")
    for word in _enumerate_words(sorted(model_symbols(a)), max_len, alpha):
        if classify(a, word) != classify(b, word):
            return word
    return None


def canonical_names(model: Automaton) -> dict[State, str]:
    """Names ``s0``, ``s1``, ... in BFS order from the initial state, edges
    taken in sorted symbol order; unreachable states follow, sorted by repr."""
    if isinstance(model, Dfa):
        edges: dict[State, list[tuple[str, State]]] = {s: [] for s in model.states}
        for (src, sym), dst in model.transitions.items():
            edges[src].append((sym, dst))
    else:
        edges = {s: [] for s in model.states}
        for (src, sym), dst in model.internal_trans.items():
            edges[src].append((sym, dst))
        for (src, sym), dst in model.call_trans.items():
            edges[src].append((sym, dst))
        for (src, sym, top), dst in model.return_trans.items():
            edges[src].append((f"{sym} {top}", dst))
    order: list[State] = []
    seen = {model.initial}
    queue = deque([model.initial])
    while queue:
        state = queue.popleft()
        order.append(state)
        for _, dst in sorted(edges[state], key=lambda e: e[0]):
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    order.extend(sorted((s for s in model.states if s not in seen), key=repr))
    return {state: f"s{i}" for i, state in enumerate(order)}


def render_dot(model: Automaton) -> str:
    """DOT digraph: double circles for accepting states, a hidden node marks
    the initial state, call/return edges carry push/pop annotations."""
    names = canonical_names(model)
    lines = ["digraph automaton {", "  rankdir=LR;",
             '  __start [shape=none, label=""];']
    for state, name in names.items():
        shape = "doublecircle" if state in model.accepting else "circle"
        lines.append(f'  {name} [shape={shape}, label="{name}"];')
    lines.append(f"  __start -> {names[model.initial]};")
    edges: list[tuple[str, str, str]] = []
    if isinstance(model, Dfa):
        for (src, sym), dst in model.transitions.items():
            edges.append((names[src], names[dst], sym))
    else:
        for (src, sym), dst in model.internal_trans.items():
            edges.append((names[src], names[dst], sym))
        for (src, sym), dst in model.call_trans.items():
            edges.append((names[src], names[dst], f"{sym} / push({sym})"))
        for (src, sym, top), dst in model.return_trans.items():
            edges.append((names[src], names[dst], f"{sym} / pop({top})"))
    for src, dst, label in sorted(edges):
        # a symbol may hold '"' or '\'; state labels are the names s0, s1, ...
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {src} -> {dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
