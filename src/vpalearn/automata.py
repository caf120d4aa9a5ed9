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
from typing import Callable, Hashable, Iterator, Optional, Sequence, Union

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
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        _check_states(self)
        for _, sym in self.transitions:
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
        _check_states(self)
        kinds = {"internal": self.alphabet.internal, "call": self.alphabet.call,
                 "return": self.alphabet.ret}
        for kind, _, sym, top, _ in edges(self):
            if sym not in kinds[kind]:
                raise ValueError(f"{sym!r} used as {kind} but not in {kind} alphabet")
            if top is not None and top not in self.alphabet.call:
                raise ValueError(f"stack top {top!r} not a call symbol")

    @property
    def size(self) -> int:
        return len(self.states)


Automaton = Union[Dfa, Vdpa]


def edges(model: Automaton) -> Iterator[tuple[str, State, str, Optional[str], State]]:
    """Every transition once, as ``(kind, src, symbol, popped top, dst)``:
    kind is ``"internal"``, ``"call"`` or ``"return"``, the top is ``None``
    except on a return, and every DFA edge is internal."""
    if isinstance(model, Dfa):
        tables = (("internal", model.transitions),)
    else:
        tables = (("internal", model.internal_trans), ("call", model.call_trans),
                  ("return", model.return_trans))
    for kind, table in tables:
        for key, dst in table.items():
            yield kind, key[0], key[1], key[2] if kind == "return" else None, dst


def _check_states(model: Automaton) -> None:
    """Freeze ``states`` and ``accepting``, and check that the initial and
    accepting states and every transition's endpoints lie in ``states``."""
    object.__setattr__(model, "states", frozenset(model.states))
    object.__setattr__(model, "accepting", frozenset(model.accepting))
    if model.initial not in model.states:
        raise ValueError("initial state not in state set")
    if not model.accepting <= model.states:
        raise ValueError("accepting states not a subset of states")
    for _, src, sym, _, dst in edges(model):
        if src not in model.states or dst not in model.states:
            raise ValueError(f"transition ({src!r}, {sym!r}) -> {dst!r} leaves the state set")


def _compile(model: Automaton) -> tuple[list[dict], list[bool], int, frozenset, frozenset]:
    """The model's run table, its edges read once: one dict of moves per
    numbered state, internal and call moves keyed by the symbol, return moves
    by ``(return, popped call)``, and a last number for a rejecting sink with
    no moves. Also the accepting flags, the initial number and the call and
    return sets, which a DFA leaves empty, so its run never stacks."""
    number = {state: i for i, state in enumerate(model.states)}
    moves: list[dict] = [{} for _ in range(len(number) + 1)]
    for _, src, sym, top, dst in edges(model):
        moves[number[src]][sym if top is None else (sym, top)] = number[dst]
    accepting = [state in model.accepting for state in number] + [False]
    split = model.alphabet if isinstance(model, Vdpa) else VpaAlphabet()
    return moves, accepting, number[model.initial], split.call, split.ret


def vdpa_accepts(model: Automaton, word: Word) -> Reason:
    """Run the word with an explicit stack of call symbols and return the
    ``Reason`` it ends with. An undefined move ends the run, so the stack
    may change before it; a symbol outside the alphabet raises
    ``AlphabetError`` when the run reaches it."""
    moves, accepting, state, calls, rets = _compile(model)
    stack: list[str] = []
    for sym in word:
        if sym in rets:
            if not stack:
                return Reason.POP_FROM_EMPTY_STACK
            nxt = moves[state].get((sym, stack.pop()))
        else:
            if sym in calls:
                stack.append(sym)
            nxt = moves[state].get(sym)
        if nxt is None:  # no symbol outside the alphabet has a move
            if sym not in model_symbols(model):
                raise AlphabetError(f"symbol {sym!r} not in alphabet")
            return Reason.UNDEFINED_TRANSITION
        state = nxt
    if stack:
        return Reason.NON_EMPTY_STACK_AT_END
    return Reason.ACCEPTED if accepting[state] else Reason.REJECTED_AT_STATE


def dfa_accepts(dfa: Dfa, word: Word) -> bool:
    """Run the word; a missing transition rejects (partial-DFA convention)."""
    return vdpa_accepts(dfa, word).accepted


def acceptor(model: Automaton) -> Callable[[Word], bool]:
    """The model's boolean verdict as a function of the word, its run table
    compiled once. A missing move, a symbol outside the alphabet, a pop from
    an empty stack and calls left open all reject. A step indexes a list
    and then a dict."""
    moves, accepting, initial, calls, rets = _compile(model)

    def accepts(word: Word) -> bool:
        state, stack = initial, []
        try:
            for sym in word:
                if sym in rets:
                    if not stack:
                        return False
                    state = moves[state][sym, stack.pop()]
                else:
                    if sym in calls:
                        stack.append(sym)
                    state = moves[state][sym]
        except KeyError:  # no move for this symbol, foreign or not
            return False
        return not stack and accepting[state]

    return accepts


def classify(model: Automaton, word: Word) -> bool:
    """Boolean verdict; out-of-alphabet symbols reject instead of raising.

    Evaluation sets may contain symbols a learned partial model never saw.
    To classify many words, build ``acceptor(model)`` once instead.
    """
    return acceptor(model)(word)


def model_symbols(model: Automaton) -> frozenset[str]:
    if isinstance(model, Dfa):
        return model.alphabet
    return model.alphabet.symbols


def bounded_equivalence(a: Automaton, b: Automaton, max_len: int,
                        ) -> Optional[tuple[str, ...]]:
    """Compare two automata on all words up to ``max_len``.

    Returns ``None`` when equivalent, otherwise the shortest (then
    lexicographically smallest) word they classify differently.

    Two VDPAs over the same internal/call/return split both reject every
    word that is not well-matched, so only well-matched words are searched
    for them. One breadth-first pass runs both compiled models side by side
    over one shared stack of pending calls; a run past an undefined move is
    in its sink. Layer n holds the words of length n in lexicographic order:
    parents in order, then symbols in sorted order. A configuration (both
    states, the stack) is kept only for the first word that reaches it. A
    later word is longer, or as long and larger, and has the same suffixes
    from there, so dropping it loses no earlier difference. A move is
    dropped where both runs are in their sinks, and for two VDPAs where it
    pops an empty stack or opens more calls than the symbols left can close.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    alpha = a.alphabet if isinstance(a, Vdpa) and isinstance(b, Vdpa) else None
    if model_symbols(a) != model_symbols(b) or (alpha is not None and b.alphabet != alpha):
        raise AlphabetError(f"alphabet mismatch: {a.alphabet} vs {b.alphabet}")
    moves_a, acc_a, init_a, calls_a, rets_a = _compile(a)
    moves_b, acc_b, init_b, calls_b, rets_b = _compile(b)
    sink_a, sink_b = len(moves_a) - 1, len(moves_b) - 1
    # the stack follows the pushdown model's split; a DFA never reads it
    pda_a, pda_b = bool(rets_a), bool(rets_b)
    calls, rets = calls_a | calls_b, rets_a | rets_b
    steps = [(sym, (sym in calls) - (sym in rets)) for sym in sorted(model_symbols(a))]
    start = (init_a, init_b, ())
    layer, seen = [start + ((),)], {start}
    for room in range(max_len, -1, -1):  # symbols that may follow this layer's words
        children = []
        for qa, qb, stack, word in layer:
            if (acc_a[qa] and not (pda_a and stack)) != (acc_b[qb] and not (pda_b and stack)):
                return word
            for sym, delta in steps if room else ():
                if alpha is not None and not 0 <= len(stack) + delta < room:
                    continue
                key, after = sym, stack
                if delta > 0:
                    after = stack + (sym,)
                elif delta < 0:
                    # popping an empty stack looks up top None, which no return move has
                    key, after = (sym, stack[-1] if stack else None), stack[:-1]
                na = moves_a[qa].get(key if pda_a else sym, sink_a)
                nb = moves_b[qb].get(key if pda_b else sym, sink_b)
                if na == sink_a and nb == sink_b or (na, nb, after) in seen:
                    continue
                seen.add((na, nb, after))
                children.append((na, nb, after, word + (sym,)))
        layer = children
    return None


def canonical_names(model: Automaton) -> dict[State, str]:
    """Names ``s0``, ``s1``, ... in BFS order from the initial state, edges
    taken in sorted symbol order; unreachable states follow, sorted by repr."""
    successors: dict[State, list[tuple[str, State]]] = {s: [] for s in model.states}
    for _, src, sym, top, dst in edges(model):
        successors[src].append((sym if top is None else f"{sym} {top}", dst))
    order: list[State] = []
    seen = {model.initial}
    queue = deque([model.initial])
    while queue:
        state = queue.popleft()
        order.append(state)
        for _, dst in sorted(successors[state], key=lambda e: e[0]):
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
    arrows: list[tuple[str, str, str]] = []
    for kind, src, sym, top, dst in edges(model):
        if kind == "call":
            sym = f"{sym} / push({sym})"
        elif kind == "return":
            sym = f"{sym} / pop({top})"
        arrows.append((names[src], names[dst], sym))
    for src, dst, label in sorted(arrows):
        # a symbol may hold '"' or '\'; state labels are the names s0, s1, ...
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {src} -> {dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
