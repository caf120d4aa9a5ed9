"""Plain-text file formats: automata, datasets, alphabets.

Automaton format (round-trippable):

    vdpa                      # or: dfa
    initial: s0
    accepting: s1
    s0 ( push -> s0           # call transition, pushes its own symbol
    s0 ) pop ( -> s1          # return transition, pops the given top
    s1 + -> s0                # internal / plain transition

``#`` starts a comment; tokens are whitespace-separated. The alphabet
partition of a pushdown model is recorded in comment headers so symbols
without transitions survive a round trip.

Dataset format: one sample per line, ``+``/``-`` then the word's tokens.
Alphabet format: three lines ``internal:``, ``call:``, ``return:``.
Only text goes in and out here; callers read and write the files.
"""

from __future__ import annotations

import io

from .automata import (
    AlphabetError,
    Automaton,
    Dfa,
    Vdpa,
    VpaAlphabet,
    canonical_names,
    edges,
    validate_symbol,
)
from .preprocess import LabeledDataset, LabeledSample


class FormatError(ValueError):
    """Malformed input file."""


def _check_symbols(symbols) -> None:
    """Raise FormatError for a token that would not parse back as itself."""
    for sym in sorted(symbols):
        try:
            validate_symbol(sym)
        except AlphabetError as exc:
            raise FormatError(str(exc)) from exc


def _content_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((i, line))
    return lines


def dump_automaton(model: Automaton) -> str:
    """Raises FormatError for a DFA symbol that would not parse back as itself."""
    names = canonical_names(model)
    out = io.StringIO()
    if isinstance(model, Dfa):
        _check_symbols(model.alphabet)
        out.write("dfa\n")
        out.write("# alphabet: " + " ".join(sorted(model.alphabet)) + "\n")
    else:
        out.write("vdpa\n")
        out.write("# internal: " + " ".join(sorted(model.alphabet.internal)) + "\n")
        out.write("# call: " + " ".join(sorted(model.alphabet.call)) + "\n")
        out.write("# return: " + " ".join(sorted(model.alphabet.ret)) + "\n")
    out.write(f"initial: {names[model.initial]}\n")
    out.write("accepting: " + " ".join(n for s, n in names.items() if s in model.accepting) + "\n")
    rows: list[str] = []
    for kind, src, sym, top, dst in edges(model):
        if kind == "call":
            sym += " push"
        elif kind == "return":
            sym += f" pop {top}"
        rows.append(f"{names[src]} {sym} -> {names[dst]}")
    out.write("\n".join(sorted(rows)) + ("\n" if rows else ""))
    return out.getvalue()


def _comment_alphabet(text: str) -> dict[str, list[str]]:
    found = {}
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped.startswith("#"):
            continue
        body = stripped.lstrip("#").strip()
        for key in ("alphabet", "internal", "call", "return"):
            if body.startswith(key + ":"):
                found[key] = body[len(key) + 1:].split()
    return found


def parse_automaton(text: str) -> Automaton:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty automaton file")
    _, header = lines[0]
    if header not in ("dfa", "vdpa"):
        raise FormatError(f"unknown automaton kind {header!r}")
    if len(lines) < 3:
        raise FormatError("automaton file needs initial and accepting lines")
    (_, init_line), (_, acc_line) = lines[1], lines[2]
    if not init_line.startswith("initial:"):
        raise FormatError("second line must be 'initial: <state>'")
    if not acc_line.startswith("accepting:"):
        raise FormatError("third line must be 'accepting: <state> ...'")
    # the states follow the colon, with or without a space
    initial_toks = init_line.partition(":")[2].split()
    if len(initial_toks) != 1:
        raise FormatError("initial line must name exactly one state")
    initial = initial_toks[0]
    accepting = set(acc_line.partition(":")[2].split())
    states = {initial} | accepting
    comments = _comment_alphabet(text)

    plain: dict[tuple[str, str], str] = {}
    push: dict[tuple[str, str], str] = {}
    pop: dict[tuple[str, str, str], str] = {}
    for lineno, line in lines[3:]:
        toks = line.split()
        if len(toks) >= 2 and toks[-2] == "->":
            dst = toks[-1]
            head = toks[:-2]
        else:
            raise FormatError(f"line {lineno}: expected '... -> <state>'")
        if len(head) == 2:
            src, sym = head
            table, key = plain, (src, sym)
        elif len(head) == 3 and head[2] == "push":
            src, sym = head[0], head[1]
            table, key = push, (src, sym)
        elif len(head) == 4 and head[2] == "pop":
            src, sym, top = head[0], head[1], head[3]
            table, key = pop, (src, sym, top)
        else:
            raise FormatError(f"line {lineno}: unrecognized transition {line!r}")
        if key in table and table[key] != dst:
            raise FormatError(f"line {lineno}: nondeterministic transition for {key!r}")
        table[key] = dst
        states.update((head[0], dst))

    if header == "dfa":
        if push or pop:
            raise FormatError("push/pop transitions are not allowed in a dfa")
        # a row token is valid once split out; a header token need not be
        alphabet = set(comments.get("alphabet", [])) | {sym for _, sym in plain}
        _check_symbols(alphabet)
        return Dfa(frozenset(states), frozenset(alphabet), dict(plain),
                   initial, frozenset(accepting))
    internal = set(comments.get("internal", [])) | {sym for _, sym in plain}
    call = set(comments.get("call", [])) | {sym for _, sym in push} | {t for _, _, t in pop}
    ret = set(comments.get("return", [])) | {sym for _, sym, _ in pop}
    try:
        alphabet = VpaAlphabet(frozenset(internal), frozenset(call), frozenset(ret))
        return Vdpa(frozenset(states), alphabet, dict(plain), dict(push),
                    dict(pop), initial, frozenset(accepting))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def dump_dataset(dataset: LabeledDataset) -> str:
    """Raises FormatError for a word token that would not parse back as itself."""
    _check_symbols(dataset.symbols())
    lines = []
    for sample in dataset:
        mark = "+" if sample.label else "-"
        lines.append(" ".join((mark,) + sample.word).rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def parse_dataset(text: str) -> LabeledDataset:
    samples, make = [], LabeledSample._checked
    for lineno, line in _content_lines(text):
        toks = line.split()
        if toks[0] not in ("+", "-"):
            raise FormatError(f"line {lineno}: expected '+' or '-' label, got {toks[0]!r}")
        samples.append(make(tuple(toks[1:]), toks[0] == "+"))
    return LabeledDataset(samples)  # a file's words may conflict


def dump_alphabet(alphabet: VpaAlphabet) -> str:
    return (
        "internal: " + " ".join(sorted(alphabet.internal)) + "\n"
        "call: " + " ".join(sorted(alphabet.call)) + "\n"
        "return: " + " ".join(sorted(alphabet.ret)) + "\n"
    )


def parse_alphabet(text: str) -> VpaAlphabet:
    groups: dict[str, list[str]] = {}
    for lineno, line in _content_lines(text):
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in ("internal", "call", "return"):
            raise FormatError(f"line {lineno}: expected 'internal:'/'call:'/'return:' line")
        if key in groups:
            raise FormatError(f"line {lineno}: duplicate {key!r} line")
        groups[key] = rest.split()
    missing = {"internal", "call", "return"} - groups.keys()
    if missing:
        raise FormatError(f"alphabet file missing lines: {', '.join(sorted(missing))}")
    try:
        return VpaAlphabet(frozenset(groups["internal"]), frozenset(groups["call"]),
                           frozenset(groups["return"]))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
