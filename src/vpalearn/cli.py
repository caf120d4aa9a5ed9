"""Command-line front end.

Subcommands: learn, generate, eval, check, benchmark, convert.

Exit codes are a stable contract:
    0  success
    2  malformed input (files, unknown grammar, bad flags) or an unwritable output
    3  data inconsistency (conflicting labels)
    4  no well-matched samples left after filtering
    5  generation failure (balanced-mode retry budget exhausted)

Every run prints a manifest; commands that write files also write it next
to their main output. Manifests carry no timestamps, so identical inputs
and seeds produce identical output bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from statistics import fmean, pstdev
from typing import Optional, Sequence

from . import benchgen, formats
from .automata import AlphabetError, Vdpa, render_dot
from .benchgen import _MODES, GenConfig, GenerationError, GroundTruth, builtin
from .papni import _BACKENDS, NoWellMatchedSamplesError, PapniConfig, papni_learn
from .preprocess import DatasetError, is_well_matched
from .rpni import rpni_learn

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFLICT = 3
EXIT_NO_SAMPLES = 4
EXIT_GENERATION = 5

DEFAULT_SEED = 1

# the exit code of a library error that reaches main; a subclass exits as its base
_EXIT_CODES = {DatasetError: EXIT_CONFLICT, NoWellMatchedSamplesError: EXIT_NO_SAMPLES,
               GenerationError: EXIT_GENERATION, formats.FormatError: EXIT_INPUT,
               AlphabetError: EXIT_INPUT}


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _manifest(entries: list[tuple[str, object]], out_path: Optional[Path]) -> None:
    text = "".join(f"{key}: {value}\n" for key, value in entries)
    sys.stdout.write(text)
    if out_path is not None:
        _write(out_path, text, "manifest")


def _load(parse, path: str, what: str):
    """Read a file and parse it with a ``formats`` parser; its errors exit by ``_EXIT_CODES``."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise _CliError(EXIT_INPUT, f"cannot read {what} {path!r}: {exc.strerror}")
    except UnicodeDecodeError:
        raise _CliError(EXIT_INPUT, f"{what} {path!r} is not UTF-8 text")


def _write(path: str | Path, text: str, what: str, mode: str = "w") -> None:
    """Write (or with mode "a", append to) a CLI output file; a failure exits 2."""
    try:
        with open(path, mode) as out:
            out.write(text)
    except OSError as exc:
        raise _CliError(EXIT_INPUT, f"cannot write {what} {str(path)!r}: {exc.strerror}")


def _probe(*outputs: tuple[str | Path, str]) -> None:
    """Find an unwritable (path, what) output before any work. Appending nothing
    leaves a file as it is, and one the probe made goes again, so a failed run
    leaves no output behind."""
    for path, what in outputs:
        existed = os.path.lexists(path)
        _write(path, "", what, mode="a")
        if not existed:
            os.remove(path)


def _load_dataset(path: str):
    dataset = _load(formats.parse_dataset, path, "dataset")
    if not dataset.samples:
        raise _CliError(EXIT_INPUT, f"dataset {path!r} is empty")
    return dataset


def _ground_truth(args) -> GroundTruth:
    if args.grammar is not None:
        try:
            return builtin(args.grammar)
        except KeyError as exc:
            raise _CliError(EXIT_INPUT, str(exc))
    model = _load(formats.parse_automaton, args.automaton, "automaton")
    if not isinstance(model, Vdpa):
        raise _CliError(EXIT_INPUT, "ground-truth automaton must be a vdpa")
    return GroundTruth(Path(args.automaton).stem, model)


def cmd_learn(args) -> int:
    dataset = _load_dataset(args.dataset)
    alphabet = _load(formats.parse_alphabet, args.alphabet, "alphabet")
    for sym in dataset.symbols():
        if sym not in alphabet.symbols:
            raise _CliError(EXIT_INPUT, f"dataset symbol {sym!r} not in alphabet")
    out = Path(args.out)
    _probe((out, "model"))  # first: a path with no file name is refused as a directory
    dot, manifest = (out.with_suffix(out.suffix + ext) for ext in (".dot", ".manifest"))
    _probe((dot, "DOT file"), (manifest, "manifest"))
    report = None  # the raw DFA path filters nothing, so it has nothing to report
    if args.mode == "vdpa":
        model, report = papni_learn(dataset, alphabet, PapniConfig(backend=args.backend))
    else:
        model = _BACKENDS[args.backend](dataset)
    _write(out, formats.dump_automaton(model), "model")
    _write(dot, render_dot(model), "DOT file")
    print(f"model size: {model.size}")
    entries = [("command", "learn"), ("dataset", args.dataset), ("alphabet", args.alphabet),
               ("backend", args.backend), ("mode", args.mode), ("output", str(out)),
               ("model_size", model.size)]
    if report is not None:
        for line in report.lines():
            print(line)
        entries += [("kept", report.kept), ("dropped_positive", report.dropped_positive),
                    ("dropped_negative", report.dropped_negative)]
    _manifest(entries, manifest)
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        cfg = GenConfig(total=args.total, len_min=args.len_min, len_max=args.len_max,
                        seed=args.seed, mode=args.mode)
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, str(exc))
    out = Path(args.out)
    if not out.name:  # the split halves and the manifest are named after it
        raise _CliError(EXIT_INPUT, f"cannot write dataset {args.out!r}: not a file name")
    gt = _ground_truth(args)
    outputs = ([out.with_suffix(out.suffix + half) for half in (".train", ".eval")]
               if args.split else [out])
    manifest = out.with_suffix(out.suffix + ".manifest")
    _probe(*((path, "dataset") for path in outputs), (manifest, "manifest"))
    dataset = benchgen.generate_dataset(gt, cfg)
    halves = [dataset]
    if args.split:
        try:
            halves = benchgen.split_dataset(dataset, seed=args.seed)
        except ValueError as exc:
            raise _CliError(EXIT_GENERATION, f"cannot split: {exc}")
    for path, part in zip(outputs, halves):
        _write(path, formats.dump_dataset(part), "dataset")
    positives = len(dataset.positives())
    _manifest(
        [("command", "generate"), ("grammar", gt.name), ("total", cfg.total),
         ("len_min", cfg.len_min), ("len_max", cfg.len_max), ("seed", cfg.seed),
         ("mode", cfg.mode), ("positives", positives),
         ("negatives", len(dataset) - positives),
         ("outputs", " ".join(str(p) for p in outputs))],
        manifest)
    return EXIT_OK


def cmd_eval(args) -> int:
    model = _load(formats.parse_automaton, args.model, "model")
    dataset = _load_dataset(args.dataset)
    metrics = benchgen.evaluate(model, dataset)
    entries = [
        ("command", "eval"), ("model", args.model), ("dataset", args.dataset),
        ("tp", metrics.tp), ("fp", metrics.fp), ("fn", metrics.fn), ("tn", metrics.tn),
        ("precision", f"{metrics.precision:.6f}"), ("recall", f"{metrics.recall:.6f}"),
        ("f1", f"{metrics.f1:.6f}"),
    ]
    if metrics.undefined:
        entries.append(("undefined", " ".join(metrics.undefined)))
    _manifest(entries, None)
    return EXIT_OK


def cmd_check(args) -> int:
    dataset = _load(formats.parse_dataset, args.dataset, "dataset")
    alphabet = _load(formats.parse_alphabet, args.alphabet, "alphabet")
    matched = 0
    for sample in dataset:
        ok = is_well_matched(sample.word, alphabet)
        matched += ok
        mark = "+" if sample.label else "-"
        verdict = "well-matched" if ok else "not-well-matched"
        print(" ".join((mark,) + sample.word) + f" -> {verdict}")
    _manifest([("command", "check"), ("dataset", args.dataset),
               ("alphabet", args.alphabet), ("well_matched", matched),
               ("not_well_matched", len(dataset) - matched)], None)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    # every name is resolved before the first dataset is generated
    try:
        truths = [builtin(g) for part in args.grammars for g in part.split(",") if g]
    except KeyError as exc:
        raise _CliError(EXIT_INPUT, str(exc))
    if not truths:
        raise _CliError(EXIT_INPUT, "no grammar names given")
    if args.out is not None:
        _probe((args.out, "report"))
    config = PapniConfig(backend=args.backend)
    learners = {"rpni": lambda train, alphabet: rpni_learn(train),
                "papni": lambda train, alphabet: papni_learn(train, alphabet, config)[0]}
    records = []
    for gt in truths:
        runs: dict[str, list[tuple[float, int, float]]] = {name: [] for name in learners}
        # repeat r draws its data at seed + r, the schedule of acceptance criterion 3
        for seed in range(args.seed, args.seed + args.repeats):
            cfg = GenConfig(total=args.total, seed=seed, mode=args.mode)
            try:
                train, evl = benchgen.split_dataset(benchgen.generate_dataset(gt, cfg), seed=seed)
            except (GenerationError, ValueError) as exc:
                raise _CliError(EXIT_GENERATION, f"{gt.name}: {exc}")
            for name, learn in learners.items():
                t0 = time.perf_counter()
                model = learn(train, gt.alphabet)
                elapsed = time.perf_counter() - t0
                runs[name].append((benchgen.evaluate(model, evl).f1, model.size, elapsed))
        for name, results in runs.items():
            f1s, sizes, times = zip(*results)
            records.append(dict(grammar=gt.name, learner=name, mean_f1=fmean(f1s), std_f1=pstdev(f1s),
                                mean_model_size=fmean(sizes), wall_time_s=sum(times)))
    # a record's fields: (report key, table header, column, table and report number formats)
    fields = (("grammar", "grammar", "<18", "", ""), ("learner", "learner", "<7", "", ""),
              ("mean_f1", "mean_f1", ">8", ".4f", ".6f"), ("std_f1", "std_f1", ">8", ".4f", ".6f"),
              ("mean_model_size", "mean_size", ">10", ".1f", ".2f"),
              ("wall_time_s", "time_s", ">8", ".3f", ".3f"))
    print(" ".join(format(head, column) for _, head, column, _, _ in fields))
    for rec in records:
        print(" ".join(format(rec[key], column + num) for key, _, column, num, _ in fields))
    if args.out is not None:
        report = ("".join(f"{key}: {rec[key]:{num}}\n" for key, *_, num in fields) for rec in records)
        _write(args.out, "\n".join(report), "report")
    _manifest([("command", "benchmark"), ("grammars", ",".join(gt.name for gt in truths)),
               ("repeats", args.repeats), ("seed", args.seed),
               ("total", args.total), ("out", args.out or "-")], None)
    return EXIT_OK


def cmd_convert(args) -> int:
    if args.to != "dot":
        raise _CliError(EXIT_INPUT, f"unknown target format {args.to!r}")
    model = _load(formats.parse_automaton, args.model, "model")
    dot = render_dot(model)
    if args.out is not None:
        _write(args.out, dot, "DOT file")
    else:
        sys.stdout.write(dot)
    _manifest([("command", "convert"), ("model", args.model), ("to", args.to),
               ("out", args.out or "-")], None)
    return EXIT_OK


def _at_least(low: int):
    """argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpalearn",
        description="Passive automata learning for DFAs and visibly deterministic pushdown automata.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a model from a labeled dataset")
    p.add_argument("dataset")
    p.add_argument("alphabet")
    p.add_argument("--backend", choices=tuple(_BACKENDS), default="rpni")
    p.add_argument("--mode", choices=["dfa", "vdpa"], default="vdpa")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("generate", help="generate a labeled dataset from a ground truth")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--grammar", metavar="NAME")
    src.add_argument("--automaton", metavar="PATH")
    p.add_argument("--total", type=_at_least(2), default=10000)
    p.add_argument("--len-min", type=_at_least(1), default=4)
    p.add_argument("--len-max", type=_at_least(1), default=50)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--mode", choices=_MODES, default="uniform")
    p.add_argument("--split", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="evaluate a model against a labeled dataset")
    p.add_argument("model")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="report well-matchedness of every sample")
    p.add_argument("dataset")
    p.add_argument("alphabet")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("benchmark", help="compare plain RPNI against the pushdown pipeline")
    p.add_argument("--grammars", nargs="+", required=True)
    p.add_argument("--repeats", type=_at_least(1), default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--total", type=_at_least(2), default=10000)
    p.add_argument("--mode", choices=_MODES, default="uniform")
    p.add_argument("--backend", choices=tuple(_BACKENDS), default="rpni")
    p.add_argument("--out")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("convert", help="convert a textual model to DOT")
    p.add_argument("model")
    p.add_argument("--to", default="dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (_CliError, *_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _CliError):
            return exc.code
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    except BrokenPipeError:
        # the reader went away; the exit-time flush then finds nowhere to write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write standard output: broken pipe", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
