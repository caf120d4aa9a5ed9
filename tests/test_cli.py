import itertools
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpalearn import (
    BUILTIN_NAMES,
    GenConfig,
    Vdpa,
    VpaAlphabet,
    benchgen,
    builtin,
    evaluate,
    formats,
    generate_dataset,
    papni_learn,
    rpni_learn,
    split_dataset,
)
from vpalearn.cli import (
    EXIT_CONFLICT,
    EXIT_GENERATION,
    EXIT_INPUT,
    EXIT_NO_SAMPLES,
    EXIT_OK,
    main,
)

from conftest import WORKED_SAMPLES

PAREN_ALPHABET = "internal:\ncall: (\nreturn: )\n"


def write_worked_files(tmp_path):
    data = tmp_path / "data.txt"
    lines = [("+" if label else "-") + (" " + " ".join(word) if word else "")
             for word, label in WORKED_SAMPLES]
    data.write_text("\n".join(lines) + "\n")
    alpha = tmp_path / "alphabet.txt"
    alpha.write_text(PAREN_ALPHABET)
    return data, alpha


class TestLearn:
    def test_vdpa_pipeline(self, tmp_path, capsys, parens_gt):
        data, alpha = write_worked_files(tmp_path)
        out = tmp_path / "model.aut"
        code = main(["learn", str(data), str(alpha), "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "model size: 3" in stdout
        assert "dropped_negative: 5" in stdout
        assert out.exists()
        assert out.with_suffix(".aut.dot").exists()
        assert out.with_suffix(".aut.manifest").exists()
        from vpalearn import bounded_equivalence

        model = formats.parse_automaton(out.read_text())
        assert bounded_equivalence(model, parens_gt.vdpa, 10) is None

    def test_dfa_mode_learns_raw(self, tmp_path, capsys):
        data, alpha = write_worked_files(tmp_path)
        out = tmp_path / "model.aut"
        code = main(["learn", str(data), str(alpha), "--mode", "dfa",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert "model size: 5" in capsys.readouterr().out
        model = formats.parse_automaton(out.read_text())
        from vpalearn import Dfa, dfa_accepts

        assert isinstance(model, Dfa)
        assert dfa_accepts(model, tuple(")()"))

    def test_runs_are_byte_identical(self, tmp_path):
        data, alpha = write_worked_files(tmp_path)
        out1, out2 = tmp_path / "m1.aut", tmp_path / "m2.aut"
        main(["learn", str(data), str(alpha), "--out", str(out1)])
        main(["learn", str(data), str(alpha), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_dataset(self, tmp_path, capsys):
        alpha = tmp_path / "alphabet.txt"
        alpha.write_text(PAREN_ALPHABET)
        code = main(["learn", str(tmp_path / "nope.txt"), str(alpha),
                     "--out", str(tmp_path / "m.aut")])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_conflicting_labels(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("+ ( )\n- ( )\n")
        alpha = tmp_path / "alphabet.txt"
        alpha.write_text(PAREN_ALPHABET)
        code = main(["learn", str(data), str(alpha), "--out", str(tmp_path / "m.aut")])
        assert code == EXIT_CONFLICT

    def test_nothing_well_matched(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("+ (\n- ) )\n")
        alpha = tmp_path / "alphabet.txt"
        alpha.write_text(PAREN_ALPHABET)
        code = main(["learn", str(data), str(alpha), "--out", str(tmp_path / "m.aut")])
        assert code == EXIT_NO_SAMPLES

    def test_symbol_outside_alphabet(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("+ ( x )\n")
        alpha = tmp_path / "alphabet.txt"
        alpha.write_text(PAREN_ALPHABET)
        code = main(["learn", str(data), str(alpha), "--out", str(tmp_path / "m.aut")])
        assert code == EXIT_INPUT

    def test_directory_as_dataset(self, tmp_path, capsys):
        _, alpha = write_worked_files(tmp_path)
        code = main(["learn", str(tmp_path), str(alpha), "--out", str(tmp_path / "m.aut")])
        assert code == EXIT_INPUT
        assert "cannot read dataset" in capsys.readouterr().err

    def test_directory_as_alphabet(self, tmp_path):
        data, _ = write_worked_files(tmp_path)
        code = main(["learn", str(data), str(tmp_path), "--out", str(tmp_path / "m.aut")])
        assert code == EXIT_INPUT

    def test_non_utf8_dataset(self, tmp_path, capsys):
        data, alpha = write_worked_files(tmp_path)
        data.write_bytes(b"+ ( \xff )\n")
        code = main(["learn", str(data), str(alpha), "--out", str(tmp_path / "m.aut")])
        assert code == EXIT_INPUT
        assert "not UTF-8" in capsys.readouterr().err

    def test_non_utf8_alphabet(self, tmp_path):
        data, alpha = write_worked_files(tmp_path)
        alpha.write_bytes(b"internal:\ncall: \xfe\nreturn: )\n")
        code = main(["learn", str(data), str(alpha), "--out", str(tmp_path / "m.aut")])
        assert code == EXIT_INPUT

    def test_internal_only_alphabet(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("+\n- a\n+ a b\n+ a b a b\n- b\n- a a\n")
        alpha = tmp_path / "alphabet.txt"
        alpha.write_text("internal: a b\ncall:\nreturn:\n")
        out = tmp_path / "model.aut"
        assert main(["learn", str(data), str(alpha), "--out", str(out)]) == EXIT_OK
        assert "kept: 6" in capsys.readouterr().out
        edges = [line for line in out.read_text().splitlines() if "->" in line]
        assert edges
        assert all(" push " not in line and " pop " not in line for line in edges)

    def test_directory_as_output(self, tmp_path, capsys):
        data, alpha = write_worked_files(tmp_path)
        (tmp_path / "m.aut").mkdir()
        code = main(["learn", str(data), str(alpha), "--out", str(tmp_path / "m.aut")])
        assert code == EXIT_INPUT
        assert "cannot write model" in capsys.readouterr().err

    @pytest.mark.parametrize("blocked, what", [
        ("m.aut", "model"), ("m.aut.dot", "DOT file"), ("m.aut.manifest", "manifest"),
    ])
    def test_unwritable_output_leaves_no_output(self, tmp_path, capsys, blocked, what):
        # every output is probed before learning, so none is left half written
        data, alpha = write_worked_files(tmp_path)
        (tmp_path / blocked).mkdir()
        code = main(["learn", str(data), str(alpha), "--out", str(tmp_path / "m.aut")])
        assert code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith(f"error: cannot write {what} ")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["alphabet.txt", "data.txt", blocked])

    def test_dfa_mode_reports_no_filtering(self, tmp_path, capsys):
        # two of the four words are not well-matched: only the pipeline drops them
        data = tmp_path / "d.txt"
        data.write_text("+ ( )\n- ( ) )\n+ ( ( ) )\n- (\n")
        alpha = tmp_path / "a.txt"
        alpha.write_text(PAREN_ALPHABET)
        out = tmp_path / "m.aut"
        assert main(["learn", str(data), str(alpha), "--mode", "dfa", "--out", str(out)]) == EXIT_OK
        assert "kept:" not in capsys.readouterr().out
        assert "dropped_negative" not in out.with_suffix(".aut.manifest").read_text()
        assert main(["learn", str(data), str(alpha), "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "kept: 2" in stdout and "dropped_negative: 2" in stdout
        assert "dropped_negative: 2" in out.with_suffix(".aut.manifest").read_text()


class TestGenerate:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "data.txt"
        code = main(["generate", "--grammar", "dyck1", "--total", "50",
                     "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        ds = formats.parse_dataset(out.read_text())
        assert len(ds) == 50
        assert "positives:" in capsys.readouterr().out
        assert out.with_suffix(".txt.manifest").exists()

    def test_seeded_determinism(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            main(["generate", "--grammar", "dyck1", "--total", "80",
                  "--seed", "11", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_split_outputs(self, tmp_path):
        out = tmp_path / "data.txt"
        code = main(["generate", "--grammar", "dyck1", "--total", "200",
                     "--mode", "balanced", "--len-min", "2", "--len-max", "14",
                     "--seed", "3", "--split", "--out", str(out)])
        assert code == EXIT_OK
        train = formats.parse_dataset(out.with_suffix(".txt.train").read_text())
        evl = formats.parse_dataset(out.with_suffix(".txt.eval").read_text())
        assert not {s.word for s in train} & {s.word for s in evl}

    @pytest.mark.parametrize("out", ["", "."])
    def test_split_to_a_path_without_a_file_name(self, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        code = main(["generate", "--grammar", "dyck1", "--total", "20", "--split", "--out", out])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["convert", "gt.aut", "--out", ""],
        ["benchmark", "--grammars", "dyck1", "--repeats", "1", "--total", "20", "--out", ""],
    ], ids=["convert", "benchmark"])
    def test_other_commands_refuse_an_empty_out(self, tmp_path, monkeypatch, capsys, argv):
        # one --out contract for every command: an empty path is no path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gt.aut").write_text(formats.dump_automaton(builtin("dyck1").vdpa))
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
        assert [p.name for p in tmp_path.iterdir()] == ["gt.aut"]

    def test_unknown_grammar(self, tmp_path, capsys):
        code = main(["generate", "--grammar", "bogus", "--out", str(tmp_path / "d.txt")])
        assert code == EXIT_INPUT
        assert "available" in capsys.readouterr().err

    def test_empty_grammar_name(self, tmp_path):
        assert main(["generate", "--grammar", "", "--out", str(tmp_path / "d.txt")]) == EXIT_INPUT

    def test_generation_failure(self, tmp_path):
        code = main(["generate", "--grammar", "anbn", "--total", "4",
                     "--len-min", "4", "--len-max", "4", "--mode", "balanced",
                     "--out", str(tmp_path / "d.txt")])
        assert code == EXIT_GENERATION

    def test_split_failure_exit_code(self, tmp_path, capsys):
        # uniform dyck1 with a tiny sample has no accepted words at all, so
        # the train/eval split cannot cover both labels
        code = main(["generate", "--grammar", "dyck1", "--total", "6", "--seed", "4",
                     "--split", "--out", str(tmp_path / "d.txt")])
        assert code == EXIT_GENERATION
        assert "cannot split" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--total", "1"), ("--total", "-3"), ("--len-min", "0"), ("--len-max", "0"),
        ("--total", "x"),
    ])
    def test_out_of_range_flags_exit_2(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--grammar", "dyck1", flag, value,
                  "--out", str(tmp_path / "d.txt")])
        assert exc.value.code == EXIT_INPUT
        assert flag in capsys.readouterr().err

    def test_len_min_above_len_max(self, tmp_path):
        code = main(["generate", "--grammar", "dyck1", "--len-min", "9", "--len-max", "3",
                     "--out", str(tmp_path / "d.txt")])
        assert code == EXIT_INPUT

    def test_output_in_missing_directory(self, tmp_path, capsys):
        code = main(["generate", "--grammar", "dyck1", "--total", "10",
                     "--out", str(tmp_path / "nodir" / "x.txt")])
        assert code == EXIT_INPUT
        assert "cannot write dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("split, blocked, what", [
        (True, "d.txt.train", "dataset"), (True, "d.txt.eval", "dataset"),
        (True, "d.txt.manifest", "manifest"), (False, "d.txt.manifest", "manifest"),
    ])
    def test_unwritable_output_leaves_no_output(self, tmp_path, capsys, split, blocked, what):
        # every output is probed before generating, so none is left half written
        (tmp_path / blocked).mkdir()
        code = main(["generate", "--grammar", "dyck1", "--total", "20", "--mode", "balanced",
                     *(["--split"] if split else []), "--out", str(tmp_path / "d.txt")])
        assert code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith(f"error: cannot write {what} ")
        assert [p.name for p in tmp_path.iterdir()] == [blocked]

    def test_automaton_without_symbols(self, tmp_path):
        model = tmp_path / "empty.aut"
        model.write_text("vdpa\ninitial: s0\naccepting: s0\n")
        code = main(["generate", "--automaton", str(model), "--out", str(tmp_path / "d.txt")])
        assert code == EXIT_INPUT

    def test_directory_as_automaton(self, tmp_path):
        code = main(["generate", "--automaton", str(tmp_path), "--out", str(tmp_path / "d.txt")])
        assert code == EXIT_INPUT

    def test_ground_truth_without_rejected_words(self, tmp_path, capsys):
        # it accepts every word over {a}, so balanced mode finds no negative
        model = tmp_path / "all.aut"
        model.write_text(formats.dump_automaton(Vdpa(
            frozenset({"q"}), VpaAlphabet(frozenset({"a"})), {("q", "a"): "q"}, {}, {},
            "q", frozenset({"q"}))))
        code = main(["generate", "--automaton", str(model), "--total", "4",
                     "--len-min", "1", "--len-max", "4", "--mode", "balanced",
                     "--out", str(tmp_path / "d.txt")])
        assert code == EXIT_GENERATION
        assert "rejected words" in capsys.readouterr().err

    def test_custom_automaton_ground_truth(self, tmp_path):
        gt = builtin("balanced_parens")
        model_path = tmp_path / "gt.aut"
        model_path.write_text(formats.dump_automaton(gt.vdpa))
        out = tmp_path / "d.txt"
        code = main(["generate", "--automaton", str(model_path), "--total", "30",
                     "--seed", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert len(formats.parse_dataset(out.read_text())) == 30


class TestEval:
    def test_metrics_printed(self, tmp_path, capsys):
        gt = builtin("balanced_parens")
        model_path = tmp_path / "gt.aut"
        model_path.write_text(formats.dump_automaton(gt.vdpa))
        data = tmp_path / "d.txt"
        main(["generate", "--grammar", "balanced_parens", "--total", "12",
              "--mode", "balanced", "--len-min", "2", "--len-max", "16",
              "--seed", "5", "--out", str(data)])
        capsys.readouterr()
        code = main(["eval", str(model_path), str(data)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "precision: 1.000000" in out
        assert "recall: 1.000000" in out
        assert "f1: 1.000000" in out

    def test_missing_model(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("+ ( )\n")
        assert main(["eval", str(tmp_path / "no.aut"), str(data)]) == EXIT_INPUT

    def test_non_utf8_model(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("+ ( )\n")
        model = tmp_path / "m.aut"
        model.write_bytes(b"dfa\ninitial: \xff\n")
        assert main(["eval", str(model), str(data)]) == EXIT_INPUT

    def test_directory_as_dataset(self, tmp_path):
        model_path = tmp_path / "gt.aut"
        model_path.write_text(formats.dump_automaton(builtin("dyck1").vdpa))
        assert main(["eval", str(model_path), str(tmp_path)]) == EXIT_INPUT

    def test_all_negative_data_leaves_the_ratios_undefined(self, tmp_path, capsys):
        model_path = tmp_path / "gt.aut"
        model_path.write_text(formats.dump_automaton(builtin("dyck1").vdpa))
        data = tmp_path / "d.txt"
        data.write_text("- ( (\n- )\n")
        assert main(["eval", str(model_path), str(data)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tn: 2" in out
        assert "undefined: precision recall f1" in out


class TestCheck:
    def test_per_line_verdicts(self, tmp_path, capsys):
        data, alpha = write_worked_files(tmp_path)
        code = main(["check", str(data), str(alpha)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("-> well-matched") == 6
        assert out.count("-> not-well-matched") == 5
        assert "well_matched: 6" in out
        assert "not_well_matched: 5" in out

    def test_non_utf8_dataset(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_bytes(b"- \xc3\n")
        alpha = tmp_path / "alphabet.txt"
        alpha.write_text(PAREN_ALPHABET)
        assert main(["check", str(data), str(alpha)]) == EXIT_INPUT

    def test_empty_dataset_is_fine(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        data.write_text("")
        alpha = tmp_path / "alphabet.txt"
        alpha.write_text(PAREN_ALPHABET)
        assert main(["check", str(data), str(alpha)]) == EXIT_OK
        assert "well_matched: 0" in capsys.readouterr().out

    def test_symbol_outside_alphabet(self, tmp_path, capsys):
        alpha = tmp_path / "alphabet.txt"
        alpha.write_text(PAREN_ALPHABET)
        data = tmp_path / "d.txt"
        # the second word pops an empty stack before its foreign symbol
        for line in ("+ ( x )\n", "+ ) x\n"):
            data.write_text(line)
            assert main(["check", str(data), str(alpha)]) == EXIT_INPUT, line
            assert "'x'" in capsys.readouterr().err


class TestBenchmark:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "results.txt"
        code = main(["benchmark", "--grammars", "dyck1", "--repeats", "2",
                     "--total", "120", "--mode", "balanced", "--seed", "4",
                     "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "rpni" in stdout and "papni" in stdout
        text = out.read_text()
        assert text.count("grammar: dyck1") == 2
        assert "mean_f1:" in text

    def test_table_and_report_bytes_are_pinned(self, tmp_path, monkeypatch, capsys):
        # the k-th clock reading is k*k ms, so each learn call takes a
        # different, known time and a swapped column shows in the pin
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) ** 2 / 1000)
        out = tmp_path / "report.txt"
        code = main(["benchmark", "--grammars", "dyck1,dyck1_even", "--repeats", "2",
                     "--total", "100", "--mode", "balanced", "--seed", "4", "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            "grammar            learner  mean_f1   std_f1  mean_size   time_s\n"
            "dyck1              rpni      0.6961   0.0731       13.0    0.010\n"
            "dyck1              papni     1.0000   0.0000        1.0    0.018\n"
            "dyck1_even         rpni      0.7534   0.0334       15.5    0.042\n"
            "dyck1_even         papni     1.0000   0.0000        1.0    0.050\n"
            "command: benchmark\n"
            "grammars: dyck1,dyck1_even\n"
            "repeats: 2\n"
            "seed: 4\n"
            "total: 100\n"
            f"out: {out}\n")
        assert out.read_text() == (
            "grammar: dyck1\nlearner: rpni\nmean_f1: 0.696091\nstd_f1: 0.073140\n"
            "mean_model_size: 13.00\nwall_time_s: 0.010\n\n"
            "grammar: dyck1\nlearner: papni\nmean_f1: 1.000000\nstd_f1: 0.000000\n"
            "mean_model_size: 1.00\nwall_time_s: 0.018\n\n"
            "grammar: dyck1_even\nlearner: rpni\nmean_f1: 0.753443\nstd_f1: 0.033443\n"
            "mean_model_size: 15.50\nwall_time_s: 0.042\n\n"
            "grammar: dyck1_even\nlearner: papni\nmean_f1: 1.000000\nstd_f1: 0.000000\n"
            "mean_model_size: 1.00\nwall_time_s: 0.050\n")

    def test_comma_separated_grammars(self, tmp_path, capsys):
        code = main(["benchmark", "--grammars", "dyck1,dyck1_even",
                     "--repeats", "1", "--total", "100", "--mode", "balanced",
                     "--seed", "4"])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "dyck1_even" in stdout

    def test_generation_failure_exit_code(self, capsys):
        # uniform dyck1 with a tiny sample has no accepted words at all, so
        # the train/eval split cannot cover both labels
        code = main(["benchmark", "--grammars", "dyck1", "--repeats", "1",
                     "--total", "6", "--seed", "4"])
        assert code == EXIT_GENERATION

    def test_no_grammar_names(self, capsys):
        assert main(["benchmark", "--grammars", ","]) == EXIT_INPUT
        assert "no grammar" in capsys.readouterr().err

    def test_unknown_grammar_before_any_generation(self, monkeypatch, capsys):
        generated = []
        monkeypatch.setattr(benchgen, "generate_dataset",
                            lambda gt, cfg: generated.append(gt.name))
        code = main(["benchmark", "--grammars", "dyck1,bogus", "--repeats", "1",
                     "--total", "100", "--mode", "balanced"])
        assert code == EXIT_INPUT
        assert "bogus" in capsys.readouterr().err
        assert generated == []

    def test_directory_as_output(self, tmp_path, capsys):
        code = main(["benchmark", "--grammars", "dyck1", "--repeats", "1",
                     "--total", "100", "--mode", "balanced", "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "cannot write report" in capsys.readouterr().err

    def test_unwritable_output_before_any_generation(self, tmp_path, monkeypatch, capsys):
        def fail(gt, cfg):
            pytest.fail("generated data before checking --out")
        monkeypatch.setattr(benchgen, "generate_dataset", fail)
        code = main(["benchmark", "--grammars", "dyck1", "--repeats", "1",
                     "--total", "100", "--mode", "balanced", "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "cannot write report" in capsys.readouterr().err

    def test_failed_run_leaves_reports_as_they_were(self, tmp_path, capsys):
        # two samples cannot be split, so generation fails after the --out probe
        argv = ["benchmark", "--grammars", "dyck1", "--total", "2", "--repeats", "1", "--out"]
        new = tmp_path / "new.txt"
        assert main(argv + [str(new)]) == EXIT_GENERATION
        assert not new.exists()
        old = tmp_path / "old.txt"
        old.write_bytes(b"grammar: dyck1\nmean_f1: 0.5")
        assert main(argv + [str(old)]) == EXIT_GENERATION
        assert old.read_bytes() == b"grammar: dyck1\nmean_f1: 0.5"

    def test_seed_schedule_is_pinned(self, tmp_path):
        # repeat r runs on data drawn at seed + r, as acceptance criterion 3 does
        out = tmp_path / "f"
        code = main(["benchmark", "--grammars", "dyck2", "--mode", "balanced", "--seed", "73",
                     "--repeats", "2", "--total", "400", "--out", str(out)])
        assert code == EXIT_OK
        gt = builtin("dyck2")
        f1 = {"rpni": [], "papni": []}
        for seed in (73, 74):
            data = generate_dataset(gt, GenConfig(total=400, seed=seed, mode="balanced"))
            train, evl = split_dataset(data, seed=seed)
            f1["rpni"].append(evaluate(rpni_learn(train), evl).f1)
            f1["papni"].append(evaluate(papni_learn(train, gt.alphabet)[0], evl).f1)
        reported = [line.split(": ")[1] for line in out.read_text().splitlines()
                    if line.startswith("mean_f1:")]
        assert reported == [f"{statistics.fmean(f1[learner]):.6f}" for learner in ("rpni", "papni")]

    @pytest.mark.parametrize("flag,value", [
        ("--repeats", "0"), ("--repeats", "-1"), ("--total", "1"),
    ])
    def test_out_of_range_flags_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--grammars", "dyck1", flag, value])
        assert exc.value.code == EXIT_INPUT
        assert flag in capsys.readouterr().err


class TestConvert:
    def test_to_stdout(self, tmp_path, capsys):
        gt = builtin("balanced_parens")
        model_path = tmp_path / "gt.aut"
        model_path.write_text(formats.dump_automaton(gt.vdpa))
        assert main(["convert", str(model_path)]) == EXIT_OK
        assert "digraph" in capsys.readouterr().out

    def test_directory_as_model(self, tmp_path):
        assert main(["convert", str(tmp_path)]) == EXIT_INPUT

    def test_directory_as_output(self, tmp_path, capsys):
        model_path = tmp_path / "gt.aut"
        model_path.write_text(formats.dump_automaton(builtin("dyck1").vdpa))
        assert main(["convert", str(model_path), "--out", str(tmp_path)]) == EXIT_INPUT
        assert "cannot write DOT file" in capsys.readouterr().err

    def test_unknown_target(self, tmp_path):
        gt = builtin("dyck1")
        model_path = tmp_path / "gt.aut"
        model_path.write_text(formats.dump_automaton(gt.vdpa))
        assert main(["convert", str(model_path), "--to", "svg"]) == EXIT_INPUT

    def test_header_symbol_with_a_hash_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "m.aut"
        model_path.write_text("dfa\n# alphabet: a # b\ninitial: s0\naccepting:\n")
        assert main(["convert", str(model_path)]) == EXIT_INPUT
        assert "'#'" in capsys.readouterr().err

    def test_closed_stdout_exits_2_without_a_traceback(self, tmp_path):
        model_path = tmp_path / "gt.aut"
        model_path.write_text(formats.dump_automaton(builtin("dyck2").vdpa))
        src = str(Path(formats.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "vpalearn.cli", "convert", str(model_path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # before the child writes anything
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_INPUT, err
        assert err.startswith("error:"), err
        assert "Traceback" not in err and "Exception ignored" not in err


# line pools of the three input formats, some lines malformed, and whole
# files that reach learning, conflicts and the empty-alphabet case
_DATA_LINES = ["+ ( )", "- ( ) )", "+", "- (", "+ ( ( ) )", "- ) (", "+ ( ( )", "- a # b",
               "? x", "+ ( x )"]
_ALPHA_LINES = ["internal: 1 +", "internal:", "call: (", "call: ( [", "return: )", "return:",
                "colour: red"]
_MODEL_LINES = ["dfa", "vdpa", "initial: s0", "initial:", "accepting: s0", "accepting:",
                "s0 ( push -> s0", "s0 ) pop ( -> s0", "s0 ) pop ( -> s1", "s0 a -> s0",
                "s0 a s1", "# internal: 1", "# call: (", "# return: )", "# alphabet: a"]


def _file_bytes(lines, whole):
    return st.one_of(st.binary(max_size=40),
                     st.lists(st.sampled_from(lines), max_size=8).map("\n".join).map(str.encode),
                     st.sampled_from(whole).map(str.encode))


_data_bytes = _file_bytes(_DATA_LINES, ["+ ( )\n+ ( ( ) )\n- ( ) )\n- )\n",
                                        "+ ( )\n- ( )\n", "+ (\n- ) )\n"])
_alpha_bytes = _file_bytes(_ALPHA_LINES, [PAREN_ALPHABET, "internal: 1 +\ncall: (\nreturn: )\n"])
_model_bytes = _file_bytes(_MODEL_LINES, [formats.dump_automaton(builtin("dyck1").vdpa),
                                          "vdpa\ninitial: s0\naccepting: s0\n",
                                          "dfa\ninitial: s0\naccepting: s0\ns0 ( -> s0\n"])
# the three fuzzed files, an existing directory, and paths that do not exist
_PATHS = ["data.txt", "alpha.txt", "model.aut", "dir", "missing.txt",
          "dir/out.txt", "missing/out.txt", "out.txt"]
_path = st.sampled_from(_PATHS)
_output = st.sampled_from(["out.txt", "dir", "missing/out.txt"])
_count = st.one_of(st.sampled_from(["6", "20"]), st.sampled_from(["-1", "0", "1", "2", "3", "x"]))
_grammar = st.sampled_from(list(BUILTIN_NAMES) + ["bogus", ""])


def _input(name):
    return st.one_of(st.just(name), _path)


def _flags(draw, options):
    argv = []
    for flag, values in options:
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


@st.composite
def _argv(draw):
    # generate and benchmark always get a small --total: the default of
    # 10,000 samples would make each run take seconds
    mode, backend = st.sampled_from(["uniform", "balanced", "x"]), st.sampled_from(["rpni", "edsm", "x"])
    command = draw(st.sampled_from(["learn", "generate", "eval", "check", "benchmark", "convert"]))
    if command == "learn":
        return ["learn", draw(_input("data.txt")), draw(_input("alpha.txt")),
                "--out", draw(_output)] + _flags(
            draw, [("--backend", backend), ("--mode", st.sampled_from(["dfa", "vdpa", "x"]))])
    if command == "generate":
        source = (["--grammar", draw(_grammar)] if draw(st.booleans())
                  else ["--automaton", draw(_input("model.aut"))])
        return ["generate"] + source + ["--total", draw(_count), "--out", draw(_output)] + _flags(
            draw, [("--len-min", _count), ("--len-max", _count),
                   ("--seed", _count), ("--mode", mode), ("--split", None)])
    if command == "eval":
        return ["eval", draw(_input("model.aut")), draw(_input("data.txt"))]
    if command == "check":
        return ["check", draw(_input("data.txt")), draw(_input("alpha.txt"))]
    if command == "benchmark":
        grammars = ",".join(draw(st.lists(_grammar, min_size=1, max_size=2)))
        return ["benchmark", "--grammars", grammars, "--total", draw(_count)] + _flags(
            draw, [("--repeats", st.sampled_from(["0", "1", "2"])), ("--seed", _count),
                   ("--mode", mode), ("--backend", backend), ("--out", _output)])
    return ["convert", draw(_input("model.aut"))] + _flags(
        draw, [("--to", st.sampled_from(["dot", "svg"])), ("--out", _output)])


@given(_argv(), _data_bytes, _alpha_bytes, _model_bytes)
@settings(max_examples=300, deadline=None)
def test_fuzzed_runs_exit_with_a_contract_code(argv, data, alpha, model):
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in (("data.txt", data), ("alpha.txt", alpha), ("model.aut", model)):
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(content)
        os.mkdir(os.path.join(tmp, "dir"))
        args = [os.path.join(tmp, a) if a in _PATHS else a for a in argv]
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    assert code in {EXIT_OK, EXIT_INPUT, EXIT_CONFLICT, EXIT_NO_SAMPLES, EXIT_GENERATION}


# a ground truth over multi-character symbols: tags nest, text and hr may
# stand anywhere, and an accepted word holds an even number of br
_TAGS_MODEL = """vdpa
# internal: br hr text
# call: <a> <b>
# return: </a> </b>
initial: s0
accepting: s0
s0 text -> s0
s0 hr -> s0
s0 br -> s1
s1 text -> s1
s1 hr -> s1
s1 br -> s0
s0 <a> push -> s0
s0 <b> push -> s0
s1 <a> push -> s1
s1 <b> push -> s1
s0 </a> pop <a> -> s0
s0 </b> pop <b> -> s0
s1 </a> pop <a> -> s1
s1 </b> pop <b> -> s1
"""
_TAGS_ALPHABET = "internal: text br hr\ncall: <a> <b>\nreturn: </a> </b>\n"
_IDENTITY_RUNS = [
    ["generate", "--automaton", "tags.aut", "--total", "200", "--mode", "balanced",
     "--len-min", "1", "--len-max", "12", "--seed", "3", "--split", "--out", "data.txt"],
    *(["learn", "data.txt.train", "tags.alphabet", "--mode", mode, "--backend", backend,
       "--out", f"{mode}_{backend}.aut"] for mode in ("vdpa", "dfa") for backend in ("rpni", "edsm")),
    ["eval", "vdpa_rpni.aut", "data.txt.eval"],
    ["eval", "dfa_edsm.aut", "data.txt.eval"],
    ["convert", "vdpa_edsm.aut", "--out", "vdpa_edsm.conv.dot"],
    ["benchmark", "--grammars", "nested_xml_tags", "--repeats", "1", "--total", "100",
     "--mode", "balanced", "--seed", "4", "--out", "report.txt"],
]
# the first printed line is how the alphabet's three frozensets iterate
# under the process's hash seed; the commands' output follows
_IDENTITY_SCRIPT = f"""
from vpalearn.cli import main
from vpalearn.formats import parse_alphabet
alphabet = parse_alphabet({_TAGS_ALPHABET!r})
print(*alphabet.internal, *alphabet.call, *alphabet.ret)
for argv in {_IDENTITY_RUNS!r}:
    assert main(argv) == 0, argv
"""


def _without_times(name, text):
    """The fields that hold a time, and so differ between runs: the last
    (``time_s``) column of benchmark's table and its report's ``wall_time_s``."""
    if name == "stdout":
        return re.sub(r"^(nested_xml_tags +\w+ .*) +\S+$", r"\1 <time_s>", text, flags=re.M)
    if name == "report.txt":
        return re.sub(r"^wall_time_s: \S+$", "wall_time_s: <time>", text, flags=re.M)
    return text


def test_outputs_are_byte_identical_under_two_hash_seeds(tmp_path):
    # hash seeds 1 and 2 iterate each of the alphabet's frozensets in a
    # different order, so output built from a set without sorting differs
    src = str(Path(formats.__file__).resolve().parents[1])
    runs = {}
    for seed in ("1", "2"):
        cwd = tmp_path / seed
        cwd.mkdir()
        (cwd / "tags.aut").write_text(_TAGS_MODEL)
        (cwd / "tags.alphabet").write_text(_TAGS_ALPHABET)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs[seed] = subprocess.Popen([sys.executable, "-c", _IDENTITY_SCRIPT], cwd=cwd, env=env,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    finished = {seed: proc.communicate(timeout=120) for seed, proc in runs.items()}
    orders, outputs = [], []
    for seed, (out, err) in finished.items():
        assert runs[seed].returncode == 0, err.decode()
        order, _, stdout = out.decode().partition("\n")
        written = {path.name: path.read_bytes().decode() for path in (tmp_path / seed).iterdir()}
        orders.append(order.split())
        outputs.append({name: _without_times(name, text) for name, text in
                        {"stdout": stdout, "stderr": err.decode(), **written}.items()})
    for part in (slice(0, 3), slice(3, 5), slice(5, 7)):  # internal, call, return
        assert orders[0][part] != orders[1][part]
    assert "<time_s>" in outputs[0]["stdout"] and "<time>" in outputs[0]["report.txt"]
    assert outputs[0] == outputs[1]
