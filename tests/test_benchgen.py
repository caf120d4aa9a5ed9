import hashlib
import random

import pytest

from vpalearn import (
    BUILTIN_NAMES,
    EvalMetrics,
    GenConfig,
    GenerationError,
    GroundTruth,
    LabeledDataset,
    Vdpa,
    VpaAlphabet,
    builtin,
    evaluate,
    generate_dataset,
    is_well_matched,
    split_dataset,
    vdpa_accepts,
)

from vpalearn.formats import dump_automaton

from conftest import as_dataset, oracle_well_matched

# sha256 of dump_automaton for every built-in ground truth: however the
# built-ins are constructed, not one byte of them may change
BUILTIN_SHA256 = {
    "anbn": "d5e65e14a480f75550e67731ef735d1cbc4cfac3b39f6e6cb4c9bddd35a73431",
    "arithmetic_expr": "f7ed7bf5c092e50e04b02d16cb6d0c9acff4ebf004be7ec97a9c559ff85657d5",
    "balanced_parens": "d4eee6bde4207cb8a6a2a5fa4f4cc930f6803e1c35cbe2121e09e6cfff9b3f4f",
    "dyck1": "1e74d23da7c2ae2c3a635a6a0272720087ec95766a4e6c67d2c602384e3c89e7",
    "dyck1_even": "1f85b56478dc77b8e7c93f9d350f7f2b0ca7593c0571ef741bd612e2de4a3bba",
    "dyck1_odd": "ce88028864a2ebb17697503a5a0116c90a2b498011d41f5e933c4dc5fa78431d",
    "dyck2": "7a73191a9836d1ba2629f870a740343cb44b02e3da1c81c4cb60ef647e478076",
    "nested_xml_tags": "ca91000a4d8aa45c48d42bf9819c90baffc2af6633f62903cbe05a58cbdf00ed",
}


class TestBuiltins:
    def test_names_are_stable(self):
        assert BUILTIN_NAMES == (
            "anbn", "arithmetic_expr", "balanced_parens", "dyck1",
            "dyck1_even", "dyck1_odd", "dyck2", "nested_xml_tags")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("no_such_grammar")

    @pytest.mark.parametrize("name", [
        "anbn", "arithmetic_expr", "balanced_parens", "dyck1",
        "dyck1_even", "dyck1_odd", "dyck2", "nested_xml_tags"])
    def test_accepted_words_are_well_matched(self, name):
        gt = builtin(name)
        rng = random.Random(19)
        symbols = sorted(gt.alphabet.symbols)
        for _ in range(500):
            word = tuple(rng.choice(symbols) for _ in range(rng.randrange(0, 10)))
            if vdpa_accepts(gt.vdpa, word).accepted:
                assert oracle_well_matched(word, gt.alphabet)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_dump_is_pinned(self, name):
        text = dump_automaton(builtin(name).vdpa)
        assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_SHA256[name]

    def test_ground_truth_needs_symbols(self):
        # uniform sampling draws from the alphabet, so it must not be empty
        vdpa = Vdpa(frozenset({"s0"}), VpaAlphabet(), {}, {}, {}, "s0", frozenset({"s0"}))
        with pytest.raises(ValueError):
            GroundTruth("empty", vdpa)

    def test_anbn_language(self):
        gt = builtin("anbn")
        for n in range(1, 6):
            assert vdpa_accepts(gt.vdpa, ("a",) * n + ("b",) * n).accepted
        assert not vdpa_accepts(gt.vdpa, ("a", "b", "a", "b")).accepted
        assert not vdpa_accepts(gt.vdpa, ()).accepted

    def test_dyck2_language(self):
        gt = builtin("dyck2")
        assert vdpa_accepts(gt.vdpa, tuple("([])()")).accepted
        assert not vdpa_accepts(gt.vdpa, tuple("([)]")).accepted
        assert vdpa_accepts(gt.vdpa, ()).accepted

    def test_dyck1_parity(self):
        even, odd = builtin("dyck1_even"), builtin("dyck1_odd")
        w2, w3 = tuple("()()"), tuple("()()()")
        assert vdpa_accepts(even.vdpa, w2).accepted
        assert not vdpa_accepts(odd.vdpa, w2).accepted
        assert not vdpa_accepts(even.vdpa, w3).accepted
        assert vdpa_accepts(odd.vdpa, w3).accepted

    def test_nested_xml(self):
        gt = builtin("nested_xml_tags")
        ok = ("<a>", "text", "<b>", "</b>", "</a>")
        bad = ("<a>", "<b>", "</a>", "</b>")
        assert vdpa_accepts(gt.vdpa, ok).accepted
        assert not vdpa_accepts(gt.vdpa, bad).accepted


class TestGenConfig:
    def test_defaults(self):
        cfg = GenConfig()
        assert (cfg.total, cfg.len_min, cfg.len_max, cfg.mode) == (10000, 4, 50, "uniform")

    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(len_min=0)
        with pytest.raises(ValueError):
            GenConfig(len_min=5, len_max=4)
        with pytest.raises(ValueError):
            GenConfig(total=1)


class TestGenerateDataset:
    def test_uniform_is_deterministic(self):
        gt = builtin("dyck1")
        cfg = GenConfig(total=200, seed=42)
        a = generate_dataset(gt, cfg)
        b = generate_dataset(gt, cfg)
        assert a.samples == b.samples
        assert len(a) == 200

    def test_uniform_labels_match_ground_truth(self):
        gt = builtin("arithmetic_expr")
        ds = generate_dataset(gt, GenConfig(total=300, len_min=1, len_max=12, seed=5))
        for s in ds:
            assert s.label == vdpa_accepts(gt.vdpa, s.word).accepted

    def test_lengths_respected(self):
        gt = builtin("dyck1")
        ds = generate_dataset(gt, GenConfig(total=100, len_min=6, len_max=9, seed=1))
        assert all(6 <= len(s.word) <= 9 for s in ds)

    def test_balanced_mode_halves(self):
        gt = builtin("dyck2")
        ds = generate_dataset(gt, GenConfig(total=301, len_min=2, len_max=20,
                                            seed=8, mode="balanced"))
        pos = [s for s in ds if s.label]
        neg = [s for s in ds if not s.label]
        assert len(pos) == 151 and len(neg) == 150
        assert len({s.word for s in pos}) == 151
        assert len({s.word for s in neg}) == 150
        for s in pos:
            assert vdpa_accepts(gt.vdpa, s.word).accepted
        for s in neg:
            assert not vdpa_accepts(gt.vdpa, s.word).accepted

    def test_balanced_mode_exhaustion(self):
        # only "aabb" is accepted at length 4, so 2 distinct positives
        # cannot exist and the retry budget must run out
        gt = builtin("anbn")
        with pytest.raises(GenerationError):
            generate_dataset(gt, GenConfig(total=4, len_min=4, len_max=4,
                                           seed=0, mode="balanced"))

    def test_different_seeds_differ(self):
        gt = builtin("dyck1")
        a = generate_dataset(gt, GenConfig(total=100, seed=1))
        b = generate_dataset(gt, GenConfig(total=100, seed=2))
        assert a.samples != b.samples


class TestSplitDataset:
    def test_partition_and_coverage(self):
        gt = builtin("dyck1")
        ds = generate_dataset(gt, GenConfig(total=400, len_min=2, len_max=14,
                                            seed=3, mode="balanced"))
        train, evl = split_dataset(ds, seed=3)
        train_words = {s.word for s in train}
        eval_words = {s.word for s in evl}
        assert not train_words & eval_words
        assert len(train_words) + len(eval_words) == len({s.word for s in ds})
        for part in (train, evl):
            assert any(s.label for s in part)
            assert any(not s.label for s in part)

    def test_deterministic(self):
        gt = builtin("dyck1")
        ds = generate_dataset(gt, GenConfig(total=120, len_min=2, len_max=10,
                                            seed=4, mode="balanced"))
        assert split_dataset(ds, seed=9)[0].samples == split_dataset(ds, seed=9)[0].samples

    def test_needs_both_labels(self):
        with pytest.raises(ValueError):
            split_dataset(as_dataset([("a", True), ("b", True), ("c", True)]), seed=0)


class TestEvaluate:
    def test_perfect_model(self, parens_gt):
        # (^n)^n positives only exist at even lengths, so keep the ask small
        ds = generate_dataset(parens_gt, GenConfig(total=12, len_min=2, len_max=16,
                                                   seed=6, mode="balanced"))
        m = evaluate(parens_gt.vdpa, ds)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        assert m.fp == m.fn == 0
        assert m.total == len(ds)
        assert m.undefined == ()

    def test_hand_counted_confusion(self, parens_gt):
        ds = as_dataset([("()", True), ("(())", True), ("(", False),
                         ("))", False), ("()()", True)])
        # ground truth rejects ()(): tp=2, fn=1, tn=2
        m = evaluate(parens_gt.vdpa, ds)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 0, 1, 2)
        assert m.precision == 1.0
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(0.8)

    def test_zero_denominators_flagged(self, parens_gt):
        ds = as_dataset([("(", False), ("))", False)])
        m = evaluate(parens_gt.vdpa, ds)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
        assert set(m.undefined) == {"precision", "recall", "f1"}

    def test_empty_dataset(self, parens_gt):
        with pytest.raises(ValueError):
            evaluate(parens_gt.vdpa, LabeledDataset([]))

    def test_out_of_alphabet_symbols_count_as_rejections(self, parens_gt):
        ds = as_dataset([(("x",), False)])
        m = evaluate(parens_gt.vdpa, ds)
        assert m.tn == 1
