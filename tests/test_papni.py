import random

import pytest

from vpalearn import (
    AlphabetError,
    Dfa,
    LabeledDataset,
    NoWellMatchedSamplesError,
    PapniConfig,
    VpaAlphabet,
    acceptor,
    bounded_equivalence,
    dfa_to_vdpa,
    papni_learn,
    rpni_learn,
    runner,
    to_stack_aware,
)

from conftest import as_dataset, random_well_matched

# papni_learn takes one path for both: no call/return symbols, and some
_ALPHABETS = [
    VpaAlphabet(frozenset({"a", "b"})),
    VpaAlphabet(frozenset({"a"}), frozenset({"b"}), frozenset({"c"})),
]


class TestPapniConfig:
    def test_default_backend(self):
        assert PapniConfig().backend == "rpni"

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            PapniConfig(backend="lstar")


class TestDfaToVdpa:
    def test_structure_is_preserved(self, stack_aware_parens_dfa, paren_alphabet):
        vdpa = dfa_to_vdpa(stack_aware_parens_dfa, paren_alphabet)
        assert vdpa.states == stack_aware_parens_dfa.states
        assert vdpa.initial == stack_aware_parens_dfa.initial
        assert vdpa.accepting == stack_aware_parens_dfa.accepting
        n_edges = (len(vdpa.internal_trans) + len(vdpa.call_trans)
                   + len(vdpa.return_trans))
        assert n_edges == len(stack_aware_parens_dfa.transitions)

    def test_return_edges_are_keyed_by_top(self, stack_aware_parens_dfa, paren_alphabet):
        vdpa = dfa_to_vdpa(stack_aware_parens_dfa, paren_alphabet)
        assert ("s0", ")", "(") in vdpa.return_trans

    def test_classification_is_preserved(self, stack_aware_parens_dfa, paren_alphabet):
        # the lift must agree with the DFA: DFA reads the rewritten word,
        # the pushdown model reads the original one
        vdpa = dfa_to_vdpa(stack_aware_parens_dfa, paren_alphabet)
        rng = random.Random(31)
        for _ in range(400):
            word = random_well_matched(rng, paren_alphabet, 16)
            rewritten = to_stack_aware(word, paren_alphabet)
            assert runner(vdpa)(word).accepted == acceptor(stack_aware_parens_dfa)(rewritten)

    def test_foreign_symbol_rejected(self, paren_alphabet):
        dfa = Dfa(frozenset({"q"}), frozenset({"x"}), {(("q"), "x"): "q"},
                  "q", frozenset({"q"}))
        with pytest.raises(ValueError):
            dfa_to_vdpa(dfa, paren_alphabet)

    @pytest.mark.parametrize("sym", ["x|(", ")|y", ")"])
    def test_edge_off_the_alphabet_rejected(self, paren_alphabet, sym):
        # a pair whose return or top is foreign, and a bare return, which
        # only a pair may carry over the stack-aware alphabet
        dfa = Dfa(frozenset({"q"}), frozenset({sym}), {("q", sym): "q"},
                  "q", frozenset({"q"}))
        with pytest.raises(ValueError):
            dfa_to_vdpa(dfa, paren_alphabet)


class TestPapniLearn:
    def test_worked_example(self, worked_dataset, paren_alphabet, parens_gt):
        vdpa, report = papni_learn(worked_dataset, paren_alphabet)
        assert vdpa.size == 3
        assert report.kept == 6 and report.dropped_negative == 5
        assert bounded_equivalence(vdpa, parens_gt.vdpa, 12) is None

    def test_edsm_backend_also_converges(self, worked_dataset, paren_alphabet, parens_gt):
        vdpa, _ = papni_learn(worked_dataset, paren_alphabet,
                              PapniConfig(backend="edsm"))
        assert bounded_equivalence(vdpa, parens_gt.vdpa, 10) is None

    def test_no_well_matched_samples(self, paren_alphabet):
        ds = as_dataset([("(", False), (")", False), ("((", True)])
        with pytest.raises(NoWellMatchedSamplesError):
            papni_learn(ds, paren_alphabet)

    def test_consistent_with_kept_samples(self, arith_alphabet):
        rng = random.Random(47)
        symbols = sorted(arith_alphabet.symbols)
        unique = {}
        for _ in range(150):
            word = tuple(rng.choice(symbols) for _ in range(rng.randrange(0, 8)))
            unique.setdefault(word, rng.random() < 0.5)
        ds = as_dataset(sorted(unique.items()))
        from vpalearn import is_well_matched

        try:
            vdpa, _ = papni_learn(ds, arith_alphabet)
        except NoWellMatchedSamplesError:
            pytest.skip("degenerate draw")
        for word, label in unique.items():
            if is_well_matched(word, arith_alphabet):
                assert runner(vdpa)(word).accepted is label

    def test_degenerate_alphabet_matches_plain_rpni(self):
        alpha = VpaAlphabet(frozenset({"a", "b"}), frozenset(), frozenset())
        pairs = [("", True), ("a", False), ("ab", True), ("abab", True),
                 ("b", False), ("aa", False)]
        ds = as_dataset(pairs)
        vdpa, report = papni_learn(ds, alpha)
        dfa = rpni_learn(ds)
        assert report.kept == len(ds) and report.dropped == 0
        assert not vdpa.call_trans and not vdpa.return_trans
        assert vdpa.size == dfa.size
        rng = random.Random(9)
        for _ in range(300):
            word = tuple(rng.choice("ab") for _ in range(rng.randrange(0, 10)))
            assert runner(vdpa)(word).accepted == acceptor(dfa)(word)

    @pytest.mark.parametrize("alpha", _ALPHABETS, ids=["internal_only", "call_return"])
    def test_foreign_dataset_symbol(self, alpha):
        # "cx": with call_return, c pops an empty stack before the foreign x
        for foreign in ("abx", "cx"):
            ds = as_dataset([("ab", True), (foreign, False)])
            with pytest.raises(AlphabetError, match="'[cx]'"):
                papni_learn(ds, alpha)

    @pytest.mark.parametrize("alpha", _ALPHABETS, ids=["internal_only", "call_return"])
    def test_empty_dataset(self, alpha):
        with pytest.raises(NoWellMatchedSamplesError):
            papni_learn(LabeledDataset([]), alpha)

    def test_accepts_only_well_matched(self, worked_dataset, paren_alphabet):
        from vpalearn import is_well_matched

        vdpa, _ = papni_learn(worked_dataset, paren_alphabet)
        rng = random.Random(13)
        for _ in range(500):
            word = tuple(rng.choice("()") for _ in range(rng.randrange(0, 12)))
            if runner(vdpa)(word).accepted:
                assert is_well_matched(word, paren_alphabet)
