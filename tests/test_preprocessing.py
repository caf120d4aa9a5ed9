import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpalearn import (
    DatasetError,
    LabeledDataset,
    LabeledSample,
    TransformError,
    VpaAlphabet,
    dfa_accepts,
    from_stack_aware,
    is_well_matched,
    preprocess_dataset,
    rpni_learn,
    to_stack_aware,
)

from conftest import WORKED_SAMPLES, as_dataset, oracle_well_matched, random_well_matched

XML = VpaAlphabet(frozenset({"text"}), frozenset({"<a>", "<b>"}),
                  frozenset({"</a>", "</b>"}))


class TestLabeledDataset:
    def test_conflicting_labels_rejected(self):
        with pytest.raises(DatasetError):
            LabeledDataset([LabeledSample(("a",), True), LabeledSample(("a",), False)])

    def test_duplicate_consistent_samples_allowed(self):
        ds = LabeledDataset([LabeledSample(("a",), True), LabeledSample(("a",), True)])
        assert len(ds) == 2

    def test_pairs_are_coerced(self):
        ds = LabeledDataset([(("a", "b"), True)])
        assert ds.samples[0] == LabeledSample(("a", "b"), True)

    def test_symbols(self, worked_dataset):
        assert worked_dataset.symbols() == {"(", ")"}

    def test_integer_labels_become_bools(self):
        # the learners test `label is True`, so a 1 kept as an int would be
        # learned as a negative and the model would reject its own positive
        ds = LabeledDataset([(("a",), 1), (("a", "a"), 0)])
        assert [s.label for s in ds] == [True, False]
        assert all(type(s.label) is bool for s in ds)
        model = rpni_learn(ds)
        assert dfa_accepts(model, ("a",))
        assert not dfa_accepts(model, ("a", "a"))

    @pytest.mark.parametrize("label", [2, -1, 0.5, 1.0, 0.0, "+", "True", None])
    def test_other_labels_rejected(self, label):
        with pytest.raises(ValueError):
            LabeledSample(("a",), label)


class TestIsWellMatched:
    @pytest.mark.parametrize("text,expected", [
        ("", True),
        ("( )", True),
        ("( ( ) )", True),
        ("( ) ( )", True),
        ("(", False),
        (")", False),
        (") (", False),
        ("( ) )", False),
        ("( ( )", False),
    ])
    def test_parens(self, paren_alphabet, text, expected):
        assert is_well_matched(tuple(text.split()), paren_alphabet) is expected

    def test_worked_example_drops_exactly_five(self, paren_alphabet):
        kept = [w for w, _ in WORKED_SAMPLES if w and is_well_matched(w, paren_alphabet)]
        assert sorted(kept) == sorted(["()", "(())", "()(())", "()()", "()()()"])

    def test_internal_symbols_are_neutral(self, arith_alphabet):
        assert is_well_matched(("1", "+", "1"), arith_alphabet)

    def test_agrees_with_stack_oracle(self):
        rng = random.Random(3)
        for _ in range(500):
            word = tuple(rng.choice("()x") for _ in range(rng.randrange(0, 12)))
            alpha = VpaAlphabet({"x"}, {"("}, {")"})
            assert is_well_matched(word, alpha) == oracle_well_matched(word, alpha)


class TestToStackAware:
    def test_simple_pair(self, paren_alphabet):
        assert to_stack_aware(("(", ")"), paren_alphabet) == ("(", ")|(")

    def test_mixed_calls(self):
        word = ("<a>", "<b>", "text", "</b>", "</a>")
        assert to_stack_aware(word, XML) == (
            "<a>", "<b>", "text", "</b>|<b>", "</a>|<a>")

    def test_length_preserved(self, paren_alphabet):
        word = tuple("(())()")
        assert len(to_stack_aware(word, paren_alphabet)) == len(word)

    def test_underflow(self, paren_alphabet):
        with pytest.raises(TransformError):
            to_stack_aware((")", "("), paren_alphabet)

    def test_leftover_stack(self, paren_alphabet):
        with pytest.raises(TransformError):
            to_stack_aware(("(",), paren_alphabet)

    def test_round_trip_on_worked_positives(self, paren_alphabet):
        for text, _ in WORKED_SAMPLES:
            word = tuple(text)
            if is_well_matched(word, paren_alphabet):
                assert from_stack_aware(to_stack_aware(word, paren_alphabet)) == word

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_random(self, seed):
        rng = random.Random(seed)
        word = random_well_matched(rng, XML, 20)
        assert from_stack_aware(to_stack_aware(word, XML)) == word

    def test_injective_on_random_sample(self):
        rng = random.Random(17)
        words = {random_well_matched(rng, XML, 16) for _ in range(400)}
        images = {to_stack_aware(w, XML) for w in words}
        assert len(images) == len(words)

    def test_extended_alphabet_stays_within_bound(self):
        rng = random.Random(5)
        observed = set()
        for _ in range(300):
            observed.update(to_stack_aware(random_well_matched(rng, XML, 18), XML))
        bound = len(XML.internal) + len(XML.call) + len(XML.ret) * len(XML.call)
        assert observed <= XML.stack_aware_symbols()
        assert len(XML.stack_aware_symbols()) <= bound


class TestPreprocessDataset:
    def test_worked_example_counts(self, worked_dataset, paren_alphabet):
        kept, report = preprocess_dataset(worked_dataset, paren_alphabet)
        # the empty word and the five matched words survive
        assert report.kept == 6 and len(kept) == 6
        assert report.dropped_positive == 0
        assert report.dropped_negative == 5
        assert not report.has_anomaly
        assert report.observed_pairs == {(")", "(")}

    def test_kept_words_are_rewritten(self, worked_dataset, paren_alphabet):
        kept, _ = preprocess_dataset(worked_dataset, paren_alphabet)
        lookup = {s.word: s.label for s in kept}
        assert lookup[("(", ")|(")] is True
        assert lookup[("(", "(", ")|(", ")|(")] is True
        assert lookup[("(", ")|(", "(", ")|(")] is False
        assert lookup[()] is False

    def test_dropped_positive_is_an_anomaly(self, paren_alphabet):
        ds = as_dataset([("((", True), ("()", True)])
        _, report = preprocess_dataset(ds, paren_alphabet)
        assert report.dropped_positive == 1
        assert report.has_anomaly
        assert any("anomaly" in line for line in report.lines())

    def test_labels_never_change(self, paren_alphabet):
        rng = random.Random(23)
        alpha = paren_alphabet
        samples = []
        for _ in range(200):
            word = tuple(rng.choice("()") for _ in range(rng.randrange(0, 10)))
            samples.append((word, rng.random() < 0.5))
        unique = {w: l for w, l in samples}
        ds = as_dataset(sorted(unique.items()))
        kept, report = preprocess_dataset(ds, alpha)
        assert report.kept + report.dropped == len(ds)
        for s in kept:
            assert unique[from_stack_aware(s.word)] is s.label

    def test_empty_dataset(self, paren_alphabet):
        kept, report = preprocess_dataset(LabeledDataset([]), paren_alphabet)
        assert len(kept) == 0 and report.kept == 0 and report.dropped == 0
