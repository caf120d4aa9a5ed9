import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpalearn import (
    AlphabetError,
    Dfa,
    LabeledDataset,
    NoWellMatchedSamplesError,
    VpaAlphabet,
    acceptor,
    bounded_equivalence,
    builtin,
    papni_learn,
    rpni_learn,
)
from vpalearn.automata import PAIR_SEP, validate_symbol
from vpalearn.formats import (
    FormatError,
    dump_alphabet,
    dump_automaton,
    dump_dataset,
    parse_alphabet,
    parse_automaton,
    parse_dataset,
)

from conftest import as_dataset


class TestAutomatonFormat:
    def test_dfa_round_trip(self, stack_aware_parens_dfa):
        text = dump_automaton(stack_aware_parens_dfa)
        back = parse_automaton(text)
        assert isinstance(back, Dfa)
        assert back.alphabet == stack_aware_parens_dfa.alphabet
        assert len(back.states) == 3
        for word in [(), ("(", ")|("), ("(", ")|(", "(")]:
            assert acceptor(back)(word) == acceptor(stack_aware_parens_dfa)(word)

    def test_vdpa_round_trip(self, parens_gt):
        back = parse_automaton(dump_automaton(parens_gt.vdpa))
        assert back.alphabet == parens_gt.alphabet
        assert bounded_equivalence(back, parens_gt.vdpa, 10) is None

    def test_dump_is_stable(self, parens_gt):
        assert dump_automaton(parens_gt.vdpa) == dump_automaton(parens_gt.vdpa)
        # a second round trip is a fixed point
        once = dump_automaton(parse_automaton(dump_automaton(parens_gt.vdpa)))
        assert once == dump_automaton(parens_gt.vdpa)

    def test_alphabet_survives_without_transitions(self, arith_gt):
        # "+" appears in the alphabet header even if we delete its edges
        text = dump_automaton(arith_gt.vdpa)
        assert "+" in parse_automaton(text).alphabet.internal

    def test_comments_and_blank_lines_ignored(self):
        text = "dfa\n\n# a comment\ninitial: s0\naccepting: s0  # trailing\n"
        model = parse_automaton(text)
        assert model.initial == "s0" and model.accepting == frozenset({"s0"})

    @pytest.mark.parametrize("spaced", [
        "dfa\ninitial: s0\naccepting: s0 s1\ns0 a -> s1\n",
        "dfa\ninitial: s0\naccepting: s1\ns0 a -> s1\n",
        "vdpa\ninitial: s0\naccepting: s0\ns0 ( push -> s1\ns1 ) pop ( -> s0\n",
    ])
    def test_no_space_after_the_colon(self, spaced):
        unspaced = spaced.replace("initial: ", "initial:").replace("accepting: ", "accepting:")
        assert parse_automaton(unspaced) == parse_automaton(spaced)

    @pytest.mark.parametrize("text", [
        "",
        "nfa\ninitial: s0\naccepting:\n",
        "dfa\naccepting:\ninitial: s0\n",
        "dfa\ninitial: s0 s1\naccepting:\n",
        "dfa\ninitial: s0\naccepting:\ns0 a s1\n",
        "dfa\ninitial: s0\naccepting:\ns0 a -> s1\ns0 a -> s2\n",
        "dfa\ninitial: s0\naccepting:\ns0 a push -> s1\n",
        "dfa\n# alphabet: a # b\ninitial: s0\naccepting:\n",
        "vdpa\ninitial: s0\n",
        "vdpa\ninitial: s0\ns0 a -> s0\n",
        "vdpa\ninitial: s0\naccepting: s0\ns0 a b c d -> s0\n",
        # "(" is both a call and an internal symbol: the AlphabetError comes out as a FormatError
        "vdpa\ninitial: s0\naccepting: s0\ns0 ( push -> s0\ns0 ( -> s0\n",
    ])
    def test_malformed_inputs(self, text):
        with pytest.raises(FormatError):
            parse_automaton(text)

    @pytest.mark.parametrize("kind, comment", [
        ("vdpa", "# call: ( opens a group, after Alur and Madhusudan\n"),
        ("dfa", "# alphabet: see the paper\n"),
    ], ids=["vdpa", "dfa"])
    def test_alphabet_comments_count_only_above_initial(self, kind, comment,
                                                        stack_aware_parens_dfa):
        # below `initial:` a comment is prose, even when it starts like a header
        text = dump_automaton(builtin("dyck1").vdpa if kind == "vdpa" else stack_aware_parens_dfa)
        assert parse_automaton(text + comment) == parse_automaton(text)

    def test_save_and_load(self, tmp_path, parens_gt):
        path = tmp_path / "model.aut"
        path.write_text(dump_automaton(parens_gt.vdpa))
        assert bounded_equivalence(parse_automaton(path.read_text()), parens_gt.vdpa, 8) is None


    @pytest.mark.parametrize("token", ["#", "a#b"])
    def test_unparseable_dfa_symbol_is_refused(self, token):
        # the row "s0 # -> s1" would read back as "s0", not as a transition
        dfa = rpni_learn(as_dataset([(("a", token), True), (("a",), False)]))
        assert token in dfa.alphabet
        with pytest.raises(FormatError):
            dump_automaton(dfa)


class TestDatasetFormat:
    def test_round_trip(self, worked_dataset):
        back = parse_dataset(dump_dataset(worked_dataset))
        assert back.samples == worked_dataset.samples

    def test_empty_word_line(self):
        ds = parse_dataset("+\n- ( )\n")
        assert ds.samples[0].word == () and ds.samples[0].label
        assert ds.samples[1].word == ("(", ")")

    def test_bad_label(self):
        with pytest.raises(FormatError):
            parse_dataset("? a b\n")

    def test_comments_ignored(self):
        ds = parse_dataset("# header\n+ a  # trailing\n")
        assert ds.samples == as_dataset([(("a",), True)]).samples

    def test_save_and_load(self, tmp_path, worked_dataset):
        path = tmp_path / "data.txt"
        path.write_text(dump_dataset(worked_dataset))
        assert parse_dataset(path.read_text()).samples == worked_dataset.samples

    @pytest.mark.parametrize("token", ["#", "a#b", "a b", "a\nb", ""])
    def test_unparseable_token_is_refused(self, token):
        # such a token would come back as a comment, two tokens or nothing
        with pytest.raises(FormatError):
            dump_dataset(as_dataset([(("a", token), True)]))


class TestAlphabetFormat:
    def test_round_trip(self, arith_alphabet):
        assert parse_alphabet(dump_alphabet(arith_alphabet)) == arith_alphabet

    def test_empty_partitions(self):
        alpha = parse_alphabet("internal: a b\ncall:\nreturn:\n")
        assert alpha == VpaAlphabet(frozenset({"a", "b"}), frozenset(), frozenset())

    def test_missing_line(self):
        with pytest.raises(FormatError):
            parse_alphabet("internal: a\ncall: (\n")

    def test_duplicate_line(self):
        with pytest.raises(FormatError):
            parse_alphabet("internal: a\ninternal: b\ncall:\nreturn:\n")

    def test_invalid_partition(self):
        # call without return is not a valid visibly-pushdown alphabet
        with pytest.raises(FormatError):
            parse_alphabet("internal:\ncall: (\nreturn:\n")


def _is_symbol(token: str) -> bool:
    try:
        validate_symbol(token)
    except AlphabetError:
        return False
    return True


# every token the validator accepts, with the formats' own keywords and
# separators drawn often enough to collide with the syntax
_symbols = st.one_of(
    st.sampled_from(["->", "push", "pop", "+", "-", ":", PAIR_SEP, "a|b", "dfa", "vdpa",
                     "initial:", "accepting:", "alphabet:", "internal:", "call:", "return:"]),
    st.text(min_size=1, max_size=4),
).filter(_is_symbol)


@st.composite
def _alphabets_and_datasets(draw):
    symbols = draw(st.lists(_symbols, min_size=1, max_size=6, unique=True))
    kinds = {sym: draw(st.sampled_from(["internal", "call", "return"]))
             for sym in symbols if PAIR_SEP not in sym}
    parts = {kind: frozenset(s for s, k in kinds.items() if k == kind)
             for kind in ("internal", "call", "return")}
    if not (parts["call"] and parts["return"]):
        parts = {"internal": frozenset(kinds), "call": frozenset(), "return": frozenset()}
    alphabet = VpaAlphabet(parts["internal"], parts["call"], parts["return"])
    # the dataset may use symbols outside the alphabet; the pushdown model
    # learns from the words over the alphabet only
    words = draw(st.dictionaries(st.lists(st.sampled_from(symbols), max_size=6).map(tuple),
                                 st.booleans(), max_size=12))
    return alphabet, as_dataset(sorted(words.items()))


def _assert_model_round_trips(model, words):
    text = dump_automaton(model)
    back = parse_automaton(text)
    assert dump_automaton(back) == text
    assert back.alphabet == model.alphabet
    assert len(back.states) == len(model.states)
    for word in words:
        assert acceptor(back)(word) == acceptor(model)(word)


@given(_alphabets_and_datasets())
@settings(max_examples=200, deadline=None)
def test_every_valid_symbol_round_trips(case):
    alphabet, dataset = case
    assert parse_dataset(dump_dataset(dataset)).samples == dataset.samples
    assert parse_alphabet(dump_alphabet(alphabet)) == alphabet
    words = [s.word for s in dataset]
    if dataset.samples:
        _assert_model_round_trips(rpni_learn(dataset), words)
    over_alphabet = LabeledDataset([s for s in dataset if set(s.word) <= alphabet.symbols])
    try:
        vdpa, _ = papni_learn(over_alphabet, alphabet)
    except NoWellMatchedSamplesError:
        return
    _assert_model_round_trips(vdpa, [s.word for s in over_alphabet])
