import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpalearn import (
    BUILTIN_NAMES,
    AlphabetError,
    Dfa,
    GenConfig,
    NoWellMatchedSamplesError,
    PapniConfig,
    Reason,
    Vdpa,
    VpaAlphabet,
    acceptor,
    bounded_equivalence,
    builtin,
    classify,
    dfa_accepts,
    generate_dataset,
    is_well_matched,
    papni_learn,
    render_dot,
    rpni_learn,
    vdpa_accepts,
)
from vpalearn.automata import canonical_names, edges, model_symbols

from conftest import (as_dataset, oracle_bounded_equivalence, oracle_dfa_walk,
                      oracle_vdpa_reason, oracle_well_matched)


def W(text: str) -> tuple:
    return tuple(text.split())


class TestVpaAlphabet:
    def test_partitions_must_be_disjoint(self):
        with pytest.raises(AlphabetError):
            VpaAlphabet(frozenset({"a"}), frozenset({"a"}), frozenset({"b"}))

    def test_call_and_return_together(self):
        with pytest.raises(AlphabetError):
            VpaAlphabet(frozenset(), frozenset({"("}), frozenset())

    def test_internal_may_be_empty(self, paren_alphabet):
        assert paren_alphabet.internal == frozenset()

    def test_symbols_reject_whitespace(self):
        with pytest.raises(AlphabetError):
            VpaAlphabet(frozenset({"a b"}), frozenset(), frozenset())

    def test_symbols_reject_comment_marker(self):
        with pytest.raises(AlphabetError):
            VpaAlphabet(frozenset({"a#"}), frozenset(), frozenset())

    def test_stack_aware_size_bound(self, arith_alphabet):
        a = arith_alphabet
        bound = len(a.internal) + len(a.call) + len(a.ret) * len(a.call)
        assert len(a.stack_aware_symbols()) <= bound


class TestConstructorChecks:
    # one valid model per kind; each case swaps in one bad field
    DFA = dict(states={"q", "r"}, alphabet={"a"}, transitions={("q", "a"): "r"},
               initial="q", accepting={"r"})
    VDPA = dict(states={"q", "r"}, alphabet=VpaAlphabet({"i"}, {"("}, {")"}),
                internal_trans={("q", "i"): "q"}, call_trans={("q", "("): "r"},
                return_trans={("r", ")", "("): "q"}, initial="q", accepting={"q"})

    @pytest.mark.parametrize("bad,message", [
        (dict(initial="x"), "initial state not in state set"),
        (dict(accepting={"r", "x"}), "accepting states not a subset of states"),
        (dict(transitions={("q", "a"): "x"}),
         re.escape("transition ('q', 'a') -> 'x' leaves the state set")),
        (dict(transitions={("x", "a"): "q"}),
         re.escape("transition ('x', 'a') -> 'q' leaves the state set")),
        (dict(transitions={("q", "b"): "r"}), "transition symbol 'b' not in alphabet"),
    ])
    def test_dfa_rejects(self, bad, message):
        with pytest.raises(ValueError, match=message):
            Dfa(**{**self.DFA, **bad})

    @pytest.mark.parametrize("bad,message", [
        (dict(initial="x"), "initial state not in state set"),
        (dict(accepting={"q", "x"}), "accepting states not a subset of states"),
        (dict(internal_trans={("q", "i"): "x"}), "state set"),
        (dict(call_trans={("x", "("): "r"}), "state set"),
        (dict(return_trans={("r", ")", "("): "x"}), "state set"),
        (dict(internal_trans={("q", "("): "q"}), "'\\(' used as internal but not in internal alphabet"),
        (dict(call_trans={("q", "i"): "r"}), "'i' used as call but not in call alphabet"),
        (dict(return_trans={("r", "(", "("): "q"}), "'\\(' used as return but not in return alphabet"),
        (dict(return_trans={("r", ")", "i"): "q"}), "stack top 'i' not a call symbol"),
    ])
    def test_vdpa_rejects(self, bad, message):
        with pytest.raises(ValueError, match=message):
            Vdpa(**{**self.VDPA, **bad})

    def test_valid_models_build(self):
        assert Dfa(**self.DFA).size == Vdpa(**self.VDPA).size == 2


_ALPHABET = VpaAlphabet({"i"}, {"(", "["}, {")"})
_STATES = st.sampled_from([0, 1, 2])


def _table(*keys):
    return st.dictionaries(st.tuples(_STATES, *keys), _STATES, max_size=8)


@st.composite
def _small_models(draw):
    accepting = draw(st.sets(_STATES))
    if draw(st.booleans()):
        symbols = sorted(_ALPHABET.stack_aware_symbols())
        return Dfa({0, 1, 2}, symbols, draw(_table(st.sampled_from(symbols))), 0, accepting)
    calls = st.sampled_from(sorted(_ALPHABET.call))
    return Vdpa({0, 1, 2}, _ALPHABET, draw(_table(st.just("i"))), draw(_table(calls)),
                draw(_table(st.just(")"), calls)), 0, accepting)


@given(_small_models())
@settings(max_examples=200, deadline=None)
def test_edges_list_each_transition_once_with_its_kind(model):
    tables: dict = {"internal": {}, "call": {}, "return": {}}
    for kind, src, sym, top, dst in edges(model):
        key = (src, sym) if top is None else (src, sym, top)
        assert key not in tables[kind]
        tables[kind][key] = dst
    if isinstance(model, Dfa):
        assert tables == {"internal": model.transitions, "call": {}, "return": {}}
    else:
        assert tables == {"internal": model.internal_trans, "call": model.call_trans,
                          "return": model.return_trans}


@st.composite
def _models_and_words(draw):
    """A small random model, a built-in, or a model learned from a built-in's
    words; then words over its symbols, a foreign token and a ``ret|call``
    token, the empty word first."""
    source = draw(st.sampled_from(["small", "builtin", "learned"]))
    if source == "small":
        model = draw(_small_models())
    else:
        gt = builtin(draw(st.sampled_from(BUILTIN_NAMES)))
        model = gt.vdpa
        if source == "learned":
            own = st.lists(st.sampled_from(sorted(gt.alphabet.symbols)), max_size=10).map(tuple)
            train = draw(st.dictionaries(own, st.booleans(), min_size=1, max_size=12))
            try:
                model = papni_learn(as_dataset(sorted(train.items())), gt.alphabet)[0]
            except NoWellMatchedSamplesError:
                pass
    symbols = sorted(model_symbols(model) | {"foreign", ")|("})
    words = st.lists(st.sampled_from(symbols), max_size=10).map(tuple)
    return model, [()] + draw(st.lists(words, min_size=1, max_size=8))


@given(_models_and_words())
@settings(max_examples=300, deadline=None)
def test_acceptor_agrees_with_the_oracles(case):
    # a missing move, a foreign symbol, an empty pop and open calls reject
    model, words = case
    accepts = acceptor(model)
    for word in words:
        if isinstance(model, Dfa):
            expected = oracle_dfa_walk(model, word)
        else:
            expected = oracle_vdpa_reason(model, word) == "Accepted"
        assert accepts(word) is expected, word
        assert classify(model, word) is expected, word


@given(_models_and_words())
@settings(max_examples=300, deadline=None)
def test_reason_run_agrees_with_the_oracles(case):
    # a foreign symbol raises only when the run reaches it: an empty pop or
    # a missing move before it ends the run with its verdict
    model, words = case
    for word in words:
        if isinstance(model, Vdpa):
            expected = oracle_vdpa_reason(model, word)
            if expected is None:
                with pytest.raises(AlphabetError):
                    vdpa_accepts(model, word)
            else:
                assert vdpa_accepts(model, word) is Reason(expected), word
            continue
        foreign = [i for i, sym in enumerate(word) if sym not in model.alphabet]
        if not foreign:
            assert dfa_accepts(model, word) is oracle_dfa_walk(model, word), word
            continue
        # with every state accepting, the walk accepts exactly the words it
        # runs to the end, here the prefix before the first foreign symbol
        everywhere = dataclasses.replace(model, accepting=model.states)
        if oracle_dfa_walk(everywhere, word[:foreign[0]]):
            with pytest.raises(AlphabetError):
                dfa_accepts(model, word)
        else:
            assert dfa_accepts(model, word) is False, word


class TestDfaAccepts:
    def test_empty_word_rejected_by_worked_model(self, stack_aware_parens_dfa):
        assert not dfa_accepts(stack_aware_parens_dfa, ())

    def test_empty_word_is_initial_acceptance(self):
        dfa = Dfa(frozenset({"q"}), frozenset({"x"}), {}, "q", frozenset({"q"}))
        assert dfa_accepts(dfa, ())

    def test_nested_pair_accepted(self, stack_aware_parens_dfa):
        assert dfa_accepts(stack_aware_parens_dfa, W("( ( )|( )|("))

    def test_missing_transition_rejects(self, stack_aware_parens_dfa):
        assert not dfa_accepts(stack_aware_parens_dfa, W(")|( ( )|("))
        # s2 is a sink with full transitions, so this lands in s2: rejected
        assert not dfa_accepts(stack_aware_parens_dfa, W("( )|( ("))

    def test_foreign_symbol_is_an_error(self, stack_aware_parens_dfa):
        with pytest.raises(AlphabetError):
            dfa_accepts(stack_aware_parens_dfa, ("x",))

    def test_agrees_with_table_walk_oracle(self):
        rng = random.Random(11)
        symbols = ["a", "b", "c"]
        for _ in range(25):
            n = rng.randint(1, 5)
            states = list(range(n))
            transitions = {(q, s): rng.choice(states) for q in states for s in symbols}
            dfa = Dfa(frozenset(states), frozenset(symbols), transitions, 0,
                      frozenset(q for q in states if rng.random() < 0.5))
            words = [()]
            for _ in range(120):
                words.append(tuple(rng.choice(symbols)
                                   for _ in range(rng.randint(1, 6))))
            for word in words:
                assert dfa_accepts(dfa, word) == oracle_dfa_walk(dfa, word)


class TestVdpaAccepts:
    def test_arithmetic_accepted_words(self, arith_gt):
        for text in ("1", "( 1 )", "1 + ( 1 )", "( 1 ) + ( ( 1 ) )"):
            assert vdpa_accepts(arith_gt.vdpa, W(text)).accepted, text

    def test_arithmetic_rejected_words(self, arith_gt):
        for text in ("( )", ") (", "( 1 ) + ( )", "( ( ) )"):
            verdict = vdpa_accepts(arith_gt.vdpa, W(text))
            assert not verdict.accepted, text

    def test_pop_from_empty_stack(self, parens_gt):
        verdict = vdpa_accepts(parens_gt.vdpa, W(") ("))
        assert verdict is Reason.POP_FROM_EMPTY_STACK

    def test_leftover_stack(self, parens_gt):
        verdict = vdpa_accepts(parens_gt.vdpa, W("( ( )"))
        assert verdict is Reason.NON_EMPTY_STACK_AT_END

    def test_empty_word(self, parens_gt, arith_gt):
        # neither initial state is accepting
        assert not vdpa_accepts(parens_gt.vdpa, ()).accepted
        assert vdpa_accepts(parens_gt.vdpa, ()) is Reason.REJECTED_AT_STATE

    def test_pure_function(self, parens_gt):
        word = W("( ( ) )")
        assert vdpa_accepts(parens_gt.vdpa, word) == vdpa_accepts(parens_gt.vdpa, word)

    @given(st.lists(st.sampled_from(["(", ")"]), max_size=14))
    @settings(max_examples=300, deadline=None)
    def test_accepted_implies_well_matched(self, word):
        from vpalearn import builtin

        gt = builtin("balanced_parens")
        if vdpa_accepts(gt.vdpa, word).accepted:
            assert is_well_matched(word, gt.alphabet)

    @given(st.sampled_from(BUILTIN_NAMES), st.data())
    @settings(max_examples=200, deadline=None)
    def test_no_vdpa_accepts_a_non_well_matched_word(self, name, data):
        # empty-stack acceptance: a word that pops an empty stack or leaves
        # calls open is rejected by every pushdown model, learned or not,
        # so comparing two of them on such words can never find a difference
        gt = builtin(name)
        words = st.lists(st.sampled_from(sorted(gt.alphabet.symbols)), max_size=10).map(tuple)
        train = data.draw(st.dictionaries(words, st.booleans(), min_size=1, max_size=12))
        models = [gt.vdpa]
        try:
            models.append(papni_learn(as_dataset(sorted(train.items())), gt.alphabet)[0])
        except NoWellMatchedSamplesError:
            pass
        word = data.draw(words.filter(lambda w: not oracle_well_matched(w, gt.alphabet)))
        for model in models:
            assert not vdpa_accepts(model, word).accepted

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_reason_matches_an_independent_walk(self, name, data):
        # every Reason, and the step at which a foreign symbol raises: a run
        # that stops earlier (empty pop, missing move) returns its verdict
        gt = builtin(name)
        own = st.lists(st.sampled_from(sorted(gt.alphabet.symbols)), max_size=10).map(tuple)
        train = data.draw(st.dictionaries(own, st.booleans(), min_size=1, max_size=12))
        models = [gt.vdpa]
        try:
            models.append(papni_learn(as_dataset(sorted(train.items())), gt.alphabet)[0])
        except NoWellMatchedSamplesError:
            pass
        words = st.lists(st.sampled_from(sorted(gt.alphabet.symbols) + ["foreign"]),
                         max_size=10).map(tuple)
        for word in data.draw(st.lists(words, min_size=1, max_size=8)):
            for model in models:
                expected = oracle_vdpa_reason(model, word)
                if expected is None:
                    with pytest.raises(AlphabetError):
                        vdpa_accepts(model, word)
                    continue
                verdict = vdpa_accepts(model, word)
                assert verdict is Reason(expected), word
                assert verdict.accepted is (expected == "Accepted")


class TestBoundedEquivalence:
    def test_reflexive(self, parens_gt):
        assert bounded_equivalence(parens_gt.vdpa, parens_gt.vdpa, 8) is None

    def test_alphabet_mismatch(self, parens_gt, arith_gt):
        with pytest.raises(AlphabetError):
            bounded_equivalence(parens_gt.vdpa, arith_gt.vdpa, 3)

    def test_finds_shortest_counterexample(self, parens_gt):
        from vpalearn import builtin

        dyck = builtin("dyck1")
        # dyck1 accepts the empty word and ()(); the worked-example target
        # does neither, and the empty word is the shortest difference
        assert bounded_equivalence(parens_gt.vdpa, dyck.vdpa, 6) == ()

    def test_partition_mismatch(self):
        # ")" is a return symbol for dyck1 but an internal one here, so the
        # flat model accepts words that are not well-matched for dyck1
        flat = Vdpa(frozenset({"q"}), VpaAlphabet(frozenset({"(", ")"})),
                    {("q", "("): "q", ("q", ")"): "q"}, {}, {}, "q", frozenset({"q"}))
        with pytest.raises(AlphabetError):
            bounded_equivalence(builtin("dyck1").vdpa, flat, 4)

    def test_lengths_beyond_enumeration(self, parens_gt):
        # about 6.5e9 well-matched words of length 40 over one bracket
        # pair, and 1,100 symbols are past Python's default recursion
        # limit: both need each configuration visited once, without recursion
        assert bounded_equivalence(parens_gt.vdpa, parens_gt.vdpa, 40) is None
        a_star = Dfa(frozenset({"q"}), frozenset({"a"}), {("q", "a"): "q"}, "q", frozenset({"q"}))
        assert bounded_equivalence(a_star, a_star, 1100) is None
        # s2 is the sink after a pop followed by a push
        wider = dataclasses.replace(parens_gt.vdpa, accepting=parens_gt.vdpa.accepting | {"s2"})
        witness = bounded_equivalence(parens_gt.vdpa, wider, 40)
        assert witness == W("( ) ( )")
        assert classify(parens_gt.vdpa, witness) != classify(wider, witness)

    def test_deep_chain_without_recursion(self):
        # one configuration per length, 1,199 symbols deep: a search that
        # recursed once per symbol would pass Python's recursion limit
        chain = Dfa(frozenset(range(1200)), frozenset({"a"}),
                    {(i, "a"): i + 1 for i in range(1199)}, 0, frozenset({1199}))
        empty = dataclasses.replace(chain, accepting=frozenset())
        assert bounded_equivalence(chain, empty, 1100) is None
        assert bounded_equivalence(chain, empty, 1300) == ("a",) * 1199


@st.composite
def _complete_models(draw):
    """A DFA or a VDPA over the plain symbols of ``_ALPHABET`` with every
    move defined, so that most states are reached and differences lie
    deeper; a DFA and a VDPA drawn here share their symbols."""
    if draw(st.booleans()):
        symbols = sorted(_ALPHABET.symbols)
        return Dfa({0, 1, 2}, symbols, {(s, a): draw(_STATES) for s in range(3) for a in symbols},
                   0, draw(st.sets(_STATES)))
    calls = sorted(_ALPHABET.call)
    return Vdpa({0, 1, 2}, _ALPHABET, {(s, "i"): draw(_STATES) for s in range(3)},
                {(s, c): draw(_STATES) for s in range(3) for c in calls},
                {(s, ")", c): draw(_STATES) for s in range(3) for c in calls},
                0, draw(st.sets(_STATES)))


@st.composite
def _model_pairs(draw):
    """Two drawn models, of the same kind or mixed, or a model and a copy
    with the acceptance of one state after the initial one flipped."""
    models = st.one_of(_small_models(), _complete_models())
    a = draw(models)
    if draw(st.booleans()):
        return a, draw(models)
    return a, dataclasses.replace(a, accepting=a.accepting ^ {draw(st.sampled_from([1, 2]))})


def _same_outcome(a, b, max_len):
    try:
        expected = oracle_bounded_equivalence(a, b, max_len)
    except AlphabetError:
        with pytest.raises(AlphabetError):
            bounded_equivalence(a, b, max_len)
        return
    assert bounded_equivalence(a, b, max_len) == expected


@given(_model_pairs(), st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_bounded_equivalence_equals_the_enumeration(pair, max_len):
    _same_outcome(*pair, max_len)


@pytest.mark.parametrize("grammar", ["arithmetic_expr", "dyck2"])
@pytest.mark.parametrize("seed", [73, 74, 75, 76])
def test_learned_models_equal_the_enumeration(grammar, seed):
    # the pinned balanced sets of test_rpni.py; both backends' pipeline
    # models against the truth and against each other, and the raw DFA
    # over the plain symbols against the truth
    gt = builtin(grammar)
    dataset = generate_dataset(gt, GenConfig(total=200, seed=seed, mode="balanced"))
    rpni, _ = papni_learn(dataset, gt.alphabet, PapniConfig(backend="rpni"))
    edsm, _ = papni_learn(dataset, gt.alphabet, PapniConfig(backend="edsm"))
    for a, b in [(rpni, gt.vdpa), (gt.vdpa, edsm), (rpni, edsm), (rpni_learn(dataset), gt.vdpa)]:
        _same_outcome(a, b, 8)


class TestRenderDot:
    def test_single_state_dfa(self):
        dfa = Dfa(frozenset({"q"}), frozenset(), {}, "q", frozenset({"q"}))
        dot = render_dot(dfa)
        assert dot.count("doublecircle") == 1
        assert "digraph" in dot

    def test_parens_vdpa_shape(self, parens_gt):
        dot = render_dot(parens_gt.vdpa)
        assert dot.count("shape=circle") == 2
        assert dot.count("shape=doublecircle") == 1
        assert dot.count("push(") == 3
        assert dot.count("pop(") == 3

    def test_stack_aware_dfa_shape(self, stack_aware_parens_dfa):
        dot = render_dot(stack_aware_parens_dfa)
        assert dot.count("shape=") == 4  # 3 states + hidden start node
        assert dot.count("label=\"(\"") == 3

    @pytest.mark.parametrize("model,labels", [
        (Dfa(frozenset({"q"}), frozenset({'a"b', "c\\d"}),
             {("q", 'a"b'): "q", ("q", "c\\d"): "q"}, "q", frozenset({"q"})),
         {'a"b', "c\\d"}),
        (Vdpa(frozenset({"q"}), VpaAlphabet(frozenset({'"'}), frozenset({"c\\"}),
                                            frozenset({'\\"'})),
              {("q", '"'): "q"}, {("q", "c\\"): "q"}, {("q", '\\"', "c\\"): "q"},
              "q", frozenset({"q"})),
         {'"', "c\\ / push(c\\)", '\\" / pop(c\\)'}),
    ])
    def test_labels_are_quoted_dot_strings(self, model, labels):
        # a symbol may hold '"' and '\\': every label must still be one DOT
        # quoted string that reads back as the text it stands for
        quoted = re.compile(r'  \S+(?: -> \S+)? \[(?:shape=\w+, )?label="((?:[^"\\]|\\.)*)"\];')
        edge_labels = set()
        for line in render_dot(model).splitlines():
            if "label=" in line:
                match = quoted.fullmatch(line)
                assert match, line
                text = re.sub(r"\\(.)", r"\1", match.group(1))
                if "->" in line:
                    edge_labels.add(text)
        assert edge_labels == labels

    def test_canonical_names_start_at_initial(self, parens_gt):
        names = canonical_names(parens_gt.vdpa)
        assert names[parens_gt.vdpa.initial] == "s0"
