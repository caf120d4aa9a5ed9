import hashlib
import random
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpalearn import (
    DatasetError,
    GenConfig,
    LabeledDataset,
    LabeledSample,
    PapniConfig,
    build_pta,
    builtin,
    dfa_accepts,
    edsm_learn,
    generate_dataset,
    papni_learn,
    preprocess_dataset,
    render_dot,
    rpni_learn,
)
from vpalearn.formats import dump_automaton
from vpalearn.rpni import MergeState, _blue_frontier, _emit_dfa

from conftest import as_dataset, distinct_prefixes, reference_learn


def _random_dataset(rng, symbols, n, max_len):
    unique = {}
    for _ in range(n):
        word = tuple(rng.choice(symbols) for _ in range(rng.randrange(0, max_len + 1)))
        unique.setdefault(word, rng.random() < 0.5)
    return as_dataset(sorted(unique.items()))


class TestBuildPta:
    def test_node_count_is_distinct_prefix_count(self, table1_dataset):
        pta = build_pta(table1_dataset)
        assert pta.size == distinct_prefixes(s.word for s in table1_dataset)
        assert pta.size == 18

    def test_preprocessed_worked_example_size(self, worked_dataset, paren_alphabet):
        kept, _ = preprocess_dataset(worked_dataset, paren_alphabet)
        pta = build_pta(kept)
        assert pta.size == distinct_prefixes(s.word for s in kept)
        assert pta.size == 13

    def test_ids_are_shortlex(self):
        pta = build_pta(as_dataset([("ab", True), ("aa", False), ("b", True)]))
        # shortlex over access strings: ε, a, b, aa, ab; child[node * 2 + i]
        # is the child on symbols[i], 0 for none
        assert pta.symbols == ("a", "b")
        assert pta.child[0:2] == [1, 2]
        assert pta.child[2:4] == [3, 4]
        assert pta.child[4:] == [0] * 6
        assert pta.label == [None, None, True, False, True]

    def test_interior_nodes_unlabeled(self, table1_dataset):
        pta = build_pta(table1_dataset)
        ends = {s.word for s in table1_dataset}
        assert pta.label[0] is None  # the empty word is not in this dataset
        labeled = sum(1 for l in pta.label if l is not None)
        assert labeled == len(ends)

    @pytest.mark.parametrize("samples, shown", [
        ([(("a",), True), (("a",), False)], "'a'"),
        ([((), False), ((), True)], "'ε'"),
        # sorting brings the pair together, whatever lies between them
        ([(("a", "b"), True), (("b",), False), ((), True), (("a",), False),
          (("a", "b", "a"), True), (("a", "b"), False)], "'a b'"),
    ], ids=["same_word", "empty_word", "separated"])
    def test_conflict_raises(self, samples, shown):
        ds = LabeledDataset.__new__(LabeledDataset)
        # bypass the dataset's own conflict check to exercise the PTA's
        ds.samples = [LabeledSample(w, l) for w, l in samples]
        with pytest.raises(DatasetError, match=f"^conflicting labels for word {shown}$"):
            build_pta(ds)

    def test_root_label_from_empty_word(self, worked_dataset):
        pta = build_pta(worked_dataset)
        assert pta.label[0] is False


class TestMergeState:
    def test_rollback_restores_everything(self, table1_dataset):
        pta = build_pta(table1_dataset)
        merger = MergeState(pta)
        snapshot = (list(merger.parent), list(merger.child), list(merger.count))
        for blue in _blue_frontier(merger, [0]):
            if merger.trial_merge(0, blue) is not None:
                merger.rollback()
            assert (list(merger.parent), list(merger.child), list(merger.count)) == snapshot

    def test_conflicting_merge_returns_none(self):
        pta = build_pta(as_dataset([("a", True), ("b", False)]))
        merger = MergeState(pta)
        ra, rb = merger.find(1), merger.find(2)
        assert merger.trial_merge(ra, rb) is None

    def test_score_counts_label_pairs(self):
        pta = build_pta(as_dataset([("a", True), ("", True)]))
        merger = MergeState(pta)
        score = merger.trial_merge(0, 1)
        assert score == 1  # one accepting node on each side


@pytest.fixture(scope="module")
def traced_learning():
    """Criterion 4's seed-7 balanced_parens data at 12,500 words, with the
    traced allocation peak of rpni_learn on it, which both memory tests
    bound: generated and traced once for the module."""
    dataset = generate_dataset(builtin("balanced_parens"), GenConfig(total=12500, seed=7))
    tracemalloc.start()
    try:
        rpni_learn(dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return dataset, peak


def test_prefix_tree_and_learning_memory_per_node(traced_learning):
    """Traced allocation peaks per prefix-tree node on criterion 4's seed-7
    balanced_parens data at 12,500 words. The flat child and label lists keep
    build_pta under 100 bytes a node and the whole rpni_learn under 150; a
    dict of children per node took about 228 and 284."""
    dataset, learn_peak = traced_learning
    tracemalloc.start()
    try:
        pta = build_pta(dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes = pta.size
    assert nodes == 193407
    assert peak / nodes < 100
    assert learn_peak / nodes < 150


def test_merge_state_and_learner_memory_per_node(traced_learning):
    """Traced allocations per prefix-tree node on the same data. Every
    representative's parent is the one shared int -1, so MergeState adds under
    24 bytes a node; rpni_learn keeps no reference to the prefix tree's label
    list, so it peaks under 85. A parent list of one int per node and a kept
    label list took 48.4 and 104.8."""
    dataset, peak = traced_learning
    pta = build_pta(dataset)
    nodes = pta.size
    assert nodes == 193407
    tracemalloc.start()
    try:
        merger = MergeState(pta)
        added = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert added / nodes < 24
    assert peak / nodes < 85


def _consistent(dfa, dataset):
    return all(dfa_accepts(dfa, s.word) == s.label for s in dataset)


@pytest.mark.parametrize("learn", [rpni_learn, edsm_learn])
class TestLearners:
    def test_consistent_with_training_data(self, learn):
        rng = random.Random(101)
        for _ in range(30):
            ds = _random_dataset(rng, "ab", rng.randrange(1, 25), 6)
            if not ds.samples:
                continue
            assert _consistent(learn(ds), ds)

    def test_single_positive_empty_word(self, learn):
        dfa = learn(as_dataset([("", True)]))
        assert dfa.size == 1 and dfa_accepts(dfa, ())

    def test_all_same_label_collapses(self, learn):
        ds = as_dataset([("a", True), ("aa", True), ("aaa", True), ("", True)])
        dfa = learn(ds)
        assert dfa.size == 1

    def test_worked_example_raw(self, worked_dataset, learn):
        dfa = learn(worked_dataset)
        assert _consistent(dfa, worked_dataset)

    def test_parity_language(self, learn):
        # even number of a's: enough samples pin the 2-state machine
        pairs = [("a" * n, n % 2 == 0) for n in range(8)]
        dfa = learn(as_dataset(pairs))
        assert dfa.size == 2
        assert dfa_accepts(dfa, ("a",) * 20)
        assert not dfa_accepts(dfa, ("a",) * 21)


class TestRpniWorkedExample:
    def test_raw_learning_overgeneralizes(self, worked_dataset):
        dfa = rpni_learn(worked_dataset)
        assert dfa.size == 5
        # the raw model accepts this non-well-matched word
        assert dfa_accepts(dfa, tuple(")()"))

    def test_preprocessed_learning_converges(self, worked_dataset, paren_alphabet,
                                             stack_aware_parens_dfa):
        kept, _ = preprocess_dataset(worked_dataset, paren_alphabet)
        dfa = rpni_learn(kept)
        assert dfa.size == 3
        rng = random.Random(7)
        words = [()]
        for _ in range(300):
            words.append(tuple(rng.choice(["(", ")|("])
                               for _ in range(rng.randrange(1, 10))))
        for word in words:
            assert dfa_accepts(dfa, word) == dfa_accepts(stack_aware_parens_dfa, word)


class TestEdsm:
    def test_prefers_high_evidence_merge(self):
        # plenty of consistent evidence for the all-a's language keeps EDSM
        # from being misled by shortlex-first folding
        pairs = [("a" * n, True) for n in range(6)] + [("b", False), ("ab", False)]
        dfa = edsm_learn(as_dataset(pairs))
        assert _consistent(dfa, as_dataset(pairs))

    def test_agrees_with_rpni_when_unambiguous(self):
        ds = as_dataset([("", True), ("a", False), ("aa", True), ("aaa", False)])
        a, b = rpni_learn(ds), edsm_learn(ds)
        assert a.size == b.size == 2


# sha256 of dump_automaton for the raw learners on balanced 200-sample sets:
# a speed-up of the merge engine (the EDSM rejected-pair cache, the fold
# kernel) must not change one byte of a learned model
LEARNED_SHA256 = {
    ("arithmetic_expr", 73, "rpni"): "5896e4dd3797e720ad7b0c527a00f60078dea03cb5e970cb086229d39c147eab",
    ("arithmetic_expr", 73, "edsm"): "da21d5e2bb1218fc995a1669b9724fe870a64df381e8d0aa4deb0f654f62a660",
    ("arithmetic_expr", 74, "rpni"): "b69eaf5b2b910bb65df0692cd4b12b0327dfd56aef60c536c9270c255f3befcf",
    ("arithmetic_expr", 74, "edsm"): "fde0ed768c854c3ccb9daa0ed3257de559e5ee23c68049b4ddf663b2183f6baa",
    ("arithmetic_expr", 75, "rpni"): "4720bf5723a4b4f45e27d70f287861ad8e5c710258c3bc50379b5f9148a55a8f",
    ("arithmetic_expr", 75, "edsm"): "7a28fa3f5cd3e43f8b33b7385654f3a84455dd4051a34a530cfb5bf07ca8e59a",
    ("arithmetic_expr", 76, "rpni"): "87f88444b6cc53e103752fb33f257437faaec6793511afddc4b5f7fbe2c32f52",
    ("arithmetic_expr", 76, "edsm"): "9bb6de0678dc6616bf6ee76a1ce1005320598f671b429848d598f45c72e65f7b",
    ("dyck2", 73, "rpni"): "3c9a1d26779b021be7c1be0f5c82286d7a3722c208124e5eb6ef6786ab17f2ff",
    ("dyck2", 73, "edsm"): "50c46729305c79817cb48a194f14e5ea2aeb94b87e579d09a848f5da6e273a8f",
    ("dyck2", 74, "rpni"): "cb9d72d5b82b7274ddb87b853e0e3a766383445b74d6d0f866e12cf965eaba08",
    ("dyck2", 74, "edsm"): "40a241e94aa9dcb97e06ec3cf0babfc59c307a4822a2cf5836224d358da2b8f4",
    ("dyck2", 75, "rpni"): "f94c455a828ef77390c493b71d2c20891a0966e7991571aa3f18f47ced1be055",
    ("dyck2", 75, "edsm"): "cf3e3d5e853d248ddd8535c070f9bc7f5c5f7027ddbd08737fa5d06a21c4cdbf",
    ("dyck2", 76, "rpni"): "91e0cee6be1552c69ea7d1714fb480657459ef7644d3c650526eccea89d91dea",
    ("dyck2", 76, "edsm"): "4a75befd1c859dd620bdda4b8b7e7f912c47608ccac833f115c5cd52726760b8",
}


@lru_cache(maxsize=None)
def _balanced_set(grammar, seed):
    return generate_dataset(builtin(grammar), GenConfig(total=200, seed=seed, mode="balanced"))


@pytest.mark.parametrize("grammar,seed,backend", sorted(LEARNED_SHA256))
def test_learned_models_are_byte_identical(grammar, seed, backend):
    learn = {"rpni": rpni_learn, "edsm": edsm_learn}[backend]
    text = dump_automaton(learn(_balanced_set(grammar, seed)))
    assert hashlib.sha256(text.encode()).hexdigest() == LEARNED_SHA256[(grammar, seed, backend)]


# sha256 of render_dot for the same raw models and for the pipeline's
# pushdown models learned from the same sets with either backend
LEARNED_DOT_SHA256 = {
    ("arithmetic_expr", 73, "rpni", "raw"): "4269ae224eb8fe5a905667ad2ae2a1779b3099952a3f3042e7526118768f3086",
    ("arithmetic_expr", 73, "rpni", "pipeline"): "9b725d9b96af76cb0675883878de1743337cd9fa21783168c2d6435b23b0f201",
    ("arithmetic_expr", 73, "edsm", "raw"): "84862788a36f244c8ab35a28af3dfaf0865e87d53401d703d0aaf9da223d1016",
    ("arithmetic_expr", 73, "edsm", "pipeline"): "9b725d9b96af76cb0675883878de1743337cd9fa21783168c2d6435b23b0f201",
    ("arithmetic_expr", 74, "rpni", "raw"): "cbb0524a30cbdff9fc1c12eea72cb13b72e51165f857b5643a9bb9fcbdb0367e",
    ("arithmetic_expr", 74, "rpni", "pipeline"): "854aac7cf4001feacca5a35f9a63354263daddf257a837179b63b7e13abc1fdf",
    ("arithmetic_expr", 74, "edsm", "raw"): "29dbef7b59ea4c354f5746227d7cc4b316d9c52e1f99f8bf99da434a08602f2d",
    ("arithmetic_expr", 74, "edsm", "pipeline"): "854aac7cf4001feacca5a35f9a63354263daddf257a837179b63b7e13abc1fdf",
    ("arithmetic_expr", 75, "rpni", "raw"): "7a89c9928c36e7f6d17a9955df8077ea140e054e46a8a2c29dd40564b6e998ca",
    ("arithmetic_expr", 75, "rpni", "pipeline"): "ae62ca9ff873a1962ae45b7b7da8c11951ce01961e928532b21f712213c65c33",
    ("arithmetic_expr", 75, "edsm", "raw"): "c372678c62c0d850082cff5b6cbd8a7a2b52fb20d375b9c6d28e585572d9f3a6",
    ("arithmetic_expr", 75, "edsm", "pipeline"): "ae62ca9ff873a1962ae45b7b7da8c11951ce01961e928532b21f712213c65c33",
    ("arithmetic_expr", 76, "rpni", "raw"): "078cd08d312f7f85e602299ea1f984de7b94b5cf6df6eca9db50d6729c9f0d2a",
    ("arithmetic_expr", 76, "rpni", "pipeline"): "4e80f736fdec5a5b729e85cc81e99f8d5483d59492e7dab0f0539b595e171023",
    ("arithmetic_expr", 76, "edsm", "raw"): "127044fe28757459b6bb7b8c19567a492963009baeca7a2dc539a8a0a3e2ae59",
    ("arithmetic_expr", 76, "edsm", "pipeline"): "c9fb3003e31107be632a72ce84f35fb072baa7cdd1e1770933e0bda48af1d5ce",
    ("dyck2", 73, "rpni", "raw"): "37109ba98e218f65385ae0e62046ab4c6bb495aeca14948cc50d4e0db2c50ee8",
    ("dyck2", 73, "rpni", "pipeline"): "458d99f7184d2e893fb31908031d142f53650557cc3de42c35f4a1b2b96b0f82",
    ("dyck2", 73, "edsm", "raw"): "889b440ec6901435fa40808cdda888ef7768745fd1ec089ca7529a82fb30cc9e",
    ("dyck2", 73, "edsm", "pipeline"): "458d99f7184d2e893fb31908031d142f53650557cc3de42c35f4a1b2b96b0f82",
    ("dyck2", 74, "rpni", "raw"): "07387c49fc28b771aa0084b0d1f7cfcd6eedac88cc438025b881aaba3fd28356",
    ("dyck2", 74, "rpni", "pipeline"): "f0f4059a8ca7c34c66e4dcea58b8606f5074110eca6305b6d63f144720da0686",
    ("dyck2", 74, "edsm", "raw"): "9515cfa344c3c3a18daeb26c3ae97819cf10b365fe31b8a1c24a092fe795d2c0",
    ("dyck2", 74, "edsm", "pipeline"): "f0f4059a8ca7c34c66e4dcea58b8606f5074110eca6305b6d63f144720da0686",
    ("dyck2", 75, "rpni", "raw"): "8190393edc46001e11f9fb3d28eafa6b7923c7f13270fd72bf7e59ef0d5e5a28",
    ("dyck2", 75, "rpni", "pipeline"): "f0f4059a8ca7c34c66e4dcea58b8606f5074110eca6305b6d63f144720da0686",
    ("dyck2", 75, "edsm", "raw"): "ab1c12d61b354c6b45fe818ab82663ef8cdfe33c14561f7eecf8cfd47e5b6242",
    ("dyck2", 75, "edsm", "pipeline"): "f0f4059a8ca7c34c66e4dcea58b8606f5074110eca6305b6d63f144720da0686",
    ("dyck2", 76, "rpni", "raw"): "3d203e0cb527df9de41c0f7bb17e681d6165f329b330cf90eb633c7aa86ceded",
    ("dyck2", 76, "rpni", "pipeline"): "f0f4059a8ca7c34c66e4dcea58b8606f5074110eca6305b6d63f144720da0686",
    ("dyck2", 76, "edsm", "raw"): "8ab5389a5e6e81f9baf7bc7179df02166ba27f58bc6c5c59dfe19593dd0fc426",
    ("dyck2", 76, "edsm", "pipeline"): "f0f4059a8ca7c34c66e4dcea58b8606f5074110eca6305b6d63f144720da0686",
}


@pytest.mark.parametrize("grammar,seed,backend,mode", sorted(LEARNED_DOT_SHA256))
def test_learned_dots_are_byte_identical(grammar, seed, backend, mode):
    dataset = _balanced_set(grammar, seed)
    if mode == "raw":
        model = {"rpni": rpni_learn, "edsm": edsm_learn}[backend](dataset)
    else:
        model, _ = papni_learn(dataset, builtin(grammar).alphabet, PapniConfig(backend=backend))
    text = render_dot(model)
    assert hashlib.sha256(text.encode()).hexdigest() == LEARNED_DOT_SHA256[(grammar, seed, backend, mode)]


_small_datasets = st.dictionaries(
    st.text(alphabet="abc", max_size=6), st.booleans(), min_size=1, max_size=24,
).map(lambda pairs: as_dataset(sorted(pairs.items())))


@given(_small_datasets)
@settings(max_examples=150, deadline=None)
def test_rejected_merges_stay_rejected(dataset):
    """Runs EDSM by hand through MergeState with no rejected-pair cache. After
    every commit, each merge rejected so far, re-tried by PTA node ids, must
    still conflict, and no two red blocks may share a block; the run must end
    at the model edsm_learn learns with the cache."""
    merger = MergeState(build_pta(dataset))
    red_ids = [0]  # PTA node ids, one per red block
    rejected: list[tuple[int, int]] = []
    while True:
        red = sorted(merger.find(r) for r in red_ids)
        blues = _blue_frontier(merger, red)
        if not blues:
            break
        best = orphan = None
        for blue in blues:
            compatible = False
            for r in red:
                score = merger.trial_merge(r, blue)
                if score is None:
                    rejected.append((r, blue))
                    continue
                merger.rollback()
                compatible = True
                key = (-score, r, blue)
                if best is None or key < best:
                    best = key
            if not compatible and orphan is None:
                orphan = blue
        if orphan is not None:
            red_ids.append(orphan)
            continue
        _, red_id, blue_id = best
        assert merger.trial_merge(red_id, blue_id) is not None
        merger.commit()
        assert len({merger.find(r) for r in red_ids}) == len(red_ids)
        for red_id, blue_id in rejected:
            score = merger.trial_merge(red_id, blue_id)
            merger.rollback()
            assert score is None
    assert _emit_dfa(merger, dataset.symbols()) == edsm_learn(dataset)


# words over multi-character symbols too, so that shortlex compares symbol
# strings, not characters
_words = st.lists(st.sampled_from(["(", ")", "a", "ab", "b", "ret|call"]), max_size=6).map(tuple)
# every word once, some again with the same label, in any order
_shuffled_samples = st.dictionaries(_words, st.booleans(), min_size=1, max_size=30).flatmap(
    lambda pairs: st.lists(st.sampled_from(sorted(pairs.items())), max_size=10).flatmap(
        lambda again: st.permutations([LabeledSample(w, l) for w, l in [*pairs.items(), *again]])))


@given(st.dictionaries(_words, st.booleans(), min_size=1, max_size=14).map(
    lambda pairs: as_dataset(sorted(pairs.items()))))
@settings(max_examples=300, deadline=None)
def test_learners_equal_the_reference(dataset):
    """Both learners emit, byte for byte, the model of the slow reference
    learner in conftest, which states the candidate order they follow."""
    assert dump_automaton(rpni_learn(dataset)) == dump_automaton(reference_learn(dataset, False))
    assert dump_automaton(edsm_learn(dataset)) == dump_automaton(reference_learn(dataset, True))


@given(_shuffled_samples)
@settings(max_examples=200, deadline=None)
def test_pta_ids_are_shortlex_ranks(samples):
    """In any sample order, repeats included, node ids are the shortlex ranks
    of the distinct prefixes, with the prefix tree's edges in symbol order
    and the samples' labels."""
    pta = build_pta(LabeledDataset(samples))
    prefixes = sorted({s.word[:i] for s in samples for i in range(len(s.word) + 1)},
                      key=lambda w: (len(w), w))
    rank = {w: i for i, w in enumerate(prefixes)}
    edges: list[dict[str, int]] = [{} for _ in prefixes]
    for w in prefixes[1:]:
        edges[rank[w[:-1]]][w[-1]] = rank[w]
    labels = {s.word: s.label for s in samples}
    symbols = sorted({sym for s in samples for sym in s.word})
    assert list(pta.symbols) == symbols
    k = len(symbols)
    # each node's edges, read off its row of child slots in symbol order
    rows = [[(sym, pta.child[node * k + i]) for i, sym in enumerate(symbols) if pta.child[node * k + i]]
            for node in range(pta.size)]
    assert len(pta.child) == pta.size * k
    assert rows == [list(kids.items()) for kids in edges]
    assert pta.label == [labels.get(w) for w in prefixes]


def _merger_state(merger):
    return list(merger.parent), list(merger.child), list(merger.count)


@given(_small_datasets, st.data())
@settings(max_examples=200, deadline=None)
def test_rollback_restores_everything_after_commits(dataset, data):
    """After some committed merges, a trial merge of any two nodes followed
    by its rollback (or its own conflict rollback) leaves every field of the
    partition exactly as it was, labels included."""
    merger = MergeState(build_pta(dataset))
    node = st.integers(0, len(merger.parent) - 1)
    for _ in range(data.draw(st.integers(0, 4))):
        if merger.trial_merge(data.draw(node), data.draw(node)) is not None:
            merger.commit()
    before = _merger_state(merger)
    for _ in range(5):
        if merger.trial_merge(data.draw(node), data.draw(node)) is not None:
            merger.rollback()
        assert _merger_state(merger) == before


def _assert_least_node_is_representative(merger):
    least: dict[int, int] = {}
    for x in range(len(merger.parent)):
        rep = merger.find(x)
        assert rep <= x
        least.setdefault(rep, x)
    assert all(rep == x for rep, x in least.items())


@given(_small_datasets, st.data())
@settings(max_examples=200, deadline=None)
def test_representative_is_the_least_node_of_its_block(dataset, data):
    """Through committed merges, a trial merge and its rollback, every block
    is represented by its smallest node id, its shortlex-least access string,
    which the blue order, the EDSM tie-break and the emitted names rely on."""
    merger = MergeState(build_pta(dataset))
    node = st.integers(0, len(merger.parent) - 1)
    _assert_least_node_is_representative(merger)
    for _ in range(data.draw(st.integers(0, 4))):
        if merger.trial_merge(data.draw(node), data.draw(node)) is not None:
            merger.commit()
        _assert_least_node_is_representative(merger)
    if merger.trial_merge(data.draw(node), data.draw(node)) is not None:
        _assert_least_node_is_representative(merger)
        merger.rollback()
    _assert_least_node_is_representative(merger)


def _assert_counts_follow_labels(merger, pta_label):
    acc: dict[int, int] = {}
    rej: dict[int, int] = {}
    for x, l in enumerate(pta_label):
        rep = merger.find(x)
        acc[rep] = acc.get(rep, 0) + (l is True)
        rej[rep] = rej.get(rep, 0) + (l is False)
    for rep in acc:
        # +n for n accepting nodes, -n for n rejecting ones
        assert merger.count[rep] == acc[rep] - rej[rep]
        assert not (acc[rep] and rej[rep])


@given(_small_datasets, st.data())
@settings(max_examples=200, deadline=None)
def test_block_counts_follow_the_node_labels(dataset, data):
    """Through committed merges, a trial merge and its rollback, each block's
    accepting and rejecting counts are the numbers of accepting and rejecting
    PTA nodes in it, and no block holds both: the counts alone say whether a
    block accepts, rejects or is unlabelled."""
    pta = build_pta(dataset)
    pta_label = list(pta.label)
    merger = MergeState(pta)
    node = st.integers(0, len(merger.parent) - 1)
    _assert_counts_follow_labels(merger, pta_label)
    for _ in range(data.draw(st.integers(0, 4))):
        if merger.trial_merge(data.draw(node), data.draw(node)) is not None:
            merger.commit()
        _assert_counts_follow_labels(merger, pta_label)
    if merger.trial_merge(data.draw(node), data.draw(node)) is not None:
        _assert_counts_follow_labels(merger, pta_label)
        merger.rollback()
    _assert_counts_follow_labels(merger, pta_label)


@given(_small_datasets, st.data())
@settings(max_examples=200, deadline=None)
def test_merger_leaves_the_pta_labels_alone(dataset, data):
    """The merger takes over the prefix tree's child list and nothing else:
    through commits and a rollback the label list stays as it was built. A
    merger that marked nodes in it in place would make a second MergeState of
    the same tree read wrong labels."""
    pta = build_pta(dataset)
    pta_label = list(pta.label)
    merger = MergeState(pta)
    node = st.integers(0, len(merger.parent) - 1)
    for _ in range(data.draw(st.integers(0, 4))):
        if merger.trial_merge(data.draw(node), data.draw(node)) is not None:
            merger.commit()
    if merger.trial_merge(data.draw(node), data.draw(node)) is not None:
        merger.rollback()
    assert pta.label == pta_label
