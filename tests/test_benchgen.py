import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    render_dot,
    split_dataset,
    vdpa_accepts,
)

from vpalearn.benchgen import _accepting_walk, _randbelow, _uniform_word, _walk_moves
from vpalearn.formats import dump_automaton, dump_dataset

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

# sha256 of render_dot for every built-in, recorded the same way
BUILTIN_DOT_SHA256 = {
    "anbn": "79953dbb4c1dae60ae0d59d882d218b4d44bca02bb9b52423f51febf818da45b",
    "arithmetic_expr": "b6db02f558251218d5b8743794c5b6d32840764fb5081b80eb285c7c3ce93845",
    "balanced_parens": "3acc98f289cce72391de59c3a07d4bcc906141c66b10afe58e608f0c23a4f1e1",
    "dyck1": "b4cbe65eeaca8cf0eaa04d2ebf15cf187ba0aed1229eb91b2d9cb2e2228a115e",
    "dyck1_even": "2faa46c7df357a206d2a8b74f87eae636e7d95219fd50d60a052d762927c2ca1",
    "dyck1_odd": "3361897eda8d6ebaef13b108a9efd4eab6f7e5d030e572556fb5957a9acaa3d8",
    "dyck2": "f0f4059a8ca7c34c66e4dcea58b8606f5074110eca6305b6d63f144720da0686",
    "nested_xml_tags": "d8ccc62e98e8224d3925b6be878e6cad667c6708b6ad166272b010f975ce2afd",
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

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_dot_is_pinned(self, name):
        text = render_dot(builtin(name).vdpa)
        assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_DOT_SHA256[name]

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

    def test_balanced_mode_runs_out_of_negatives(self):
        # every word over {a} is accepted, so no rejected word exists
        gt = GroundTruth("all", Vdpa(frozenset({"q"}), VpaAlphabet(frozenset({"a"})),
                                     {("q", "a"): "q"}, {}, {}, "q", frozenset({"q"})))
        with pytest.raises(GenerationError, match="rejected words"):
            generate_dataset(gt, GenConfig(total=4, len_min=1, len_max=4,
                                           seed=0, mode="balanced"))

    def test_different_seeds_differ(self):
        gt = builtin("dyck1")
        a = generate_dataset(gt, GenConfig(total=100, seed=1))
        b = generate_dataset(gt, GenConfig(total=100, seed=2))
        assert a.samples != b.samples


# sha256 of dump_dataset for both halves of a split of two words of one
# label and six of the other, keyed by (label of the two, seed): at seed 5
# the shuffle leaves the eval half without that label and at seed 6 the
# train half, so the four cases run each of split_dataset's swaps
SPLIT_SWAP_SHA256 = {
    (True, 5): (
        "a0a92e7d2b3d396164eae0e526973d3120e5f76326cf5b90b9500450232f5d2b",
        "51efc1428affbdbc07d577fdf0d69ed0d9084f9aa6610b134c1af1d58f82b28b",
    ),
    (True, 6): (
        "d813f2f17e442faed3a535e1f44331ef7784638969bee3c90048028f02495a69",
        "092dce92f413bd0a148f7bdbc247a1d24ef6b1f3ad63f01d77bec70ded2b5fc4",
    ),
    (False, 5): (
        "9b8c82ea68360e6ea1c9eb552d88c2d7e04bc89c770084f0e2f73c6542355590",
        "595e947ae57674bf2d23390d07f614b5900b510b2fc4beb37e598c659591f99e",
    ),
    (False, 6): (
        "97a4e4a7f63d9c9f081fbba20a023ac71a83a832f1997f06d2b4395a0afb90e9",
        "04d3d9decc136b4b6cfb2a72dcff5073f9e66d6af1cb230e37e1da94f192c170",
    ),
}


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

    @pytest.mark.parametrize("minority,seed", sorted(SPLIT_SWAP_SHA256))
    def test_swaps_are_byte_identical(self, minority, seed):
        pairs = [(w, minority) for w in "ab"] + [(w, not minority) for w in "cdefgh"]
        parts = split_dataset(as_dataset(pairs), seed=seed)
        digests = tuple(hashlib.sha256(dump_dataset(p).encode()).hexdigest() for p in parts)
        assert digests == SPLIT_SWAP_SHA256[(minority, seed)]

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


@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(-50, 50),
       st.integers(1, 30), st.integers(0, 30))
@settings(max_examples=200, deadline=None)
def test_draws_equal_the_stdlib_draws(seed, n, lo, len_min, len_extra):
    """The generator's inline rejection loop makes exactly the getrandbits
    calls of randrange, randint and choice, so two generators seeded alike
    stay in the same state after every pair of draws."""
    ours, stdlib = random.Random(seed), random.Random(seed)
    seq = list(range(n))
    for _ in range(3):
        assert _randbelow(ours.getrandbits, n) == stdlib.randrange(n)
        assert ours.getstate() == stdlib.getstate()
        assert lo + _randbelow(ours.getrandbits, n) == stdlib.randint(lo, lo + n - 1)
        assert ours.getstate() == stdlib.getstate()
        assert seq[_randbelow(ours.getrandbits, n)] == stdlib.choice(seq)
        assert ours.getstate() == stdlib.getstate()
    symbols = [f"x{i}" for i in range(n)]
    cfg = GenConfig(len_min=len_min, len_max=len_min + len_extra)
    word = _uniform_word(ours, symbols, cfg)
    # the oracle: the same word drawn through the stdlib calls
    oracle = tuple(stdlib.choice(symbols) for _ in range(stdlib.randint(cfg.len_min, cfg.len_max)))
    assert word == oracle
    assert ours.getstate() == stdlib.getstate()


def _oracle_walk(rng, vdpa, length):
    """The accepting walk before its option lists were memoized: the list is
    rebuilt at every step and the step is drawn by randrange."""
    internal, call, ret, _ = _walk_moves(vdpa)
    state, stack, word = vdpa.initial, [], []
    for step in range(length):
        remaining_after = length - step - 1
        options = []
        if len(stack) <= remaining_after:
            options += internal.get(state, ())
            if len(stack) < remaining_after:
                options += call.get(state, ())
        if stack:
            options += ret.get((state, stack[-1]), ())
        if not options:
            return None
        sym, state = options[rng.randrange(len(options))]
        if sym in vdpa.alphabet.call:
            stack.append(sym)
        elif sym in vdpa.alphabet.ret:
            stack.pop()
        word.append(sym)
    return tuple(word) if state in vdpa.accepting and not stack else None


@given(st.sampled_from(BUILTIN_NAMES), st.integers(0, 2**32 - 1),
       st.lists(st.integers(1, 30), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_walks_equal_the_unmemoized_walks(name, seed, lengths):
    vdpa = builtin(name).vdpa
    ours, oracle = random.Random(seed), random.Random(seed)
    moves = _walk_moves(vdpa)  # one memo across the walks, as in a dataset
    for length in lengths:
        assert _accepting_walk(ours, vdpa, moves, length) == _oracle_walk(oracle, vdpa, length)
        assert ours.getstate() == oracle.getstate()


# sha256 of dump_dataset for the generated dataset and for both halves of
# its split, recorded before the generator's draws were rewritten: for a
# given seed not one byte of a dataset may change. Balanced anbn and
# balanced_parens have one positive per even length, so the balanced sets
# stay small; anbn at seed 3 still runs out of distinct positives.
DATASET_CONFIGS = {
    "uniform": dict(total=300, len_min=1, len_max=6),
    "balanced": dict(total=12, len_min=2, len_max=20),
}
DATASET_SHA256 = {
    ("anbn", "uniform", 3): (
        "ecbd44fc2b69b4eb1c53950d56924ed5e0474b5cbe070e97434ad9216843266d",
        "bcb191f08fa7143570c135f2db2c95e32b15d73c838e9281b577db127868254e",
        "8b0b6787f33428a55982c28e32482e185e60559f4f905f4635f428367f2a48d7",
    ),
    ("anbn", "uniform", 11): (
        "651a210a1aca4235c93fa12c701c01361cc8b53ac34ec7c7158fa0935628343d",
        "3534dcf9aa585cb4be35a84f23ca21d7909d2b886395434fd0d75abfe4ea3742",
        "e5734da4c96bad946055b5555b605fd0d74cf7f1b01294538fca99eb09730a6a",
    ),
    ("anbn", "balanced", 3): GenerationError,
    ("anbn", "balanced", 11): (
        "c3c680e22444898d28a5783538705ad44088578ad219c54e6bfc37c53a999fde",
        "7e88b5f5c394d77aec14cf080fd0b540d8d82b4f4a7bdd5424856a83d5ee2e9e",
        "5a857cf2d7aa351bd6621411899bcca2f47b7937cc784e44c15892f0e542054d",
    ),
    ("arithmetic_expr", "uniform", 3): (
        "92735faaa24de2502a0a22842d4baa97f1d116b995fd51b82c0fb229f0824d56",
        "b93560e0796ec5c45e324a190cf5f5c29f15ec9f18169eb17398addd0909a354",
        "ae47811fb25c3c5b9fd033a7decf9757c13d3c07e0fb2518659a235b6aeabc0b",
    ),
    ("arithmetic_expr", "uniform", 11): (
        "a2e677b87e62e53dbf6e754a5083499d30062f37edb78b0bc4240fa1c98b907a",
        "4c8086a8f27b23448aeae050ffc9f43622875baee7066a4f920db6d5b34c367d",
        "e41adcbc097a2689306393c9fd61ab560b81b4c08e8fc270483c95060d22cdaf",
    ),
    ("arithmetic_expr", "balanced", 3): (
        "9021c1719f324b97a6d2791d0f0a4df8d60040b5db66bc208cb9bbde4693f6d4",
        "bdcdb8290d77c7654898866e5549364013dabde6abacdd997c7d2cb8e1c0901b",
        "e4974daaf4014bf1b1d0519a56ffe848a296dee96ac780b7fcac4fff94f5e919",
    ),
    ("arithmetic_expr", "balanced", 11): (
        "23ad6841214c2a46a9dc693f935c46152735f524fc4446f753497829dd841fb4",
        "5732165e0602cabcfee6026c70664a36f81e5d6973b86b018aedf2be86f94a73",
        "4bc2c472fc296ed5e8f1291b8611a3741b8908281ef63732281eff69178d1f9c",
    ),
    ("balanced_parens", "uniform", 3): (
        "3ae1fd2d73d8e8a54e243829f713b3356edd7f514f8aea9c080db86b02563fee",
        "b1a62d78823049ca136e1c11905e384460a785fad07f332779e1259de1fc8714",
        "f876ae83d86321d2190fcbd125fc208cf66063d023ca00572015cac971f02543",
    ),
    ("balanced_parens", "uniform", 11): (
        "bcfb327ed3d5587428662a2d3bbbd82363ebb960125df72e7e4fee9b1d63d735",
        "ae98503eac5d980b7e5769ed2e2e7dc13c53ba863f3b84bc506f858224730f02",
        "2434ea02f058493ebbfdc30a11b22f5f151c0d60bd1d2427cc4cf9bc6eef3889",
    ),
    ("balanced_parens", "balanced", 3): (
        "33fcda56ba656017002edd043bb4d25ac473bb5324ba359bc1882955fc53921c",
        "a399c899d9a55b04779bb71049255e1e3489d200e0ac5bbb4ca60e1f77a38ce2",
        "f0a86063afea2e0d6d93e52f36d420768327c19e9cdc3c4874abb57684d28c46",
    ),
    ("balanced_parens", "balanced", 11): (
        "53b087083c2948873fbb0f467f7c8bbe627fdefb62fc0184f3a6962311870e15",
        "bfc85c191bf17bf4b8e9f7b52fc5b42aa664f70ece7a3e4d8adcbf88ef05d6f1",
        "4b9e824feec771117c1cd4eda1ebe234f4294a3c382ca84070e9c6ef92101de0",
    ),
    ("dyck1", "uniform", 3): (
        "7c257129d5b2df31c263159133e7c5af5ca33bbc8daf626f941bb462ce4c29ab",
        "c668bfe3efcef091365d2b5c09007c488d7ce12b544c6e5ac7c19034632a9544",
        "007cd1550cd6655cbf5d2997d2ea43850bd83ccb87c30bc23d183988209d6a51",
    ),
    ("dyck1", "uniform", 11): (
        "0f0b6410156eb8d7e185b4950d9c6325b0b493338388affad035aae12ae951f0",
        "63fd8d1c8200e48b6b9c133e44b911345ce9d96878fab43f6375c98af3afce5d",
        "5e3a1b6b41704939c8c1307a7ff528c1c38232c71e8d6143a1dc4e7ff5bbea56",
    ),
    ("dyck1", "balanced", 3): (
        "40669f8893166b12451b343ba140914d2282e0da6d6275a195da8896920d0b8e",
        "79f2f6f5351d13231de8b4df351d120c768009153c7e88846ecc7543c5d48c66",
        "7e3764b5f0b247306bc87055fe133bf485d4d2b1ff1f98ebbc6ee2920907e261",
    ),
    ("dyck1", "balanced", 11): (
        "849a9be6241fcaa1131821a9b4d05e30c6a1d08767f87a332cf95475ba370fdd",
        "fee3ba40d810199ea64bb301bfcb22399320b51a8ad9ce506c4c54de240a2348",
        "f8d96f32652840c0da4d74c27e94402577666b36559c3d2aa17248f191e7bf81",
    ),
    ("dyck1_even", "uniform", 3): (
        "ccf21bf2d6797cad47867d8801905a5e46208df0ddd943b829c556cc58018b82",
        "b1a62d78823049ca136e1c11905e384460a785fad07f332779e1259de1fc8714",
        "53f3ac40ac9eb0ab73897fe464ffcd00dc7266b073f1fea5415080cbc469897a",
    ),
    ("dyck1_even", "uniform", 11): (
        "f7af7c4b2f27a5e928cc92c960f0d50476f46a2dccd7f09d53bfde058dd9d599",
        "c2009ea92fddc8fd340fd29df4981941ed3ebfea3febb0cbced787e9fbe6bac8",
        "f9ac0cc7d7615d0604f5c0a1631e90a88add410055e565105727c3b21de2e627",
    ),
    ("dyck1_even", "balanced", 3): (
        "11a51b64fce620ea708a154293425e6e953aadd8c302145d11b5e8b4d16fae62",
        "07d74bb11482eeef8d41aba85b622a4f4dd5c0919ef414a417c9802bb7a13560",
        "f4a3a8b0f2376a5a2016e637d30e8fe2f83cf5350cf2abe4c710308de51f31a9",
    ),
    ("dyck1_even", "balanced", 11): (
        "3f27dc47be41aac7111376cff8ee7a97d440a2a5032fe482d37e4ff5bd0c85cc",
        "ecd469c038c9cf34b41c0ad9de670498b8d9ce1d82fa73802bdb40971197ee09",
        "fa7ae1c642a63bdaeae20aab7c16f7ed69a3ec3b6d16428847ca5f7e4c28a495",
    ),
    ("dyck1_odd", "uniform", 3): (
        "a1da9e481bef10d3a06dda9cf9d670aebb563691ccfe117716f19926d3be77e3",
        "d4b967f8a82dfafc285adccc286a99e14f1675838d77fca099a97917281c2b70",
        "f876ae83d86321d2190fcbd125fc208cf66063d023ca00572015cac971f02543",
    ),
    ("dyck1_odd", "uniform", 11): (
        "da0693836dd9f004d460a762c0ddf3b0b7240a0b597b27ceaef144b695cd55b8",
        "04f01c1fdffbc5ad40c8b6654335382898b97d36c899acf0b89498f79f62441b",
        "5e3a1b6b41704939c8c1307a7ff528c1c38232c71e8d6143a1dc4e7ff5bbea56",
    ),
    ("dyck1_odd", "balanced", 3): (
        "0ac341be500a5b0b78d8e4e0ac90f30906251bb11a54f1bc0f69f9c7a732beaa",
        "c001dc6b7e1761dab9a2be35ee2daa5aa5f1c8ab7c50e72c1df855dfae4ffcf7",
        "08ff7de09b96d20bd04f07547c9b84838923a01919b6f4d9f45f284cc4dca453",
    ),
    ("dyck1_odd", "balanced", 11): (
        "eb214ce7e5a8adb13f177b535fc103b33dc4172e5884041b9aed9b3722bc498d",
        "81aeef9f59a1ec37b4e4b271ed6108adb4e52209dccfe5cdf016d8775cf34cf6",
        "61ee53eeef12e9cd72f1668678488ece2c9fc8bf28441e12a61f98ce9c71ef6b",
    ),
    ("dyck2", "uniform", 3): (
        "d489e0e37d205ede0c18d7dcfe13bb5c63f5e513d0ab3b2fb8b298bb1337c7c7",
        "4fee93611192e3873b398a773efcbbfd022b22063449bee81da66d3680865d0e",
        "87134024310b0a24ee22bfd43d576269dad3c7198f6c6dc01de751553bc133d2",
    ),
    ("dyck2", "uniform", 11): (
        "0456b73a703acfbdfc0f164c06761115e0d35bdd708a62536da83dd669de520b",
        "49ef57396797049badc3eec8a172f8c8b7d01adeda33ddd2ec4d280319100e78",
        "661c2ce3aa44b27acf270bc04cef061580ee00e44d00d4c33da6fdad913c4894",
    ),
    ("dyck2", "balanced", 3): (
        "82247325ddff23c0bd84998ee0b6d9ca0b9e840188bec202e4b2232c9407dfe8",
        "0975affe38c958f959c22bab729ba0106f45ceb79a2a8c1682e0149728a3522d",
        "59804108831192a0589d89967054922c899c090adbe164af82da5b44e971ebd0",
    ),
    ("dyck2", "balanced", 11): (
        "2ac9a15c835e2511745ef16a7a943472f345a430de2300b979d11df811357278",
        "8e43577a1dcf575720bc9c34057187f3cc87596b81b4b427c0a79eb2eb8ed4c4",
        "8433c63aac39b3946d50d1caaca24323115bfeeee2a003154eee4a08aaf1d578",
    ),
    ("nested_xml_tags", "uniform", 3): (
        "bca85b7d3aad7f5fb75b63e5e57e92e22573edf689d156089d0ce587940999b1",
        "ca1c1a416804df10de54aad636d84ba5c088da8a1c5efe99a224653f9c74af10",
        "030dead14fa5bf6f51563a88c81b2b4e75d8796dcd3c55b6231ec347c96b52ff",
    ),
    ("nested_xml_tags", "uniform", 11): (
        "886f003994515649f11b1e678d3997b42143043092d96d71695ae43bc88b515c",
        "7f05db3c07a89e4bf3b6fdbac2931d3338ba9229f026ff155a0010a0a5e38d16",
        "cf563bc12b6add08f93647b47a27185852ced973219f5e2c9c952f77561aca7e",
    ),
    ("nested_xml_tags", "balanced", 3): (
        "721d00e907cd69f86daecd87d3cd1e21b5b56e09945d0e4d78370d5811121ef4",
        "8e95af68ec56a819161eeedbd81f0c790d8e92d76225dc98a36dfc538c7c6d1a",
        "cf0ad9bd6c9c5472fc39639696744939026f39404a3a33b7454f39680da925ef",
    ),
    ("nested_xml_tags", "balanced", 11): (
        "2fc4cc095b1ad8b3061961840e5060e62a5d43fb224440914305459a51300736",
        "3bca9d26f625a99309c31ba1c99fa0dc13008a6ce7e3efd7672fc6ca4b6bfbb0",
        "3559b80125158451575959716f8f64ee3493ca39a5a9b720f7b6ee45f363df48",
    ),
}


@pytest.mark.parametrize("name,mode,seed", sorted(DATASET_SHA256))
def test_datasets_are_byte_identical(name, mode, seed):
    cfg = GenConfig(seed=seed, mode=mode, **DATASET_CONFIGS[mode])
    pinned = DATASET_SHA256[(name, mode, seed)]
    if pinned is GenerationError:
        with pytest.raises(GenerationError):
            generate_dataset(builtin(name), cfg)
        return
    dataset = generate_dataset(builtin(name), cfg)
    parts = (dataset, *split_dataset(dataset, seed=seed))
    assert tuple(hashlib.sha256(dump_dataset(p).encode()).hexdigest() for p in parts) == pinned
