"""Subword vocabulary training, encoding, persistence, and packing."""

import json

import numpy as np
import pytest

from desklm import subwords as sw
from desklm.corpus import Document

from helpers import make_pseudo_corpus, reference_train_subwords


def _docs(*texts):
    return [Document(id=f"d{i}", text=t, source="unconstrained")
            for i, t in enumerate(texts)]


class TestSpecials:
    def test_inventory(self):
        assert sw.SPECIAL_TOKENS == ("<pad>", "<unk>", "<cls>", "<sep>",
                                     "<mask>", "<mark>")
        assert (sw.PAD_ID, sw.UNK_ID, sw.CLS_ID, sw.SEP_ID, sw.MASK_ID,
                sw.MARK_ID) == (0, 1, 2, 3, 4, 5)
        assert sw.NUM_SPECIALS == 6

    def test_vocab_must_start_with_specials(self):
        with pytest.raises(ValueError, match="special tokens"):
            sw.SubwordModel(["<pad>", "x"], [])

    def test_duplicate_vocab_rejected(self):
        vocab = list(sw.SPECIAL_TOKENS) + ["a", "a"]
        with pytest.raises(ValueError, match="duplicate"):
            sw.SubwordModel(vocab, [])

    def test_non_string_vocab_entry_rejected(self):
        with pytest.raises(ValueError, match="vocab entry 7 is not a string: 7"):
            sw.SubwordModel(list(sw.SPECIAL_TOKENS) + ["a", 7], [])

    @pytest.mark.parametrize("merge", [("a", "b", "c"), ("a",), ("a", 5), "ab", None])
    def test_merge_must_be_pair_of_strings(self, merge):
        vocab = list(sw.SPECIAL_TOKENS) + ["a", "b", "ab"]
        with pytest.raises(ValueError, match="merge 1 is not a pair of strings"):
            sw.SubwordModel(vocab, [("a", "b"), merge])

    def test_merge_product_must_be_in_vocab(self):
        # unchecked, the merge ("a", "b") made encode("ab ab") [<unk>, " ", <unk>]
        vocab = list(sw.SPECIAL_TOKENS) + ["a", "b", " ", " a"]
        with pytest.raises(ValueError, match="merge 1 makes 'ab', which is not in the vocab"):
            sw.SubwordModel(vocab, [(" ", "a"), ("a", "b")])


class TestTraining:
    def test_hand_run_single_word(self):
        model = sw.train_subwords(_docs("ababab"), 9)
        assert model.id_to_token == list(sw.SPECIAL_TOKENS) + ["a", "b", "ab"]
        assert model.merges == [("a", "b")]
        assert model.encode("ababab") == [8, 8, 8]
        assert model.decode([8, 8, 8]) == "ababab"

    def test_tie_break_lexicographic(self):
        # counts tie at 2 between ('a','b'), (' ','c'), ('c','d');
        # the lexicographically smallest pair starts with the space
        model = sw.train_subwords(_docs("ab cd ab cd"), 12)
        assert model.merges[0] == (" ", "c")

    def test_vocab_size_exact(self):
        model = sw.train_subwords(_docs("the cat sat on the mat"), 20)
        assert model.vocab_size == 20
        assert len(model.id_to_token) == len(set(model.id_to_token))

    def test_too_small_vocab(self):
        with pytest.raises(ValueError, match="must exceed specials"):
            sw.train_subwords(_docs("ab"), 8)

    def test_merges_exhausted_reports_capacity(self):
        with pytest.raises(ValueError,
                           match="at most 9 tokens, requested 10"):
            sw.train_subwords(_docs("ab"), 10)

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            sw.train_subwords([], 10)

    def test_literal_special_token_is_never_merged(self):
        # "<mask>" written out in the text would merge into a second
        # "<mask>" token; its last merge is skipped, which costs a slot
        with pytest.raises(ValueError, match="at most 29 tokens, requested 30"):
            sw.train_subwords(_docs(*["<mask> is a word"] * 50), 30)
        docs = _docs(*["<mask> is a word"] * 50 + ["a word for <mask> here"] * 5)
        model = sw.train_subwords(docs, 40)
        assert model.vocab_size == 40
        assert not {a + b for a, b in model.merges} & set(sw.SPECIAL_TOKENS)
        assert sw.MASK_ID not in model.encode("<mask> is a word")

    def test_deterministic(self, tmp_path):
        docs = _docs("a man a plan a canal", "panama bananas")
        m1 = sw.train_subwords(docs, 25)
        m2 = sw.train_subwords(docs, 25)
        assert m1.id_to_token == m2.id_to_token
        assert m1.merges == m2.merges
        m1.save(tmp_path / "1.json")
        m2.save(tmp_path / "2.json")
        assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()


def _random_texts(seed, n_docs, alphabet, max_word):
    """Short texts over a tiny alphabet: many self-pairs, overlaps and ties."""
    rng = np.random.default_rng(seed)
    return ["".join(rng.choice(list(alphabet), size=int(rng.integers(1, max_word + 1))))
            + "".join(" " + "".join(rng.choice(list(alphabet),
                                               size=int(rng.integers(1, max_word + 1))))
                      for _ in range(int(rng.integers(0, 6))))
            for _ in range(n_docs)]


class TestIncrementalMatchesRecount:
    """train_subwords updates pair counts per merge; the recount oracle in
    helpers recounts the corpus for every merge. Both must agree exactly,
    down to the saved bytes and the capacity error."""

    @staticmethod
    def _assert_same(docs, vocab_size, tmp_path):
        try:
            want = reference_train_subwords(docs, vocab_size)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                sw.train_subwords(docs, vocab_size)
            assert str(got.value) == str(e)
            return str(e)
        got = sw.train_subwords(docs, vocab_size)
        assert got.merges == want.merges
        assert got.id_to_token == want.id_to_token
        want.save(tmp_path / "want.json")
        got.save(tmp_path / "got.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
        return None

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("vocab_size", [60, 250, 700])
    def test_pseudo_corpora(self, seed, vocab_size, tmp_path):
        docs = make_pseudo_corpus(150, seed, lexicon_size=300)
        assert self._assert_same(docs, vocab_size, tmp_path) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tiny_alphabets(self, seed, tmp_path):
        texts = _random_texts(seed, n_docs=12, alphabet="ab" if seed % 2 else "abc",
                              max_word=9)
        docs = _docs(*texts)
        for vocab_size in (12, 20, 40, 400):
            self._assert_same(docs, vocab_size, tmp_path)

    def test_overlapping_self_pairs(self, tmp_path):
        # "aaaa" -> [aa, aa], "aaa" -> [aa, a]: runs merge left to right
        docs = _docs("aaaa aaa", "aaaaaaa a aa")
        for vocab_size in range(9, 16):
            self._assert_same(docs, vocab_size, tmp_path)
        assert sw.train_subwords(_docs("aaaa aaa"), 9).merges == [("a", "a")]

    def test_all_ties(self, tmp_path):
        # every adjacent pair occurs exactly once
        docs = _docs("ab cd ef gh", "ij kl mn op")
        for vocab_size in range(25, 33):
            self._assert_same(docs, vocab_size, tmp_path)
        assert sw.train_subwords(docs, 26).merges[0] == (" ", "c")

    def test_literal_special_tokens(self, tmp_path):
        docs = _docs("<mask> <mask> <pad>", "x<mark> <sep>y <cls>")
        for vocab_size in range(30, 60, 3):
            self._assert_same(docs, vocab_size, tmp_path)

    def test_words_collapse_to_one_symbol(self, tmp_path):
        # "ab" becomes one symbol after the first merge and then has no
        # pairs left, while the longer words keep merging
        docs = _docs("ab ab ab abab ababab abc")
        for vocab_size in range(10, 20):
            self._assert_same(docs, vocab_size, tmp_path)

    @pytest.mark.parametrize("texts, capacity", [
        (("ab",), 9),
        (("aaaa aaa",), 12),
        (("ab cd ab", "abcd"), 16),
    ])
    def test_capacity_error_at_same_step(self, texts, capacity, tmp_path):
        docs = _docs(*texts)
        assert self._assert_same(docs, capacity, tmp_path) is None
        message = self._assert_same(docs, capacity + 1, tmp_path)
        assert message == (f"corpus supports a vocabulary of at most {capacity} tokens, "
                           f"requested {capacity + 1}")


class TestEncoding:
    def test_unknown_characters_become_unk(self):
        model = sw.train_subwords(_docs("ababab"), 9)
        assert model.encode("abq") == [8, sw.UNK_ID]

    def test_merge_order_is_rank_order(self):
        vocab = list(sw.SPECIAL_TOKENS) + ["a", "b", "c", "ab", "bc", "abc"]
        model = sw.SubwordModel(vocab, [("a", "b"), ("b", "c"), ("ab", "c")])
        # rank 0 applies before rank 1, so "abc" -> [ab, c] -> [abc]
        assert model.encode("abc") == [model.token_to_id["abc"]]

    def test_leading_space_forms(self):
        model = sw.train_subwords(_docs("xy xy"), 11)
        assert " xy" in model.id_to_token
        first, second = model.encode("xy xy")
        assert model.id_to_token[first] == "xy"
        assert model.id_to_token[second] == " xy"

    def test_round_trip_normalizes_whitespace(self):
        docs = _docs("the cat sat", "a hat on a mat")
        model = sw.train_subwords(docs, 30)
        assert model.decode(model.encode("  the   cat \n sat ")) == "the cat sat"

    def test_empty_text(self):
        model = sw.train_subwords(_docs("ababab"), 9)
        assert model.encode("") == []
        assert model.decode([]) == ""

    def test_offsets_span_source_text(self):
        docs = _docs("the cat sat on the mat", "a cat and a hat")
        model = sw.train_subwords(docs, 32)
        text = "the cat and the mat sat"
        ids, offsets = model.encode_with_offsets(text)
        assert len(ids) == len(offsets)
        for tid, (s, e) in zip(ids, offsets):
            piece = model.id_to_token[tid]
            visible = piece[1:] if piece.startswith(" ") else piece
            assert text[s:e] == visible

    def test_offsets_zero_width_for_bare_space(self):
        # " zq" has no merges here, so its leading space becomes a bare
        # zero-width token followed by two UNKs
        model = sw.train_subwords(_docs("xy xy"), 11)
        ids, offsets = model.encode_with_offsets("xy zq")
        space_id = model.token_to_id[" "]
        k = ids.index(space_id)
        s, e = offsets[k]
        assert s == e
        assert ids[k + 1] == sw.UNK_ID and ids[k + 2] == sw.UNK_ID

    def test_offsets_cover_words_in_order(self):
        model = sw.train_subwords(_docs("aa bb aa bb"), 13)
        text = "aa bb"
        ids, offsets = model.encode_with_offsets(text)
        starts = [s for s, _ in offsets]
        assert starts == sorted(starts)
        assert model.decode(ids) == text


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = sw.train_subwords(_docs("the cat sat on the mat"), 24)
        path = tmp_path / "subwords.json"
        model.save(path)
        loaded = sw.SubwordModel.load(path)
        assert loaded.id_to_token == model.id_to_token
        assert loaded.merges == model.merges
        assert loaded.encode("the mat") == model.encode("the mat")

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 2, "kind": "bpe-subwords", '
                        '"vocab": [], "merges": []}')
        with pytest.raises(ValueError, match="bad.json"):
            sw.SubwordModel.load(path)

    @pytest.mark.parametrize("vocab, merges", [
        (["a", 7], [["a", "b"]]),
        (["a", "b"], [["a", "b", "c"]]),
        (["a", "b", " ", " a"], [["a", "b"]]),
    ])
    def test_rejects_bad_tables_naming_file(self, tmp_path, vocab, merges):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 1, "kind": "bpe-subwords",
                                    "vocab": list(sw.SPECIAL_TOKENS) + vocab,
                                    "merges": merges}))
        with pytest.raises(ValueError, match=f"{path}: bad subword model file: "):
            sw.SubwordModel.load(path)

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 1, "kind": "other", '
                        '"vocab": [], "merges": []}')
        with pytest.raises(ValueError):
            sw.SubwordModel.load(path)


class TestPacking:
    @pytest.fixture()
    def model(self):
        return sw.train_subwords(_docs("ababab"), 9)

    def test_exact_small_case(self, model):
        packed = sw.pack_examples(model, _docs("ab", "abab"), 3)
        np.testing.assert_array_equal(
            packed, np.array([[8, sw.SEP_ID, 8], [8, 0, 0]], dtype=np.int64))
        assert packed.dtype == np.int64

    def test_token_conservation(self, model):
        docs = _docs("abab", "ababab", "ab")
        packed = sw.pack_examples(model, docs, 4)
        n_tokens = sum(len(model.encode(d.text)) for d in docs)
        assert int(np.sum(packed != sw.PAD_ID)) == n_tokens + len(docs) - 1

    def test_separator_count(self, model):
        docs = _docs("ab", "ab", "ab", "ab")
        packed = sw.pack_examples(model, docs, 5)
        assert int(np.sum(packed == sw.SEP_ID)) == 3

    def test_pad_only_in_tail(self, model):
        packed = sw.pack_examples(model, _docs("ababab", "abab"), 4)
        flat = packed.ravel()
        pad_at = np.flatnonzero(flat == sw.PAD_ID)
        if pad_at.size:
            assert np.all(flat[pad_at[0]:] == sw.PAD_ID)

    def test_window_count_is_ceiling(self, model):
        packed = sw.pack_examples(model, _docs("ababab", "ababab"), 4)
        # stream length 7 -> two windows of 4
        assert packed.shape == (2, 4)

    def test_no_documents(self, model):
        packed = sw.pack_examples(model, [], 8)
        assert packed.shape == (0, 8)

    def test_context_too_small(self, model):
        with pytest.raises(ValueError, match="context_size"):
            sw.pack_examples(model, _docs("ab"), 1)
