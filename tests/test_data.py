import numpy as np
import numpy.testing as npt
import pytest

from minidl import data


class TestLoadCsv:
    def write(self, tmp_path, text, name="t.csv"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_header_and_values(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
        arr, header = data.load_csv(path)
        assert header == ["a", "b", "c"]
        npt.assert_array_equal(arr, [[1, 2, 3], [4, 5, 6]])

    def test_no_header(self, tmp_path):
        path = self.write(tmp_path, "1,2\n3,4\n")
        arr, header = data.load_csv(path, has_header=False)
        assert header is None
        npt.assert_array_equal(arr, [[1, 2], [3, 4]])

    def test_ragged_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="line 3"):
            data.load_csv(path)

    def test_non_numeric_reports_cell(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,oops\n")
        with pytest.raises(ValueError, match="'oops'"):
            data.load_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n\n3,4\n\n")
        arr, _ = data.load_csv(path)
        assert arr.shape == (2, 2)

    def test_empty_body_keeps_width(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\n")
        arr, header = data.load_csv(path)
        assert arr.shape == (0, 3) and header == ["a", "b", "c"]

    def test_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "rt.csv")
        orig = np.array([[0.1, 1.0 / 3.0], [1e-17, 123456.789]])
        data.save_csv(path, orig, header=["x", "y"])
        back, header = data.load_csv(path)
        npt.assert_array_equal(back, orig)  # repr() round-trips float64
        assert header == ["x", "y"]


class TestIdx:
    def test_round_trip(self, tmp_path):
        images = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
        labels = np.array([7, 2])
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        data.save_idx(images, labels, ip, lp)
        back_images, back_labels = data.load_idx(ip, lp)
        npt.assert_array_equal(back_images, images)
        npt.assert_array_equal(back_labels, labels)
        assert back_images.dtype == np.float64
        assert back_labels.dtype == np.int64

    def test_values_clipped_to_byte_range(self, tmp_path):
        images = np.array([[[-5.0, 300.0]]])
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        data.save_idx(images, np.array([0]), ip, lp)
        back, _ = data.load_idx(ip, lp)
        npt.assert_array_equal(back, [[[0.0, 255.0]]])

    def test_bad_image_magic(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        data.save_idx(np.zeros((1, 2, 2)), np.array([0]), str(ip), str(lp))
        raw = bytearray(ip.read_bytes())
        raw[3] = 0x99
        ip.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            data.load_idx(str(ip), str(lp))

    def test_truncated_images(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        data.save_idx(np.zeros((2, 2, 2)), np.array([0, 1]), str(ip), str(lp))
        ip.write_bytes(ip.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated"):
            data.load_idx(str(ip), str(lp))

    @pytest.mark.parametrize("short", ["images", "labels"])
    def test_file_shorter_than_its_header(self, tmp_path, short):
        paths = {"images": tmp_path / "i.idx", "labels": tmp_path / "l.idx"}
        data.save_idx(np.zeros((1, 2, 2)), np.array([0]), *map(str, paths.values()))
        paths[short].write_bytes(paths[short].read_bytes()[:3])
        with pytest.raises(ValueError, match="truncated"):
            data.load_idx(*map(str, paths.values()))

    def test_bad_label_magic_and_truncated_labels(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        data.save_idx(np.zeros((2, 2, 2)), np.array([0, 1]), str(ip), str(lp))
        raw = lp.read_bytes()
        lp.write_bytes(raw[:-1])
        with pytest.raises(ValueError, match="truncated label data"):
            data.load_idx(str(ip), str(lp))
        lp.write_bytes(b"\x00\x00\x08\x03" + raw[4:])
        with pytest.raises(ValueError, match="bad label magic"):
            data.load_idx(str(ip), str(lp))

    def test_count_mismatch(self, tmp_path):
        ia, la = str(tmp_path / "ia.idx"), str(tmp_path / "la.idx")
        ib, lb = str(tmp_path / "ib.idx"), str(tmp_path / "lb.idx")
        data.save_idx(np.zeros((2, 2, 2)), np.array([0, 1]), ia, la)
        data.save_idx(np.zeros((3, 2, 2)), np.array([0, 1, 2]), ib, lb)
        with pytest.raises(ValueError, match="count"):
            data.load_idx(ia, lb)

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ValueError, match="rows"):
            data.save_idx(np.zeros((4, 4)), np.zeros(4), "x", "y")
        with pytest.raises(ValueError, match="labels"):
            data.save_idx(np.zeros((2, 4, 4)), np.zeros(3), "x", "y")


class TestMinMaxScaler:
    def test_maps_to_unit_interval(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0], [2.0, 20.0]])
        out = data.MinMaxScaler().fit(X).transform(X)
        npt.assert_allclose(out, [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])

    def test_constant_column_flagged_and_zeroed(self):
        X = np.array([[5.0, 1.0], [5.0, 2.0]])
        sc = data.MinMaxScaler().fit(X)
        assert sc.constant_columns == [0]
        out = sc.transform(X)
        npt.assert_allclose(out[:, 0], 0.0)
        npt.assert_allclose(out[:, 1], [0.0, 1.0])

    def test_transform_extrapolates_beyond_fit_range(self):
        sc = data.MinMaxScaler().fit(np.array([[0.0], [10.0]]))
        out = sc.transform(np.array([[20.0], [-10.0]]))
        npt.assert_allclose(out, [[2.0], [-1.0]])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            data.MinMaxScaler().transform(np.ones((2, 2)))


class TestNormalizePixels:
    def test_unit(self):
        npt.assert_allclose(
            data.normalize_pixels(np.array([0.0, 127.5, 255.0])), [0.0, 0.5, 1.0]
        )

    def test_symmetric(self):
        npt.assert_allclose(
            data.normalize_pixels(np.array([0.0, 127.5, 255.0]), mode="symmetric"),
            [-1.0, 0.0, 1.0],
        )

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="normalization"):
            data.normalize_pixels(np.zeros(3), mode="zscore")


class TestOneHot:
    def test_label_nine_of_ten(self):
        out = data.one_hot(np.array([9]), 10)
        npt.assert_array_equal(out, [[0, 0, 0, 0, 0, 0, 0, 0, 0, 1]])

    def test_rows(self):
        out = data.one_hot(np.array([0, 2, 1]), 3)
        npt.assert_array_equal(out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_keeps_leading_shape(self):
        out = data.one_hot(np.array([[0, 1], [2, 0]]), 3)
        assert out.shape == (2, 2, 3)
        npt.assert_array_equal(out[1, 0], [0, 0, 1])

    def test_range_checks(self):
        with pytest.raises(ValueError, match="outside"):
            data.one_hot(np.array([3]), 3)
        with pytest.raises(ValueError, match="outside"):
            data.one_hot(np.array([-1]), 3)


class TestCharVocab:
    def test_sorted_and_bijective(self):
        v = data.CharVocab.from_text("banana")
        assert v.chars == ["a", "b", "n"]
        assert v.encode("ban") == [1, 0, 2]
        assert v.decode([1, 0, 2]) == "ban"
        assert len(v) == 3

    def test_unknown_char(self):
        v = data.CharVocab.from_text("ab")
        with pytest.raises(ValueError, match="'z'"):
            v.encode("az")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            data.CharVocab(["a", "a"])

    def test_json_round_trip(self, tmp_path):
        v = data.CharVocab.from_text("hello world")
        path = str(tmp_path / "vocab.json")
        v.save_json(path)
        back = data.CharVocab.load_json(path)
        assert back.chars == v.chars
        assert back.encode("hello") == v.encode("hello")


class TestBuildCharDataset:
    TEXT = "deep learning architectures"

    def decode_window(self, row, vocab):
        out = []
        for t in range(row.shape[0]):
            if not row[t].any():
                out.append(None)
            else:
                out.append(vocab.id_to_char[int(np.argmax(row[t]))])
        return out

    def test_windows_and_shift(self):
        X, Y, vocab = data.build_char_dataset(self.TEXT, 5)
        assert X.shape == (5, 5, len(vocab)) and Y.shape == X.shape
        xs = ["".join(self.decode_window(X[i], vocab)) for i in range(5)]
        assert xs == ["deep ", "learn", "ing a", "rchit", "ectur"]
        ys = ["".join(self.decode_window(Y[i], vocab)) for i in range(5)]
        assert ys == ["eep l", "earni", "ng ar", "chite", "cture"]

    def test_one_hot_rows(self):
        X, Y, _ = data.build_char_dataset(self.TEXT, 5)
        npt.assert_array_equal(np.sum(X, axis=2), 1.0)

    def test_tail_of_last_target_stays_zero(self):
        X, Y, vocab = data.build_char_dataset("abcdef", 3)
        # second window's target is "ef" plus nothing: the text ends
        assert self.decode_window(Y[1], vocab) == ["e", "f", None]
        npt.assert_array_equal(Y[1, 2], 0.0)

    def test_leftover_characters_dropped(self):
        X, _, _ = data.build_char_dataset("abcdefgh", 3)
        assert X.shape[0] == 2

    def test_vocab_reuse(self):
        big = data.CharVocab.from_text("abcdefgh")
        X, _, vocab = data.build_char_dataset("abab", 2, vocab=big)
        assert vocab is big
        assert X.shape == (2, 2, 8)

    @staticmethod
    def loop_reference(text, seq_length, vocab):
        """The dataset filled one character at a time."""
        n_seq = len(text) // seq_length
        X = np.zeros((n_seq, seq_length, len(vocab)))
        Y = np.zeros((n_seq, seq_length, len(vocab)))
        for i in range(n_seq):
            xs = text[i * seq_length : (i + 1) * seq_length]
            ys = text[i * seq_length + 1 : (i + 1) * seq_length + 1]
            for t, c in enumerate(xs):
                X[i, t, vocab.char_to_id[c]] = 1.0
            for t, c in enumerate(ys):
                Y[i, t, vocab.char_to_id[c]] = 1.0
        return X, Y

    @pytest.mark.parametrize("length", [0, 1, 4, 27, 28, 30, 31, 400])
    @pytest.mark.parametrize("seq_length", [1, 4, 7])
    def test_matches_the_loop_reference(self, length, seq_length):
        text = (self.TEXT * 15)[:length]
        X, Y, vocab = data.build_char_dataset(text, seq_length)
        want_X, want_Y = self.loop_reference(text, seq_length, vocab)
        assert X.shape == want_X.shape and Y.shape == want_Y.shape
        assert X.tobytes() == want_X.tobytes()
        assert Y.tobytes() == want_Y.tobytes()

    def test_character_missing_from_vocab_named(self):
        with pytest.raises(ValueError, match="'z' is not in the vocabulary"):
            data.build_char_dataset("abzab", 2, vocab=data.CharVocab.from_text("ab"))


class TestCleanText:
    def test_strips_punctuation_and_short_words(self):
        assert data.clean_text("I loved it!! 10/10 :-)") == "loved it"

    def test_lowercases(self):
        assert data.clean_text("GREAT Movie") == "great movie"

    def test_single_letters_dropped(self):
        assert data.clean_text("i saw a dog") == "saw dog"

    def test_adjacent_single_letters_keep_the_second(self):
        # the removal pass consumes the separating space, so only
        # alternating single letters disappear
        assert data.clean_text("a b see") == "b see"

    def test_collapses_whitespace(self):
        assert data.clean_text("one..two\t three") == "one two three"


class TestTokenizer:
    def test_frequency_ranks(self):
        tok = data.Tokenizer().fit(["the cat sat", "the cat", "the"])
        assert tok.word_index["the"] == 1
        assert tok.word_index["cat"] == 2
        assert tok.word_index["sat"] == 3

    def test_ties_break_by_first_appearance(self):
        tok = data.Tokenizer().fit(["zebra apple", "apple zebra"])
        assert tok.word_index["zebra"] == 1
        assert tok.word_index["apple"] == 2

    def test_sequences(self):
        tok = data.Tokenizer().fit(["the cat sat", "the cat"])
        assert tok.texts_to_sequences(["the sat dog"]) == [[1, 3]]

    def test_num_words_limits_sequences_not_index(self):
        tok = data.Tokenizer(num_words=2).fit(["a a a b b c"])
        assert tok.word_index == {"a": 1, "b": 2, "c": 3}
        assert tok.texts_to_sequences(["c b a"]) == [[2, 1]]

    def test_case_folding(self):
        tok = data.Tokenizer().fit(["The THE the"])
        assert tok.word_index == {"the": 1}


class TestPadSequences:
    def test_pre_padding_default(self):
        out = data.pad_sequences([[1, 2], [3]], maxlen=4)
        npt.assert_array_equal(out, [[0, 0, 1, 2], [0, 0, 0, 3]])
        assert out.dtype == np.int64

    def test_post_padding(self):
        out = data.pad_sequences([[1, 2]], maxlen=4, padding="post")
        npt.assert_array_equal(out, [[1, 2, 0, 0]])

    def test_pre_truncation_keeps_tail(self):
        out = data.pad_sequences([[1, 2, 3, 4]], maxlen=2)
        npt.assert_array_equal(out, [[3, 4]])

    def test_post_truncation_keeps_head(self):
        out = data.pad_sequences([[1, 2, 3, 4]], maxlen=2, truncating="post")
        npt.assert_array_equal(out, [[1, 2]])

    def test_maxlen_defaults_to_longest(self):
        out = data.pad_sequences([[1], [2, 3, 4]])
        assert out.shape == (2, 3)

    def test_custom_value_and_empty_row(self):
        out = data.pad_sequences([[], [5]], maxlen=2, value=-1)
        npt.assert_array_equal(out, [[-1, -1], [-1, 5]])

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            data.pad_sequences([[1]], maxlen=2, padding="middle")


class TestTextEmbeddings:
    def test_load_table(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("the 0.1 0.2 0.3\ncat 1.0 2.0 3.0\n")
        table = data.load_text_embeddings(str(p), 3)
        npt.assert_allclose(table["cat"], [1.0, 2.0, 3.0])
        assert set(table) == {"the", "cat"}

    def test_arity_error_names_line(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("the 0.1 0.2 0.3\ncat 1.0 2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            data.load_text_embeddings(str(p), 3)

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("the 0.1 x 0.3\n")
        with pytest.raises(ValueError, match="non-numeric"):
            data.load_text_embeddings(str(p), 3)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("the 1 2\n\n")
        assert len(data.load_text_embeddings(str(p), 2)) == 1

    def test_build_matrix(self):
        table = {"cat": np.array([1.0, 2.0]), "dog": np.array([3.0, 4.0])}
        word_index = {"cat": 1, "dog": 2, "emu": 3}
        M = data.build_embedding_matrix(word_index, table, 2)
        assert M.shape == (4, 2)
        npt.assert_array_equal(M[0], 0.0)  # padding row
        npt.assert_array_equal(M[1], [1.0, 2.0])
        npt.assert_array_equal(M[3], 0.0)  # no pretrained vector

    def test_build_matrix_caps_vocab(self):
        table = {"cat": np.array([1.0]), "dog": np.array([2.0])}
        word_index = {"cat": 1, "dog": 2}
        M = data.build_embedding_matrix(word_index, table, 1, vocab_size=2)
        assert M.shape == (2, 1)
        npt.assert_array_equal(M[1], [1.0])
