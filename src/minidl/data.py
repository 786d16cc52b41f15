"""Dataset loading and preparation.

Covers the formats the harness consumes: numeric CSV tables, the
big-endian IDX image/label container, GloVe-style text embedding files,
plus the usual preprocessing steps (scaling, one-hot encoding,
character and word tokenization, sequence padding).
"""

from __future__ import annotations

import json
import math
import re
import struct

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def load_csv(path, has_header=True):
    """Read a numeric CSV into a [rows, cols] float64 array.

    Returns (data, header) where header is the list of column names or
    None. Ragged rows and non-numeric cells raise with the 1-based line
    number. An empty body yields a [0, n_cols] array (n_cols from the
    header, else 0).
    """
    rows = []
    header = None
    width = None
    with open(path, "r", newline="") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\r\n")
            if line == "" and lineno > 1:
                continue
            cells = line.split(",")
            if has_header and header is None:
                header = [c.strip() for c in cells]
                width = len(header)
                continue
            if width is None:
                width = len(cells)
            if len(cells) != width:
                raise ValueError(
                    "%s line %d: expected %d columns, found %d"
                    % (path, lineno, width, len(cells))
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                bad = next(c for c in cells if not _is_number(c))
                raise ValueError(
                    "%s line %d: non-numeric cell %r" % (path, lineno, bad)
                ) from None
    if rows:
        data = np.asarray(rows, dtype=np.float64)
    else:
        data = np.zeros((0, width or 0))
    return data, header


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def save_csv(path, data, header=None):
    data = np.asarray(data, dtype=np.float64)
    with open(path, "w", newline="") as f:
        if header is not None:
            f.write(",".join(str(h) for h in header) + "\n")
        for row in data:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# IDX image container
# ---------------------------------------------------------------------------

def _read_idx(path, what, magic, rank):
    """The uint8 array of an IDX file: ``magic`` and ``rank`` extents in
    its header, then the data. ValueError for a short header, another
    magic or fewer data bytes than the extents need."""
    with open(path, "rb") as f:
        header = f.read(4 * (1 + rank))
        body = f.read()
    if len(header) < 4 * (1 + rank):
        raise ValueError("%s: truncated %s header" % (path, what))
    got, *shape = struct.unpack(">%dI" % (1 + rank), header)
    if got != magic:
        raise ValueError(
            "%s: bad %s magic 0x%08x (expected 0x%08x)" % (path, what, got, magic)
        )
    size = math.prod(shape)
    if len(body) < size:
        raise ValueError("%s: truncated %s data" % (path, what))
    return np.frombuffer(body, dtype=np.uint8, count=size).reshape(shape)


def load_idx(images_path, labels_path):
    """Read paired IDX image and label files.

    Returns (images, labels): images as [n, rows, cols] float64 holding
    the raw 0..255 pixel values, labels as [n] int64. The two files
    must agree on the item count.
    """
    images = _read_idx(images_path, "image", IDX_IMAGE_MAGIC, 3)
    labels = _read_idx(labels_path, "label", IDX_LABEL_MAGIC, 1)
    if len(images) != len(labels):
        raise ValueError(
            "image count %d does not match label count %d" % (len(images), len(labels))
        )
    return images.astype(np.float64), labels.astype(np.int64)


def save_idx(images, labels, images_path, labels_path):
    """Write images (values clipped to 0..255) and labels as IDX files."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.ndim != 3:
        raise ValueError("images must be [n, rows, cols], got %s" % (images.shape,))
    if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
        raise ValueError(
            "labels must be [n] matching images, got %s for %d images"
            % (labels.shape, images.shape[0])
        )
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(np.clip(images, 0, 255).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

class MinMaxScaler:
    """Column-wise rescale to [0, 1] using the extremes seen in fit.

    A constant column maps to all zeros; its index is recorded in
    ``constant_columns`` so the degenerate case is visible.
    """

    def __init__(self):
        self.mins = None
        self.maxs = None
        self.constant_columns = []

    def fit(self, X):
        X = np.asarray(X, dtype=np.float64)
        self.mins = np.min(X, axis=0)
        self.maxs = np.max(X, axis=0)
        self.constant_columns = [
            int(i) for i in np.nonzero(self.maxs == self.mins)[0]
        ]
        return self

    def transform(self, X):
        if self.mins is None:
            raise RuntimeError("scaler is not fitted")
        X = np.asarray(X, dtype=np.float64)
        span = self.maxs - self.mins
        safe = np.where(span == 0.0, 1.0, span)
        out = (X - self.mins) / safe
        if self.constant_columns:
            out[:, self.constant_columns] = 0.0
        return out


def normalize_pixels(x, mode="unit"):
    """Rescale 0..255 pixel values: "unit" maps to [0, 1] by dividing by
    255; "symmetric" maps to [-1, 1] via (x - 127.5) / 127.5."""
    x = np.asarray(x, dtype=np.float64)
    if mode == "unit":
        return x / 255.0
    if mode == "symmetric":
        return (x - 127.5) / 127.5
    raise ValueError("unknown pixel normalization %r" % (mode,))


def one_hot(labels, num_classes):
    labels = np.asarray(labels)
    flat = labels.reshape(-1).astype(np.int64)
    if flat.size and (flat.min() < 0 or flat.max() >= num_classes):
        bad = flat.min() if flat.min() < 0 else flat.max()
        raise ValueError("label %d outside [0, %d)" % (bad, num_classes))
    out = np.zeros((flat.size, num_classes))
    out[np.arange(flat.size), flat] = 1.0
    return out.reshape(labels.shape + (num_classes,))


# ---------------------------------------------------------------------------
# character-level text
# ---------------------------------------------------------------------------

class CharVocab:
    """Bijective map between the distinct characters of a text (sorted)
    and contiguous integer ids."""

    def __init__(self, chars):
        self.chars = list(chars)
        self.char_to_id = {c: i for i, c in enumerate(self.chars)}
        if len(self.char_to_id) != len(self.chars):
            raise ValueError("vocabulary has duplicate characters")
        self.id_to_char = {i: c for i, c in enumerate(self.chars)}

    @classmethod
    def from_text(cls, text):
        return cls(sorted(set(text)))

    def __len__(self):
        return len(self.chars)

    def encode(self, text):
        try:
            return [self.char_to_id[c] for c in text]
        except KeyError as e:
            raise ValueError("character %r is not in the vocabulary" % (e.args[0],)) from None

    def decode(self, ids):
        return "".join(self.id_to_char[int(i)] for i in ids)

    def save_json(self, path):
        with open(path, "w") as f:
            json.dump({"chars": self.chars}, f)

    @classmethod
    def load_json(cls, path):
        with open(path) as f:
            return cls(json.load(f)["chars"])


def build_char_dataset(text, seq_length, vocab=None):
    """Cut a text into floor(len/seq_length) contiguous windows.

    Returns (X, Y, vocab) with X[i] the one-hot window starting at
    i*seq_length and Y[i] the same window shifted right by one
    character. When the shifted window runs past the end of the text
    its missing tail stays all-zero. A character of those windows that
    a passed ``vocab`` lacks raises ``ValueError``.
    """
    if vocab is None:
        vocab = CharVocab.from_text(text)
    n_vocab = len(vocab)
    n_seq = len(text) // seq_length
    n = n_seq * seq_length
    ids = np.asarray(vocab.encode(text[: n + 1]), dtype=np.int64)
    X = np.zeros((n_seq, seq_length, n_vocab))
    Y = np.zeros((n_seq, seq_length, n_vocab))
    X.reshape(n, n_vocab)[np.arange(n), ids[:n]] = 1.0
    Y.reshape(n, n_vocab)[np.arange(len(ids) - 1), ids[1:]] = 1.0
    return X, Y, vocab


# ---------------------------------------------------------------------------
# word-level text
# ---------------------------------------------------------------------------

def clean_text(s):
    """Lowercase, drop non-alphabetic characters, strip single-letter
    words, and collapse whitespace.

    Single-letter removal is one regex pass whose match eats the
    following space, so the second of two adjacent single letters
    survives ("a b see" -> "b see"). Kept that way deliberately; real
    prose is unaffected.
    """
    s = re.sub(r"[^a-zA-Z]", " ", s)
    s = re.sub(r"\s+[a-zA-Z]\s+", " ", " " + s + " ")
    s = re.sub(r"\s+", " ", s)
    return s.strip().lower()


class Tokenizer:
    """Word-index tokenizer. Ranks run from 1 by descending frequency
    (ties broken by first appearance); 0 is reserved for padding. With
    ``num_words`` set, ids of rank > num_words are dropped when texts
    are converted to sequences, though ``word_index`` keeps every word.
    """

    def __init__(self, num_words=None):
        self.num_words = num_words
        self.word_index = {}
        self._counts = {}
        self._first_seen = {}

    def fit(self, texts):
        for text in texts:
            for w in self._split(text):
                if w not in self._counts:
                    self._counts[w] = 0
                    self._first_seen[w] = len(self._first_seen)
                self._counts[w] += 1
        ranked = sorted(
            self._counts, key=lambda w: (-self._counts[w], self._first_seen[w])
        )
        self.word_index = {w: i + 1 for i, w in enumerate(ranked)}
        return self

    @staticmethod
    def _split(text):
        return text.lower().split()

    def texts_to_sequences(self, texts):
        out = []
        limit = self.num_words
        for text in texts:
            seq = []
            for w in self._split(text):
                idx = self.word_index.get(w)
                if idx is None:
                    continue
                if limit is not None and idx > limit:
                    continue
                seq.append(idx)
            out.append(seq)
        return out


def pad_sequences(seqs, maxlen=None, padding="pre", truncating="pre", value=0):
    """Force variable-length id lists into a rectangular [n, maxlen]
    int64 array, padding short rows with ``value`` and truncating long
    ones, each on the chosen side."""
    if padding not in ("pre", "post") or truncating not in ("pre", "post"):
        raise ValueError("padding and truncating must be 'pre' or 'post'")
    seqs = [list(s) for s in seqs]
    if maxlen is None:
        maxlen = max((len(s) for s in seqs), default=0)
    out = np.full((len(seqs), maxlen), value, dtype=np.int64)
    for i, s in enumerate(seqs):
        if len(s) > maxlen:
            s = s[-maxlen:] if truncating == "pre" else s[:maxlen]
        if not s:
            continue
        if padding == "pre":
            out[i, maxlen - len(s):] = s
        else:
            out[i, : len(s)] = s
    return out


def load_text_embeddings(path, dim):
    """Parse a text embedding file: one word followed by ``dim`` reals
    per line. Returns word -> float64 vector. A row with the wrong
    arity raises with its 1-based line number."""
    table = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise ValueError(
                    "%s line %d: expected a word and %d values, found %d fields"
                    % (path, lineno, dim, len(parts))
                )
            try:
                table[parts[0]] = np.asarray([float(v) for v in parts[1:]])
            except ValueError:
                raise ValueError(
                    "%s line %d: non-numeric embedding value" % (path, lineno)
                ) from None
    return table


def build_embedding_matrix(word_index, table, dim, vocab_size=None):
    """Assemble [vocab_size, dim] rows from a lookup table. Row 0 and
    any word missing from the table stay zero."""
    if vocab_size is None:
        vocab_size = len(word_index) + 1
    out = np.zeros((vocab_size, dim))
    for word, idx in word_index.items():
        if idx >= vocab_size:
            continue
        vec = table.get(word)
        if vec is not None:
            out[idx] = vec
    return out
