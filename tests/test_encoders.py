"""Encoders: composition oracles, file-format round trips, failure modes."""

import hashlib
import os
import struct
import threading

import csv_oracle
import numpy as np
import pytest
from criterion_helpers import save_mnist
from hypothesis import example, given, settings
from hypothesis import strategies as st
from packing import pack, unpack

from hdtcam import am as am_module
from hdtcam import encoders, synth
from hdtcam.core import majority_from_counts
from hdtcam.encoders import (
    ALPHABET,
    ItemMemory,
    LabeledSet,
    Task,
    encode_images,
    encode_text_ngram,
    load_hypervector_csv,
    load_mnist,
    normalize_text,
    save_hypervector_csv,
)
from hdtcam.errors import ConfigError, DegenerateInputError, DimensionMismatchError, FormatError


def _majority(vectors):
    """Componentwise majority of an odd number of vectors."""
    return (2 * np.sum(vectors, axis=0) > len(vectors)).astype(np.uint8)


def encode_image(pixels, threshold, position_im, tie_rng=None):
    """One image at a time: the majority of the position hypervectors of all
    pixels at or above ``threshold``; the oracle of ``encode_images``."""
    white = np.flatnonzero(np.asarray(pixels).ravel() >= threshold)
    counts = position_im.matrix[white].sum(axis=0, dtype=np.int64)
    return majority_from_counts(counts, int(white.size), tie_rng)


# ---------------------------------------------------------------------------
# Item memory


def test_item_memory_deterministic():
    a = ItemMemory.for_alphabet(256, seed=5)
    b = ItemMemory.for_alphabet(256, seed=5)
    assert np.array_equal(a.matrix, b.matrix)
    assert len(a) == 27 and "a" in a.symbols and " " in a.symbols


def test_item_memory_unknown_symbol():
    im = ItemMemory.for_alphabet(64, seed=0)
    with pytest.raises(ValueError, match="not present"):
        im.indices("!")


def test_item_memory_indices():
    im = ItemMemory.for_alphabet(64, seed=0)
    assert im.indices("a z").tolist() == [ALPHABET.index(c) for c in "a z"]
    assert im.indices("").size == 0
    with pytest.raises(ValueError, match="symbol '!' not present"):
        im.indices("ab!c\u20ac")
    with pytest.raises(ValueError, match="symbol '\u20ac' not present"):
        im.indices("ab\u20ac!")


def test_position_memory_size():
    im = ItemMemory.for_positions(128, 784, seed=1)
    assert len(im) == 784
    assert im.matrix.shape == (784, 128)


def test_rotated_matrices_are_cached_read_only_rolls():
    """The packed rotations the text encoder reads: each a cached, read-only
    roll of the item memory, packed first bit highest."""
    im = ItemMemory.for_alphabet(41, seed=3)
    for j in (0, 1, 4, 40, 41, 45):
        rot = im.packed_rotation(j)
        assert rot.shape == (27, 6) and rot.dtype == np.uint8
        assert np.array_equal(np.unpackbits(rot, axis=1, count=41), np.roll(im.matrix, j, axis=1))
        assert not rot.flags.writeable
        assert im.packed_rotation(j) is rot
    with pytest.raises(ValueError):
        im.packed_rotation(1)[0, 0] = 1


# ---------------------------------------------------------------------------
# Text


def test_normalize_text():
    assert normalize_text("Hello,  World!\n") == "hello world"
    assert normalize_text("A  B\t\tC") == "a b c"
    assert normalize_text("  leading") == "leading"
    assert normalize_text("123!@#") == ""


def _normalize_text_oracle(text):
    """Character by character: whitespace is a space, anything outside the
    alphabet is dropped, and a kept space after a kept space or at either
    end is dropped."""
    kept = []
    for ch in text.lower():
        ch = " " if ch.isspace() else ch
        if ch in ALPHABET and not (ch == " " and (not kept or kept[-1] == " ")):
            kept.append(ch)
    return "".join(kept).rstrip(" ")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(st.sampled_from("aBz Z\t\n\x0b\x1c\x85\xa0\u3000\u0130K!,.\u00e9"))))
def test_normalize_text_matches_per_character_oracle(text):
    assert normalize_text(text) == _normalize_text_oracle(text)


def test_encode_text_ngram_manual_composition_oracle():
    """n=2 windows composed by hand: window = item[c0] xor roll(item[c1], 1)."""
    im = ItemMemory.for_alphabet(16, seed=9)
    text = "abca"
    rows = im.matrix[im.indices(text)]
    windows = []
    for i in range(len(text) - 1):
        v0 = rows[i]
        v1 = np.roll(rows[i + 1], 1)
        windows.append(np.bitwise_xor(v0, v1))
    expected = _majority(windows)  # 3 windows: no ties
    got = encode_text_ngram([text], 2, im)[0]
    assert np.array_equal(got, pack(expected))


def test_encode_text_ngram_applies_normalization():
    im = ItemMemory.for_alphabet(64, seed=2)
    tie = np.random.default_rng(0)
    a = encode_text_ngram(["AB, cd!"], 2, im, tie)
    tie = np.random.default_rng(0)
    b = encode_text_ngram(["ab cd"], 2, im, tie)
    assert np.array_equal(a, b)


def test_encode_text_too_short_raises():
    im = ItemMemory.for_alphabet(32, seed=0)
    with pytest.raises(ValueError, match="usable characters"):
        encode_text_ngram(["ab"], 4, im)


def test_encode_text_too_short_names_the_text(tmp_path, monkeypatch):
    im = ItemMemory.for_alphabet(32, seed=0)
    with pytest.raises(DegenerateInputError, match="text 1 has only 2 usable characters"):
        encode_text_ngram(["abcde", "Ab!"], 4, im)
    # A text that goes on past a piece is measured once it ends.
    with monkeypatch.context() as mp:
        mp.setattr(am_module, "CHUNK_BYTES", 16)  # one-letter pieces
        with pytest.raises(DegenerateInputError, match="text 1 has only 2 usable characters"):
            encode_text_ngram(["abcde", "!a!!b, !?! \t"], 4, im, np.random.default_rng(0))
    (tmp_path / "a.txt").write_text("abcde")
    (tmp_path / "b.txt").write_text("!!")
    task = Task("language")
    items, labels, names = task.read({"train_dir": str(tmp_path)}, "train")
    with pytest.raises(DegenerateInputError, match="corpus 'b' has only 0 usable characters"):
        task.train(items, labels, 32, names)


def _encode_text_ngram_oracle(text, n, im, tie_rng):
    """Reference encoder: XOR-compose and count every sliding window on its own."""
    idx = np.array([im.symbols.index(c) for c in text], dtype=np.intp)
    rotated = [np.roll(im.matrix, j, axis=1) for j in range(n)]
    num_windows = len(text) - n + 1
    counts = np.zeros(im.dimension, dtype=np.int64)
    chunk = max(1, 4_000_000 // im.dimension)
    for start in range(0, num_windows, chunk):
        stop = min(start + chunk, num_windows)
        window = rotated[0][idx[start:stop]]
        for j in range(1, n):
            window ^= rotated[j][idx[start + j : stop + j]]
        counts += window.sum(axis=0, dtype=np.int64)
    return majority_from_counts(counts, num_windows, tie_rng)


_letters = st.sampled_from(ALPHABET)
_texts = st.one_of(
    st.text(_letters, min_size=1, max_size=300),  # few repeated grams
    st.builds(lambda unit, reps: unit * reps,      # almost all grams repeated
              st.text(_letters, min_size=1, max_size=4), st.integers(1, 80)),
).map(normalize_text).filter(bool)


@settings(max_examples=150, deadline=None)
@given(text=_texts, n=st.integers(1, 5), dimension=st.sampled_from([7, 32, 65]),
       chunk_rows=st.sampled_from([1, 3, 1000]), seed=st.integers(0, 2**16))
def test_encode_text_ngram_matches_per_window_oracle(text, n, dimension, chunk_rows, seed):
    """Counting distinct grams with their multiplicity gives the same vector and
    draws the same tie bits; chunk size is invisible."""
    if len(text) < n:
        text = text * n
    im = ItemMemory.for_alphabet(dimension, seed=seed)
    got_tie, want_tie = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(am_module, "CHUNK_BYTES", chunk_rows * dimension)
        got = encode_text_ngram([text], n, im, got_tie)[0]
    want = _encode_text_ngram_oracle(text, n, im, want_tie)
    assert got.dtype == want.dtype == np.uint8
    assert np.array_equal(got, pack(want))
    assert got_tie.integers(0, 2**32) == want_tie.integers(0, 2**32)


@pytest.mark.parametrize("n", [13, 14, 30])
def test_encode_text_ngram_long_grams_match_oracle(n):
    """27**13 is the largest power of 27 in int64: 13-grams match the oracle,
    and a longer gram, whose window codes would overflow, is refused before
    a text is read (the text given is too short to encode)."""
    rng = np.random.default_rng(n)
    text = normalize_text("".join(rng.choice(list(ALPHABET), size=200))) * 2
    im = ItemMemory.for_alphabet(33, seed=1)
    if n > 13:
        with pytest.raises(ValueError, match=rf"^n-gram size must be in \[1, 13\], got {n}$"):
            encode_text_ngram(["ab"], n, im)
        return
    got_tie, want_tie = np.random.default_rng(0), np.random.default_rng(0)
    got = encode_text_ngram([text], n, im, got_tie)[0]
    assert np.array_equal(got, pack(_encode_text_ngram_oracle(text, n, im, want_tie)))
    assert got_tie.integers(0, 2**32) == want_tie.integers(0, 2**32)


def _random_text(seed, length):
    return normalize_text("".join(np.random.default_rng(seed).choice(list(ALPHABET), size=length)))


_batch_texts = st.lists(st.one_of(
    _texts,
    # more than 255 distinct grams of weight 1: crosses a uint8 slab
    st.builds(_random_text, st.integers(0, 2**16), st.integers(300, 700)),
    # one gram with more than 255 occurrences
    st.builds(lambda unit, reps: unit * reps,
              st.text(_letters, min_size=1, max_size=2), st.integers(130, 300)),
).map(normalize_text).filter(bool), min_size=1, max_size=6)


@settings(max_examples=120, deadline=None)
# 255 and 256 windows: the largest uint8 tally, then uint16.
@example(texts=["a" * 258], n=4, dimension=65, chunk_bytes=10**6, duplicate=False, seed=1)
@example(texts=["a" * 259, "ab" * 129], n=4, dimension=65, chunk_bytes=10**6, duplicate=True,
         seed=2)
# A weight-1 run of about 590 rows crosses two 255-row chunk edges.
@example(texts=["abab", _random_text(5, 600)], n=4, dimension=65, chunk_bytes=10**6,
         duplicate=False, seed=3)
# One chunk holds forty 1-gram texts.
@example(texts=[ALPHABET[i % 26] * (1 + i % 3) for i in range(40)], n=1, dimension=32,
         chunk_bytes=10**6, duplicate=False, seed=4)
# Seven 13-gram texts: pieces of at most 3 texts, whose codes fit int64.
@example(texts=[ALPHABET[i] * (13 + i) for i in range(7)], n=13, dimension=32, chunk_bytes=10**6,
         duplicate=False, seed=6)
# CHUNK_BYTES below one unpacked row (65 bytes): one-row chunks.
@example(texts=["hello world", "abcabcabc"], n=3, dimension=65, chunk_bytes=64, duplicate=False,
         seed=5)
@given(texts=_batch_texts, n=st.sampled_from([1, 2, 3, 4, 5, 13]),
       dimension=st.sampled_from([7, 32, 65]), chunk_bytes=st.sampled_from([1, 24, 600, 10**6]),
       duplicate=st.booleans(), seed=st.integers(0, 2**16))
def test_encode_text_ngram_batch_matches_per_text_oracle(texts, n, dimension, chunk_bytes,
                                                         duplicate, seed):
    """A batch of texts equals the per-window oracle applied text by text on one
    shared tie stream, across row chunks, pieces, texts going on past a piece,
    and pieces of at most 3 texts at n = 13."""
    texts = [text if len(text) >= n else text * n for text in texts]
    if duplicate:
        texts.insert(len(texts) // 2, texts[0])
    im = ItemMemory.for_alphabet(dimension, seed=seed)
    got_tie, want_tie = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(am_module, "CHUNK_BYTES", chunk_bytes)
        got = encode_text_ngram(texts, n, im, got_tie)
    want = pack(np.stack([_encode_text_ngram_oracle(text, n, im, want_tie) for text in texts]))
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got_tie.integers(0, 2**32) == want_tie.integers(0, 2**32)


def test_encode_text_ngram_of_no_texts():
    """No texts: a packed (0, ceil(D / 8)) uint8 matrix, and no tie bit drawn."""
    im = ItemMemory.for_alphabet(41, seed=1)
    tie = np.random.default_rng(9)
    got = encode_text_ngram([], 4, im, tie)
    assert got.shape == (0, 6) and got.dtype == np.uint8
    assert tie.integers(0, 2**32) == np.random.default_rng(9).integers(0, 2**32)


def test_language_task_vectors_pinned():
    """Class and query vectors of the language task, unpacked, and the tie
    stream after them, as recorded from the per-text encoder."""
    bench = synth.make_language_benchmark(train_chars=20_000, queries_per_language=25, seed=3)
    task = Task("language")
    memory = task.train(list(bench.train_texts.values()), list(bench.train_texts), 2000)
    queries = task.encode([text for text, _ in bench.queries], 2000)
    assert hashlib.sha256(unpack(memory.class_matrix, 2000).tobytes()).hexdigest() == (
        "059d977b7e16c35ecb831e840bbe9c1cbc219cc1ed2a874d74b3a326c7887c82")
    assert hashlib.sha256(unpack(queries, 2000).tobytes()).hexdigest() == (
        "e7ea42011a975a33e58db4c8d3e7c03c4538f7912cbce869b27d644f2c45b514")
    assert task._tie.integers(0, 2**32) == 1976264293


def test_encode_text_chunking_is_invisible(monkeypatch):
    """Long texts cross the internal chunk boundary without changing results."""
    rng = np.random.default_rng(4)
    text = normalize_text("".join(rng.choice(list(ALPHABET), size=3000)))
    im = ItemMemory.for_alphabet(2000, seed=3)
    monkeypatch.setattr(am_module, "CHUNK_BYTES", 100 * 2000 // 8)  # 12 unpacked rows
    got = encode_text_ngram([text], 4, im, np.random.default_rng(1))[0]
    want = _encode_text_ngram_oracle(text, 4, im, np.random.default_rng(1))
    assert np.array_equal(got, pack(want))


def test_encode_text_working_set_is_bounded_in_bytes(traced_peak):
    """Many short texts: beyond the output, a call holds what a batch of
    CHUNK_BYTES / 8 characters and a chunk of CHUNK_BYTES of unpacked grams
    need, at most eleven CHUNK_BYTES."""
    rng = np.random.default_rng(6)
    texts = ["".join(rng.choice(list(ALPHABET[:-1]), size=50)) for _ in range(4000)]
    im = ItemMemory.for_alphabet(4000, seed=2)
    encode_text_ngram(texts[:1], 4, im)  # rotations cached on the item memory
    out, peak = traced_peak(encode_text_ngram, texts, 4, im, np.random.default_rng(1))
    assert peak <= out.nbytes + 11 * am_module.CHUNK_BYTES


def test_encode_text_of_a_long_corpus_is_bounded_in_bytes(traced_peak):
    """A corpus longer than one piece is counted a piece at a time, so its
    working set follows the piece and the corpus's distinct grams, not its
    length: at D = 2000 the traced peak of a 400 000-character synth corpus
    stays within the bound a 100 000-character one is held to, five
    CHUNK_BYTES."""
    im = ItemMemory.for_alphabet(2000, seed=42)
    encode_text_ngram(["abcd"], 4, im)  # rotations cached on the item memory
    for chars in (100_000, 400_000):
        bench = synth.make_language_benchmark(num_languages=1, train_chars=chars,
                                              queries_per_language=1, seed=0)
        _, peak = traced_peak(encode_text_ngram, list(bench.train_texts.values()), 4, im,
                              np.random.default_rng(1))
        assert peak <= 5 * am_module.CHUNK_BYTES, chars


def test_encode_text_of_many_distinct_grams_is_bounded_in_them(traced_peak):
    """A long text's table of distinct grams is merged a piece at a time and
    held twice at most one array at a time: a 400 000-character text of
    random letters (about 280 000 distinct 4-grams) at D = 2000 holds at most
    24 bytes per distinct gram and five CHUNK_BYTES."""
    im = ItemMemory.for_alphabet(2000, seed=42)
    encode_text_ngram(["abcd"], 4, im)  # rotations cached on the item memory
    text = _random_text(0, 400_000)
    distinct = len({text[i : i + 4] for i in range(len(text) - 3)})
    _, peak = traced_peak(encode_text_ngram, [text], 4, im, np.random.default_rng(1))
    assert peak <= 24 * distinct + 5 * am_module.CHUNK_BYTES, (peak, distinct)


@settings(max_examples=200, deadline=None)
@given(text=st.text(st.sampled_from("aBz Z\t\n\x0b\x1c\x85\xa0\u3000\u0130\u212a!,.\u00e9"),
                    max_size=80),
       n=st.integers(1, 4), chunk_bytes=st.sampled_from([1, 32, 80, 10**6]))
def test_encode_text_streams_raw_text_in_parts(text, n, chunk_bytes):
    """A text longer than a piece (CHUNK_BYTES / 16 letters) is normalised and
    counted a part at a time, whitespace and dropped characters falling on
    the cuts: the vector and tie draws of the per-window oracle of the whole
    text, normalised character by character."""
    normalized = _normalize_text_oracle(text)
    if len(normalized) < n:
        normalized = text = "abcd"
    im = ItemMemory.for_alphabet(33, seed=4)
    got_tie, want_tie = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(am_module, "CHUNK_BYTES", chunk_bytes)
        got = encode_text_ngram([text], n, im, got_tie)[0]
    assert np.array_equal(got, pack(_encode_text_ngram_oracle(normalized, n, im, want_tie)))
    assert got_tie.integers(0, 2**32) == want_tie.integers(0, 2**32)


# ---------------------------------------------------------------------------
# Images


def test_encode_image_three_pixel_oracle():
    im = ItemMemory.for_positions(64, 9, seed=11)
    pixels = np.zeros(9, dtype=np.uint8)
    pixels[[1, 4, 7]] = 255
    expected = _majority(im.matrix[[1, 4, 7]])  # odd count: deterministic
    assert np.array_equal(encode_images(pixels.reshape(1, 3, 3), 128, im, seed=0)[0],
                          pack(expected))


def test_encode_image_all_black_raises():
    im = ItemMemory.for_positions(32, 4, seed=0)
    with pytest.raises(DegenerateInputError):
        encode_images(np.zeros((1, 2, 2), dtype=np.uint8), 128, im, seed=0)


def test_encode_image_wrong_pixel_count():
    im = ItemMemory.for_positions(32, 4, seed=0)
    with pytest.raises(DimensionMismatchError):
        encode_images(np.ones((1, 3, 3), dtype=np.uint8) * 255, 128, im, seed=0)


def test_encode_images_matches_single_image_path(monkeypatch):
    """Images encoded in chunks of one, a few or all images equal the
    one-image oracle, each breaking ties from its own seed."""
    rng = np.random.default_rng(8)
    images = (rng.random((5, 4, 4)) < 0.5).astype(np.uint8) * 255
    images[:, 0, 0] = 255  # never all-black
    im = ItemMemory.for_positions(101, 16, seed=21)
    children = np.random.SeedSequence(33).spawn(5)
    want = [pack(encode_image(images[i], 128, im, np.random.default_rng(children[i])))
            for i in range(5)]
    for chunk_bytes in (1, 2000, 10**6):
        monkeypatch.setattr(am_module, "CHUNK_BYTES", chunk_bytes)
        assert np.array_equal(encode_images(images, 128, im, seed=33), want), chunk_bytes


def test_encode_images_all_black_image_named_in_a_later_chunk(monkeypatch):
    im = ItemMemory.for_positions(32, 4, seed=0)
    images = np.full((5, 2, 2), 255, dtype=np.uint8)
    images[3] = 0
    monkeypatch.setattr(am_module, "CHUNK_BYTES", 1)
    with pytest.raises(DegenerateInputError, match="image 3 has no pixels"):
        encode_images(images, 128, im, seed=0)


def test_encode_images_working_set_is_bounded_in_bytes(traced_peak):
    """Beyond the output, a call holds a chunk of thresholded pixels and tie
    bits and a block of float32 positions and counts, at most three
    CHUNK_BYTES, however many images the stack holds and however large the
    position memory is."""
    rng = np.random.default_rng(9)
    images = np.where(rng.random((2000, 28, 28)) < 0.3, 255, 0).astype(np.uint8)
    im = ItemMemory.for_positions(2000, 784, seed=1)
    out, peak = traced_peak(encode_images, images, 128, im, 0)
    assert out.shape == (2000, 250)
    assert peak <= out.nbytes + 3 * am_module.CHUNK_BYTES


def test_binarize_and_average_is_majority():
    rng = np.random.default_rng(0)
    vs = [(rng.random(32) < 0.5).astype(np.uint8) for _ in range(5)]
    binarized_average = (np.mean(vs, axis=0) > 0.5).astype(np.uint8)
    assert np.array_equal(binarized_average, majority_from_counts(np.sum(vs, axis=0), 5))


def test_task_defaults_and_validation():
    assert (Task("language").item_seed, Task("language").tie_seed) == (42, 7)
    assert (Task("mnist").ngram, Task("mnist").threshold) == (4, 128)
    assert (Task("csv", item_seed=5).item_seed, Task("csv", item_seed=5).tie_seed) == (5, 0)
    with pytest.raises(ConfigError, match="task must be one of"):
        Task("speech")
    with pytest.raises(ConfigError, match="task must be one of"):
        Task(None)
    with pytest.raises(DimensionMismatchError):
        Task("csv").train((np.zeros((1, 1), dtype=np.uint8), 8), ["a"], 16)


@pytest.mark.parametrize("kind, order", [
    ("language", ["b", "a", "c"]), ("csv", ["b", "a", "c"]), ("mnist", ["2", "5", "11"]),
])
def test_task_train_class_order(kind, order):
    """``train`` takes (items, string labels) for every kind and bundles the
    classes in first-seen order, ``mnist``'s by digit value."""
    labels = {"mnist": ["11", "2", "5", "2"]}.get(kind, ["b", "a", "c", "a"])
    items = {"language": ["the cat sat", "der hund", "le chat noir", "die katze"],
             "mnist": np.full((4, 3, 3), 255, dtype=np.uint8),
             "csv": (pack(np.eye(4, 64)), 64)}[kind]
    assert Task(kind).train(items, labels, 64).labels == order


# ---------------------------------------------------------------------------
# IDX files


def _toy_images():
    rng = np.random.default_rng(17)
    images = rng.integers(0, 256, size=(12, 5, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=12, dtype=np.uint8)
    return images, labels


def test_idx_round_trip(tmp_path):
    images, labels = _toy_images()
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_mnist(ip, lp, images, labels)
    got_images, got_labels = load_mnist(ip, lp)
    assert np.array_equal(got_images, images)
    assert np.array_equal(got_labels, labels)


def test_idx_bad_magic(tmp_path):
    images, labels = _toy_images()
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_mnist(ip, lp, images, labels)
    raw = bytearray(ip.read_bytes())
    raw[3] = 0x42
    ip.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_mnist(ip, lp)


def test_idx_truncated(tmp_path):
    images, labels = _toy_images()
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_mnist(ip, lp, images, labels)
    ip.write_bytes(ip.read_bytes()[:-5])
    with pytest.raises(FormatError, match="truncated"):
        load_mnist(ip, lp)


@pytest.mark.parametrize("count, rows, cols", [(2**32 - 1,) * 3, (2**16, 2**12, 2**12)],
                         ids=["overflows-an-index", "exceeds-the-file"])
def test_idx_header_claims_more_than_the_file(tmp_path, count, rows, cols):
    """A header claiming more pixels than the file holds, even more than an
    index fits, is a truncated file at the offset of the pixel data; the
    claimed bytes are never read."""
    images, labels = _toy_images()
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_mnist(ip, lp, images, labels)
    header = struct.pack(">IIII", encoders.IDX_IMAGE_MAGIC, count, rows, cols)
    ip.write_bytes(header + ip.read_bytes()[16:])
    with pytest.raises(FormatError, match=r"img\.idx: truncated .*offset 16"):
        load_mnist(ip, lp)


def test_idx_count_mismatch(tmp_path):
    images, labels = _toy_images()
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_mnist(ip, lp, images, labels[:-2])
    with pytest.raises(FormatError, match="labels for"):
        load_mnist(ip, lp)


def test_idx_trailing_bytes(tmp_path):
    """Bytes after the pixel data, or after the label data, are refused at
    the offset where the data ends."""
    images, labels = _toy_images()
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    for path, data, end, extra in ((ip, "pixel", 16 + images.size, b"\x00"),
                                   (lp, "label", 8 + labels.size, b"\x00\x00")):
        save_mnist(ip, lp, images, labels)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(FormatError, match=f"trailing bytes after {data} data") as info:
            load_mnist(ip, lp)
        assert info.value.location == f"offset {end}"


# ---------------------------------------------------------------------------
# Hypervector CSV


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    labeled = LabeledSet(dimension=21)
    for i in range(6):
        labeled.add(pack(rng.random(21) < 0.5), f"c{i % 2}")
    path = tmp_path / "set.csv"
    save_hypervector_csv(path, labeled)
    matrix, labels, dimension = load_hypervector_csv(path)
    assert matrix.shape == (6, 3) and matrix.dtype == np.uint8 and dimension == 21
    assert labels == [label for _, label in labeled.items]
    assert np.array_equal(matrix, np.stack([hv for hv, _ in labeled.items]))
    expected = "label,bits\n" + "".join(
        f"{label},{''.join('1' if b else '0' for b in unpack(hv, 21))}\n"
        for hv, label in labeled.items
    )
    assert path.read_bytes() == expected.encode()


def test_csv_header_optional(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("a,0101\nb,1111\n")
    assert load_hypervector_csv(path)[1] == ["a", "b"]


def test_csv_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,0101\nb,11\n")
    with pytest.raises(FormatError, match="row 2"):
        load_hypervector_csv(path)


def test_csv_bad_bits(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,01x1\n")
    with pytest.raises(FormatError, match="row 1"):
        load_hypervector_csv(path)


def test_csv_non_binary_row_is_named_before_a_ragged_one(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,0101\nb,11\nc,01x1\n")
    with pytest.raises(FormatError, match="non-empty over") as info:
        load_hypervector_csv(path)
    assert info.value.location == "row 3"


@pytest.mark.parametrize("content, row", [
    ("a,\nb,0101\n", 1),
    ("label,bits\na,0101\nb,\n", 3),
    ("a,0101\nb,01\uff111\n", 2),
    ("a,0101\nb,01\u00e91\n", 2),
    ("a,0101\r\nb,1100\r\n", None),
    ("\ufefflabel,bits\na,0101\nb,1100\n", None),
    ("\ufeffa,0101\r\nb,1100\r\n", None),
], ids=["empty-first", "empty-later", "fullwidth-one", "e-acute", "crlf", "bom", "bom-crlf"])
def test_csv_bitstrings_outside_ascii_binary(content, row, tmp_path):
    """An empty bitstring, or one holding a character that only looks binary
    or lies beyond ASCII, is a FormatError naming its row; CRLF line ends and
    a byte-order mark load the matrix of the plain file."""
    path = tmp_path / "rows.csv"
    path.write_bytes(content.encode("utf-8"))
    if row is not None:
        with pytest.raises(FormatError, match="non-empty over") as info:
            load_hypervector_csv(path)
        assert info.value.location == f"row {row}"
        return
    matrix, labels, dimension = load_hypervector_csv(path)
    assert labels == ["a", "b"]
    assert unpack(matrix, dimension).tolist() == [[0, 1, 0, 1], [1, 1, 0, 0]]


def _bits_rows(rng, rows, dimension):
    """A ``label,bits`` file of random rows: (its text, matrix, labels)."""
    matrix = rng.integers(0, 2, (rows, dimension), dtype=np.uint8)
    labels = [f"c{i % 7}" for i in range(rows)]
    text = "label,bits\n" + "".join(
        f"{label},{(row + ord('0')).tobytes().decode()}\n" for label, row in zip(labels, matrix))
    return text, matrix, labels


def test_csv_load_holds_one_matrix(tmp_path, traced_peak):
    """Rows are packed straight into one matrix sized from the file: the load
    peaks at its packed matrix, a quarter more for labels and buffers, and a
    few rows of text and bits."""
    text, want, labels = _bits_rows(np.random.default_rng(2), 2000, 4000)
    path = tmp_path / "big.csv"
    path.write_text(text)
    (matrix, got_labels, dimension), peak = traced_peak(load_hypervector_csv, path)
    assert np.array_equal(matrix, pack(want)) and got_labels == labels and dimension == 4000
    assert matrix.base is None and matrix.flags.c_contiguous
    assert peak <= 1.25 * matrix.nbytes + 4 * 4000


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_csv_through_a_pipe(tmp_path, monkeypatch):
    """A file of unknown size, here a FIFO, loads as the regular file does,
    its matrix doubled from a few rows as they come."""
    text, want, labels = _bits_rows(np.random.default_rng(3), 50, 64)
    monkeypatch.setattr(am_module, "CHUNK_BYTES", 3 * 8)  # starts at 3 packed rows
    fifo = tmp_path / "bits.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    matrix, got_labels, dimension = load_hypervector_csv(fifo)
    writer.join(timeout=10)
    regular = tmp_path / "bits.csv"
    regular.write_text(text)
    assert np.array_equal(matrix, pack(want)) and got_labels == labels and dimension == 64
    assert np.array_equal(matrix, load_hypervector_csv(regular)[0])
    assert matrix.shape == (50, 8)


_labels = st.text(st.sampled_from("ab Z-é日😀"), min_size=1, max_size=3).filter(str.strip)
_pads = st.sampled_from(["", " ", "\t"])


def _rows(dimension):
    """Strategies of (valid rows, bad or blank rows) of a ``label,bits`` file."""
    bits = st.text(st.sampled_from("01"), min_size=dimension, max_size=dimension)
    bad = st.sampled_from("2x ?é€\uff11😀")
    valid = st.builds("{}{},{}{}".format, _pads, _labels, bits, _pads)
    other = st.one_of(
        st.sampled_from(["", " ", "\t ", "label,bits", "nocomma", "01", ",0101", " ,1"]),
        st.builds("{},{}".format, _labels,                        # ragged or empty
                  st.text(st.sampled_from("01"), max_size=8)),
        st.builds(lambda label, b, c, at: f"{label},{b[:at]}{c}{b[at + 1:]}",  # non-binary
                  _labels, bits, bad, st.integers(0, dimension - 1)),
        st.builds("{},{}{}".format, _labels, bits, bad),          # non-binary and ragged
    )
    return valid, other


@st.composite
def _bit_files(draw):
    """Bytes of a ``label,bits`` file: valid rows of one width with blank and
    bad rows anywhere, LF, CRLF or lone-CR line ends, an optional byte-order
    mark, header and final newline, and rarely a byte that is not UTF-8."""
    valid, other = _rows(draw(st.integers(1, 6)))
    lines = draw(st.lists(valid, max_size=6))
    for bad in draw(st.lists(other, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["label,bits", " Label , bits"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    data = ("\ufeff" if draw(st.booleans()) else "") + "".join(map(str.__add__, lines, ends))
    data = data.encode("utf-8")
    if draw(st.integers(0, 9)) == 7:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _load_outcome(load, path):
    try:
        matrix, labels, dimension = load(path)
    except FormatError as exc:
        return str(exc), exc.location
    return matrix.dtype, matrix.shape, matrix.tobytes(), labels, dimension


@settings(max_examples=300, deadline=None)
@example(data=b"a,0101\nb,11\nc,01x1\n")
@example(data=b"a,0101\nb,01x1\nnocomma\n")
@example(data=b"\xef\xbb\xbfLABEL,bits\r\n\r\n a ,0101 \rb,\xe2\x82\xac101\n,01")
@given(data=_bit_files())
def test_csv_loader_matches_list_oracle(data, tmp_path_factory):
    """The streamed loader gives the list-based loader's matrix and labels, or
    its FormatError message and location, on any file."""
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    path.write_bytes(data)
    assert _load_outcome(load_hypervector_csv, path) == _load_outcome(
        csv_oracle.load_hypervector_csv, path)


def test_csv_missing_comma(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nocomma\n")
    with pytest.raises(FormatError):
        load_hypervector_csv(path)


def test_labeled_set_validation():
    """A set takes packed vectors of its dimension's width and non-empty labels."""
    s = LabeledSet(dimension=9)
    with pytest.raises(DimensionMismatchError):
        s.add(np.zeros(1, dtype=np.uint8), "a")
    with pytest.raises(DimensionMismatchError):
        s.add(np.zeros(9, dtype=np.uint8), "a")
    with pytest.raises(ValueError):
        s.add(np.zeros(2, dtype=np.uint8), "")
