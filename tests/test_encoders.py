"""Encoders: composition oracles, file-format round trips, failure modes."""

import numpy as np
import pytest

from hdtcam.core import bundle, majority_from_counts
from hdtcam.encoders import (
    ALPHABET,
    ItemMemory,
    LabeledSet,
    Task,
    encode_image,
    encode_images,
    encode_text_ngram,
    load_hypervector_csv,
    load_mnist,
    normalize_text,
    save_hypervector_csv,
    save_mnist,
)
from hdtcam.errors import ConfigError, DegenerateInputError, DimensionMismatchError, FormatError


# ---------------------------------------------------------------------------
# Item memory


def test_item_memory_deterministic():
    a = ItemMemory.for_alphabet(256, seed=5)
    b = ItemMemory.for_alphabet(256, seed=5)
    assert np.array_equal(a.matrix, b.matrix)
    assert len(a) == 27 and "a" in a and " " in a


def test_item_memory_unknown_symbol():
    im = ItemMemory.for_alphabet(64, seed=0)
    with pytest.raises(ValueError, match="not present"):
        im["!"]


def test_position_memory_size():
    im = ItemMemory.for_positions(128, 784, seed=1)
    assert len(im) == 784
    assert im.matrix.shape == (784, 128)


# ---------------------------------------------------------------------------
# Text


def test_normalize_text():
    assert normalize_text("Hello,  World!\n") == "hello world"
    assert normalize_text("A  B\t\tC") == "a b c"
    assert normalize_text("  leading") == "leading"
    assert normalize_text("123!@#") == ""


def test_encode_text_ngram_manual_composition_oracle():
    """n=2 windows composed by hand: window = item[c0] xor roll(item[c1], 1)."""
    im = ItemMemory.for_alphabet(16, seed=9)
    text = "abca"
    windows = []
    for i in range(len(text) - 1):
        v0 = im[text[i]]
        v1 = np.roll(im[text[i + 1]], 1)
        windows.append(np.bitwise_xor(v0, v1))
    expected = bundle(windows)  # 3 windows: no ties
    got = encode_text_ngram(text, 2, im)
    assert np.array_equal(got, expected)


def test_encode_text_ngram_applies_normalization():
    im = ItemMemory.for_alphabet(64, seed=2)
    tie = np.random.default_rng(0)
    a = encode_text_ngram("AB, cd!", 2, im, tie)
    tie = np.random.default_rng(0)
    b = encode_text_ngram("ab cd", 2, im, tie)
    assert np.array_equal(a, b)


def test_encode_text_too_short_raises():
    im = ItemMemory.for_alphabet(32, seed=0)
    with pytest.raises(ValueError, match="usable characters"):
        encode_text_ngram("ab", 4, im)


def test_encode_text_chunking_is_invisible():
    """Long texts cross the internal chunk boundary without changing results."""
    rng = np.random.default_rng(4)
    text = "".join(rng.choice(list(ALPHABET), size=3000))
    im = ItemMemory.for_alphabet(2000, seed=3)
    full = encode_text_ngram(text, 4, im, np.random.default_rng(1))
    again = encode_text_ngram(text, 4, im, np.random.default_rng(1))
    assert np.array_equal(full, again)


# ---------------------------------------------------------------------------
# Images


def test_encode_image_three_pixel_oracle():
    im = ItemMemory.for_positions(64, 9, seed=11)
    pixels = np.zeros(9, dtype=np.uint8)
    pixels[[1, 4, 7]] = 255
    expected = bundle([im[1], im[4], im[7]])  # odd count: deterministic
    assert np.array_equal(encode_image(pixels.reshape(3, 3), 128, im), expected)


def test_encode_image_all_black_raises():
    im = ItemMemory.for_positions(32, 4, seed=0)
    with pytest.raises(DegenerateInputError):
        encode_image(np.zeros((2, 2), dtype=np.uint8), 128, im)


def test_encode_image_wrong_pixel_count():
    im = ItemMemory.for_positions(32, 4, seed=0)
    with pytest.raises(DimensionMismatchError):
        encode_image(np.ones((3, 3), dtype=np.uint8) * 255, 128, im)


def test_encode_images_matches_single_image_path():
    rng = np.random.default_rng(8)
    images = (rng.random((5, 4, 4)) < 0.5).astype(np.uint8) * 255
    images[:, 0, 0] = 255  # never all-black
    im = ItemMemory.for_positions(101, 16, seed=21)
    batch = encode_images(images, 128, im, seed=33)
    children = np.random.SeedSequence(33).spawn(5)
    for i in range(5):
        single = encode_image(images[i], 128, im, np.random.default_rng(children[i]))
        assert np.array_equal(batch[i], single)


def test_binarize_and_average_is_majority():
    rng = np.random.default_rng(0)
    vs = [(rng.random(32) < 0.5).astype(np.uint8) for _ in range(5)]
    binarized_average = (np.mean(vs, axis=0) > 0.5).astype(np.uint8)
    assert np.array_equal(binarized_average, bundle(vs))


def test_task_defaults_and_validation():
    assert (Task("language").item_seed, Task("language").tie_seed) == (42, 7)
    assert (Task("mnist").ngram, Task("mnist").threshold) == (4, 128)
    assert Task("csv", item_seed="5").item_seed == 5
    with pytest.raises(ConfigError, match="task must be one of"):
        Task("speech")
    labeled = LabeledSet(dimension=8)
    labeled.add(np.zeros(8, dtype=np.uint8), "a")
    with pytest.raises(DimensionMismatchError):
        Task("csv").train(labeled, 16)


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


def test_idx_count_mismatch(tmp_path):
    images, labels = _toy_images()
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_mnist(ip, lp, images, labels[:-2])
    with pytest.raises(FormatError, match="labels for"):
        load_mnist(ip, lp)


def test_idx_trailing_bytes(tmp_path):
    images, labels = _toy_images()
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_mnist(ip, lp, images, labels)
    ip.write_bytes(ip.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_mnist(ip, lp)


# ---------------------------------------------------------------------------
# Hypervector CSV


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    labeled = LabeledSet(dimension=24)
    for i in range(6):
        labeled.add((rng.random(24) < 0.5).astype(np.uint8), f"c{i % 2}")
    path = tmp_path / "set.csv"
    save_hypervector_csv(path, labeled)
    got = load_hypervector_csv(path)
    assert got.dimension == 24
    assert len(got) == 6
    for (hv_a, lab_a), (hv_b, lab_b) in zip(got.items, labeled.items):
        assert lab_a == lab_b
        assert np.array_equal(hv_a, hv_b)


def test_csv_header_optional(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("a,0101\nb,1111\n")
    got = load_hypervector_csv(path)
    assert [label for _, label in got.items] == ["a", "b"]


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


def test_csv_missing_comma(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nocomma\n")
    with pytest.raises(FormatError):
        load_hypervector_csv(path)


def test_labeled_set_validation():
    s = LabeledSet(dimension=4)
    with pytest.raises(DimensionMismatchError):
        s.add(np.zeros(5, dtype=np.uint8), "a")
    with pytest.raises(ValueError):
        s.add(np.zeros(4, dtype=np.uint8), "")
