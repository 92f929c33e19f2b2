"""Hypervector algebra as the package performs it: majority bundling
(``majority_from_counts`` and ``am.train``), the encoder's rotation and
binding (``ItemMemory``, ``encode_text_ngram``) and Hamming distance through
the packed kernel (``am.ideal_argmin``), as property tests plus edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from packing import pack, packed_memory, unpack

from hdtcam.am import ideal_argmin, train
from hdtcam.core import majority_from_counts
from hdtcam.encoders import ALPHABET, ItemMemory, encode_text_ngram
from hdtcam.errors import DimensionMismatchError


def hv_strategy(dimension):
    return st.lists(
        st.integers(0, 1), min_size=dimension, max_size=dimension
    ).map(lambda bits: np.array(bits, dtype=np.uint8))


dims = st.integers(min_value=1, max_value=64)


@st.composite
def hv_pair(draw):
    d = draw(dims)
    return draw(hv_strategy(d)), draw(hv_strategy(d))


@st.composite
def hv_triple(draw):
    d = draw(dims)
    return tuple(draw(hv_strategy(d)) for _ in range(3))


def _hamming(a, b):
    """Full Hamming distance through the packed kernel."""
    return int(ideal_argmin(pack(a), packed_memory(["b"], b))[1][0])


def _random_bits(rng, dimension):
    return rng.integers(0, 2, size=dimension, dtype=np.uint8)


# ---------------------------------------------------------------------------
# Binding and rotation in the n-gram encoder


# Letters only: a space at either end of a text is normalized away.
@given(dims, st.integers(0, 2**31), st.sampled_from(ALPHABET.strip()),
       st.sampled_from(ALPHABET.strip()))
def test_bind_self_inverse(dimension, seed, first, second):
    """A one-window bigram is item[c0] xor roll(item[c1], 1); binding it with
    the rotated second letter again recovers the first."""
    im = ItemMemory.for_alphabet(dimension, seed)
    code = unpack(encode_text_ngram([first + second], 2, im)[0], dimension)
    first_hv, second_hv = im.matrix[im.indices(first + second)]
    assert np.array_equal(code ^ np.roll(second_hv, 1), first_hv)


def _rotated(im, k):
    """The item memory rolled by k, unpacked from the rows the n-gram encoder reads."""
    return np.unpackbits(im.packed_rotation(k), axis=1, count=im.dimension)


@given(dims, st.integers(0, 2**31), st.integers(0, 200))
def test_permute_distributes_over_bind(dimension, seed, k):
    im = ItemMemory.for_alphabet(dimension, seed)
    rotated = _rotated(im, k)
    a, b = im.matrix[im.indices("ab")]
    assert np.array_equal(np.roll(a ^ b, k), rotated[0] ^ rotated[1])


@given(st.integers(0, 2**31), st.integers(0, 5))
def test_permute_preserves_popcount_and_inverts(seed, k):
    im = ItemMemory.for_alphabet(12, seed)
    p = _rotated(im, k)
    assert np.array_equal(p.sum(axis=1), im.matrix.sum(axis=1))
    assert np.array_equal(p[:, (np.arange(12) + k) % 12], im.matrix)


def test_permute_moves_bits_forward():
    im = ItemMemory(4, ["v"], seed=5)
    v = im.matrix[0]
    assert np.array_equal(_rotated(im, 1)[0], [v[3], v[0], v[1], v[2]])
    assert np.array_equal(_rotated(im, 4), im.matrix)


# ---------------------------------------------------------------------------
# Hamming distance


@given(hv_pair())
def test_hamming_brute_force_oracle(pair):
    a, b = pair
    expected = sum(1 for x, y in zip(a.tolist(), b.tolist()) if x != y)
    assert _hamming(a, b) == expected


@given(hv_pair())
def test_hamming_symmetric_and_zero_iff_equal(pair):
    a, b = pair
    assert _hamming(a, b) == _hamming(b, a)
    assert (_hamming(a, b) == 0) == np.array_equal(a, b)


@given(hv_triple())
def test_hamming_triangle_inequality(triple):
    a, b, c = triple
    assert _hamming(a, c) <= _hamming(a, b) + _hamming(b, c)


@given(hv_pair())
def test_normalized_hamming_in_unit_interval(pair):
    a, b = pair
    x = _hamming(a, b) / a.shape[-1]
    assert 0.0 <= x <= 1.0
    assert x == np.count_nonzero(a != b) / a.shape[-1]


def test_hamming_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        _hamming(np.zeros(8, dtype=np.uint8), np.zeros(9, dtype=np.uint8))


# ---------------------------------------------------------------------------
# Majority bundling: am.train


def _train(classes, tie_rng=None):
    """The unpacked class vectors ``am.train`` bundles from unpacked vectors."""
    dimension = next(iter(classes.values()))[0].shape[-1]
    memory = train({label: [pack(v) for v in vs] for label, vs in classes.items()}, dimension,
                   tie_rng)
    return unpack(memory.class_matrix, dimension)


@settings(max_examples=40)
@given(st.integers(1, 9).filter(lambda n: n % 2 == 1), st.integers(0, 1000))
def test_bundle_streaming_equals_batch(count, seed):
    """A class vector equals the majority of its vectors tallied one by one."""
    rng = np.random.default_rng(seed)
    vectors = [_random_bits(rng, 32) for _ in range(count)]
    counts = np.zeros(32, dtype=np.int64)
    for v in vectors:
        counts += v
    assert np.array_equal(_train({"a": vectors})[0], 2 * counts > count)


def test_bundle_even_count_tie_break_reproducible():
    rng = np.random.default_rng(7)
    vectors = [_random_bits(rng, 64) for _ in range(4)]
    out1 = _train({"a": vectors}, np.random.default_rng(99))
    out2 = _train({"a": vectors}, np.random.default_rng(99))
    assert np.array_equal(out1, out2)


def test_bundle_even_count_without_tie_rng_raises():
    a = np.array([0, 1], dtype=np.uint8)
    b = np.array([1, 0], dtype=np.uint8)
    with pytest.raises(ValueError, match="tie_rng"):
        _train({"x": [a, b]})


@given(st.integers(1, 7).filter(lambda n: n % 2 == 1))
def test_bundle_of_identical_vectors_is_identity(count):
    v = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    assert np.array_equal(_train({"a": [v] * count})[0], v)


def test_bundle_majority_oracle():
    vs = [
        np.array([1, 1, 0, 0], dtype=np.uint8),
        np.array([1, 0, 1, 0], dtype=np.uint8),
        np.array([1, 1, 1, 0], dtype=np.uint8),
    ]
    assert np.array_equal(_train({"a": vs})[0], [1, 1, 1, 0])


def test_add_counts_matches_individual_adds(rng):
    """Even counts: each class's tally, thresholded with ties drawn from one
    stream in class order, gives the class vectors bit for bit."""
    classes = {"a": [_random_bits(rng, 16) for _ in range(4)],
               "b": [_random_bits(rng, 16) for _ in range(2)]}
    tie = np.random.default_rng(5)
    want = []
    for vectors in classes.values():
        counts = np.zeros(16, dtype=np.int64)
        for v in vectors:
            counts += v
        want.append(majority_from_counts(counts, len(vectors), tie))
    assert np.array_equal(_train(classes, np.random.default_rng(5)), want)


def test_train_rejects_ragged_vectors():
    """Packed vectors of another width than the dimension's are refused."""
    v8, v9 = pack(np.zeros(8)), pack(np.zeros(9))
    with pytest.raises(DimensionMismatchError):
        train({"a": [v8, v9, v8]}, 8)
    with pytest.raises(DimensionMismatchError):
        train({"a": [v8], "b": [v9]}, 8)
    with pytest.raises(DimensionMismatchError, match="expected 2 for dimension 9"):
        train({"a": [v8]}, 9)


def test_majority_from_counts_threshold():
    counts = np.array([0, 1, 2, 3])
    assert np.array_equal(majority_from_counts(counts, 3), [0, 0, 1, 1])


def _majority_oracle(counts, total, tie_rng):
    """Majority by the doubled rule ``2 * counts > total``, ties where
    ``2 * counts == total``; doubled in int64, so narrow tallies cannot wrap."""
    doubled = 2 * np.asarray(counts, dtype=np.int64)
    out = (doubled > total).astype(np.uint8)
    ties = doubled == total
    n_ties = int(np.count_nonzero(ties))
    if n_ties:
        if tie_rng is None:
            raise ValueError("tie_rng required: majority has ties for an even count")
        out[ties] = tie_rng.integers(0, 2, size=n_ties, dtype=np.uint8)
    return out


@st.composite
def _tallies(draw):
    """(counts, total): a tally of ``total`` binary vectors in uint8, uint32 or
    int64, the total within the tally's range, some components at total / 2."""
    dtype = draw(st.sampled_from([np.uint8, np.uint32, np.int64]))
    total = draw(st.integers(0, min(int(np.iinfo(dtype).max), 2**40)))
    component = st.one_of(st.just(total // 2), st.integers(0, total),
                          st.sampled_from([0, total]))
    counts = draw(st.lists(component, min_size=1, max_size=70))
    return np.array(counts, dtype=dtype), total


@settings(max_examples=300)
@given(_tallies(), st.booleans(), st.integers(0, 2**16))
def test_majority_from_counts_matches_doubled_rule(tally, with_rng, seed):
    """Odd and even totals, with and without ties: the same bits as the doubled
    rule, the same tie draws (the generator's next draw agrees), and a
    ValueError for ties without a generator."""
    counts, total = tally
    got_tie = np.random.default_rng(seed) if with_rng else None
    want_tie = np.random.default_rng(seed) if with_rng else None
    try:
        want = _majority_oracle(counts, total, want_tie)
    except ValueError:
        with pytest.raises(ValueError, match="tie_rng"):
            majority_from_counts(counts, total, got_tie)
        return
    got = majority_from_counts(counts, total, got_tie)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    if with_rng:
        assert got_tie.integers(0, 2**32) == want_tie.integers(0, 2**32)


def test_random_hypervector_deterministic_and_balanced():
    """Item-memory rows, the package's random hypervectors."""
    a = ItemMemory(10000, ["v"], seed=3).matrix[0]
    b = ItemMemory(10000, ["v"], seed=3).matrix[0]
    assert np.array_equal(a, b)
    assert a.dtype == np.uint8
    assert 0.45 < a.mean() < 0.55
