"""Associative memory: block partitions, distance-kernel oracles, training,
persistence."""

import json

import distance_oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from packing import pack, packed_memory, unpack

from hdtcam import am as am_module
from hdtcam.am import (
    AssociativeMemory,
    BlockConfig,
    distance_histogram,
    ideal_argmin,
    load_model,
    save_model,
    train,
)
from hdtcam.errors import DimensionMismatchError, FormatError


def _random_bits(rng, dimension):
    return rng.integers(0, 2, size=dimension, dtype=np.uint8)


def _random_am(rng, classes=4, dimension=64):
    rows = np.stack([_random_bits(rng, dimension) for _ in range(classes)])
    return packed_memory([f"c{i}" for i in range(classes)], rows)


def _totals(queries, classes, cfg):
    """Per (query, class) sum of the block distances clamped at P, of
    unpacked queries and packed classes."""
    hist = distance_histogram(pack(queries), classes, cfg.dimension, cfg.block_size,
                              cfg.precision)
    return hist @ np.arange(cfg.precision + 1)


# ---------------------------------------------------------------------------
# BlockConfig


def test_block_config_non_dividing_partition():
    cfg = BlockConfig(dimension=10, block_size=3, precision=2)
    assert cfg.num_blocks == 4
    # three full blocks at distance 3 clamp at P = 2; the 1-bit last block
    # reads 1, its cap being min(P, size)
    hist = distance_histogram(pack(np.zeros(10)), pack(np.ones(10)), 10, 3, 2)
    assert hist.tolist() == [[[0, 1, 3]]]


def test_block_config_validation():
    with pytest.raises(ValueError):
        BlockConfig(dimension=0, block_size=4, precision=2)
    with pytest.raises(ValueError):
        BlockConfig(dimension=8, block_size=1, precision=1)
    with pytest.raises(ValueError):
        BlockConfig(dimension=8, block_size=4, precision=5)
    with pytest.raises(ValueError):
        BlockConfig(dimension=8, block_size=4, precision=0)


@settings(max_examples=100)
@given(st.integers(2, 25), st.integers(2, 400), st.integers(0, 2**31))
def test_partition_identity_property(block_size, dimension, seed):
    """With P=N the clamped block sum equals the full Hamming distance."""
    rng = np.random.default_rng(seed)
    a = _random_bits(rng, dimension)
    b = _random_bits(rng, dimension)
    hist = distance_histogram(pack(a), pack(b), dimension, block_size)
    assert (hist @ np.arange(block_size + 1))[0, 0] == np.count_nonzero(a != b)


def test_blocked_distances_clamped_at_caps(rng):
    a = np.zeros(12, dtype=np.uint8)
    b = np.ones(12, dtype=np.uint8)
    assert distance_histogram(pack(a), pack(b), 12, 4, 2)[0, 0].tolist() == [0, 0, 3]


def test_blocked_totals_monotone_in_precision(rng):
    """Lower precision clamps more, so totals can only shrink."""
    am = _random_am(rng, classes=3, dimension=100)
    q = _random_bits(rng, 100)
    prev = None
    for p in range(1, 8):
        total = _totals(q, am.class_matrix, BlockConfig(100, 7, p))[0].sum()
        if prev is not None:
            assert total >= prev
        prev = total


def test_blocked_matrix_agrees_with_single(rng, monkeypatch):
    am = _random_am(rng, classes=5, dimension=33)
    queries = pack(np.stack([_random_bits(rng, 33) for _ in range(7)]))
    mat = distance_histogram(queries, am.class_matrix, 33, 4, 3)
    assert mat.shape == (7, 5, 4) and mat.dtype == np.int64
    for i in range(7):
        for c in range(5):
            single = distance_histogram(queries[i], am.class_matrix[c], 33, 4, 3)[0, 0]
            assert np.array_equal(mat[i, c], single)
    monkeypatch.setattr(am_module, "CHUNK_BYTES", 2 * 5 * 9)  # two queries of uint8 words a chunk
    assert np.array_equal(distance_histogram(queries, am.class_matrix, 33, 4, 3), mat)


def _word_bytes(block_size):
    """Bytes of one packed word of an N-bit block."""
    return next((b for b in (8, 16, 32) if block_size <= b), 64) // 8


# Word edges of the packed layout: uint8/uint16, uint16/uint32, uint32/uint64
# and one/two uint64 words per block, each with a short last block.
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 300), st.integers(2, 70), st.integers(1, 9), st.integers(1, 5),
       st.integers(1, 64), st.integers(0, 2**31))
@example(dimension=300, block_size=8, queries=5, classes=3, chunk=7, seed=1)
@example(dimension=301, block_size=9, queries=5, classes=3, chunk=13, seed=2)
@example(dimension=300, block_size=16, queries=4, classes=2, chunk=5, seed=3)
@example(dimension=299, block_size=17, queries=4, classes=2, chunk=11, seed=4)
@example(dimension=300, block_size=32, queries=6, classes=4, chunk=9, seed=5)
@example(dimension=298, block_size=33, queries=6, classes=4, chunk=3, seed=6)
@example(dimension=200, block_size=64, queries=3, classes=5, chunk=17, seed=7)
@example(dimension=200, block_size=65, queries=3, classes=5, chunk=4, seed=8)
@example(dimension=1, block_size=70, queries=2, classes=2, chunk=1, seed=9)
# int64 block distances (N >= 256), and int64 counts of 2^16 blocks and more.
@example(dimension=600, block_size=257, queries=3, classes=2, chunk=40, seed=10)
@example(dimension=131_072, block_size=2, queries=2, classes=2, chunk=64, seed=11)
def test_packed_kernels_equal_unpacked_oracle(dimension, block_size, queries, classes,
                                              chunk, seed):
    """Packed histograms and ideal argmin equal the int16 difference-tensor
    oracle at every precision, whatever the chunking and the count widths."""
    rng = np.random.default_rng(seed)
    qs = rng.integers(0, 2, (queries, dimension), dtype=np.uint8)
    cs = rng.integers(0, 2, (classes, dimension), dtype=np.uint8)
    cs[-1] = qs[0]  # an exact match and a tie-prone row
    memory = packed_memory([f"c{i}" for i in range(classes)], cs)
    with pytest.MonkeyPatch.context() as mp:
        # ``chunk`` (query, class, word) elements of the XOR words per chunk
        mp.setattr(am_module, "CHUNK_BYTES", chunk * _word_bytes(block_size))
        hist = distance_histogram(pack(qs), memory.class_matrix, dimension, block_size)
        assert hist.dtype == np.int64 and hist.shape == (queries, classes, block_size + 1)
        assert np.array_equal(hist, distance_oracle.distance_histogram(qs, cs, dimension,
                                                                       block_size))
        for p in range(1, block_size + 1):
            assert np.array_equal(
                distance_histogram(pack(qs), memory.class_matrix, dimension, block_size, p),
                distance_oracle.distance_histogram(qs, cs, dimension, block_size, p)), p
        mp.setattr(am_module, "CHUNK_BYTES", chunk * _word_bytes(dimension))
        best, dists = ideal_argmin(pack(qs), memory)
    want_best, want_dists = distance_oracle.ideal_argmin(qs, cs)
    assert np.array_equal(best, want_best) and np.array_equal(dists, want_dists)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 400).filter(lambda d: d % 8), st.data(), st.integers(1, 4),
       st.integers(1, 2000), st.integers(0, 2**31))
@example(dimension=9999, data=None, rows=3, chunk=700, seed=1)
@example(dimension=1001, data=None, rows=3, chunk=50, seed=2)
def test_window_gather_equals_lanes_oracle(dimension, data, rows, chunk, seed):
    """The block words gathered from packed rows equal the words of the
    one-byte-per-bit lanes, for D not a multiple of 8 and N from 2 to D,
    however the rows are chunked."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (rows, dimension), dtype=np.uint8)
    sizes = ([data.draw(st.integers(2, dimension), label="block_size")] if data else
             [2, 7, 8, 15, 16, 20, 25, 33, 64, 100, dimension])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(am_module, "CHUNK_BYTES", chunk)
        for block_size in sizes:
            got = am_module._pack_blocks(pack(bits), dimension, block_size)
            want = distance_oracle.lanes_pack_blocks(bits, block_size)
            assert got.dtype == want.dtype and np.array_equal(got, want), block_size


@pytest.mark.parametrize("block_size", [7, 15, None], ids=["N7", "N15", "ideal"])
def test_kernel_working_set_is_bounded_in_bytes(block_size, traced_peak):
    """Beyond its output, a kernel call on packed rows holds at most four
    CHUNK_BYTES: a chunk's block words and windows, or its XOR words,
    popcounts and comparisons."""
    rng = np.random.default_rng(3)
    queries = pack(rng.integers(0, 2, (800, 10_000), dtype=np.uint8))
    memory = packed_memory(list("abcdefgh"), rng.integers(0, 2, (8, 10_000), dtype=np.uint8))
    if block_size is None:
        out, peak = traced_peak(ideal_argmin, queries, memory)
    else:
        out, peak = traced_peak(distance_histogram, queries, memory.class_matrix, 10_000,
                                block_size, 7)
        out = [out]
    assert peak <= sum(o.nbytes for o in out) + 4 * am_module.CHUNK_BYTES


def test_blocked_distances_dimension_mismatch(rng):
    """Rows that do not pack the dimension are refused, queries or classes."""
    am = _random_am(rng, classes=2, dimension=16)
    with pytest.raises(DimensionMismatchError):
        distance_histogram(pack(np.zeros(24)), am.class_matrix, 16, 4, 4)
    with pytest.raises(DimensionMismatchError):
        distance_histogram(pack(np.zeros(24)), am.class_matrix, 24, 4, 4)


# ---------------------------------------------------------------------------
# Inference


def test_infer_ideal_matches_brute_force(rng):
    am = _random_am(rng, classes=6, dimension=80)
    for _ in range(20):
        q = _random_bits(rng, 80)
        dists = [np.count_nonzero(q != unpack(am.class_matrix[c], 80)) for c in range(6)]
        best, dist = ideal_argmin(pack(q), am)
        assert dist[0] == min(dists)
        assert best[0] == int(np.argmin(dists))


def test_ideal_argmin_matches_per_query(rng, monkeypatch):
    am = _random_am(rng, classes=4, dimension=140)
    qs = pack(np.stack([_random_bits(rng, 140) for _ in range(60)]))
    want = [tuple(int(x[0]) for x in ideal_argmin(q, am)) for q in qs]
    # uneven chunks of 7 queries, each of 3 uint64 words a class
    monkeypatch.setattr(am_module, "CHUNK_BYTES", 7 * 4 * 3 * 8)
    best, dists = ideal_argmin(qs, am)
    assert [(int(b), int(d)) for b, d in zip(best, dists)] == want


def test_infer_ideal_tie_break_first_stored():
    v = np.array([0, 0, 0, 0], dtype=np.uint8)
    am = packed_memory(["first", "second"], np.stack([v, v]))
    best, dist = ideal_argmin(pack([1, 0, 0, 0]), am)
    assert am.labels[best[0]] == "first" and dist[0] == 1


def test_infer_blocked_full_precision_equals_ideal(rng):
    am = _random_am(rng, classes=4, dimension=50)
    cfg = BlockConfig(50, 7, 7)
    for _ in range(20):
        q = _random_bits(rng, 50)
        blocked = np.argmin(_totals(q, am.class_matrix, cfg), axis=1)
        assert np.array_equal(blocked, ideal_argmin(pack(q), am)[0])


def test_infer_dimension_mismatch(rng):
    am = _random_am(rng, dimension=16)
    with pytest.raises(DimensionMismatchError):
        ideal_argmin(pack(np.zeros(8)), am)


def test_infer_empty_memory():
    with pytest.raises(ValueError, match="at least one class"):
        AssociativeMemory([], np.zeros((0, 1), dtype=np.uint8), 8)


def test_memory_rows_must_pack_the_dimension():
    with pytest.raises(DimensionMismatchError, match="do not pack dimension 17"):
        AssociativeMemory(["a"], np.zeros((1, 2), dtype=np.uint8), 17)


# ---------------------------------------------------------------------------
# Training


def test_train_bundles_each_class(rng):
    vs = {"a": [_random_bits(rng, 32) for _ in range(3)],
          "b": [_random_bits(rng, 32) for _ in range(5)]}
    am = train({label: pack(vectors) for label, vectors in vs.items()}, 32)
    assert am.labels == ["a", "b"] and am.dimension == 32
    for row, vectors in zip(am.class_matrix, vs.values()):
        assert np.array_equal(unpack(row, 32), 2 * np.sum(vectors, axis=0) > len(vectors))


def test_train_counts_in_chunks(rng, monkeypatch):
    """Counting a class CHUNK_BYTES of unpacked bits at a time, down to one
    vector, gives the same majority and the same tie draws."""
    vs = {"a": pack([_random_bits(rng, 30) for _ in range(6)]),
          "b": pack([_random_bits(rng, 30) for _ in range(5)])}
    tie = np.random.default_rng(4)
    want = train(vs, 30, tie).class_matrix
    after = tie.integers(0, 2**32)
    for chunk in (1, 60, 100):
        monkeypatch.setattr(am_module, "CHUNK_BYTES", chunk)
        tie = np.random.default_rng(4)
        assert np.array_equal(train(vs, 30, tie).class_matrix, want)
        assert tie.integers(0, 2**32) == after


def test_train_rejects_empty():
    with pytest.raises(ValueError):
        train({}, 8)
    with pytest.raises(ValueError):
        train({"a": []}, 8)


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        AssociativeMemory(["x", "x"], np.zeros((2, 1), dtype=np.uint8), 4)


# ---------------------------------------------------------------------------
# Persistence


def test_model_round_trip(tmp_path, rng):
    am = _random_am(rng, classes=5, dimension=777)
    path = tmp_path / "model.json"
    save_model(path, am, seed_metadata={"seed": 3})
    got, meta = load_model(path)
    assert got.labels == am.labels
    assert got.dimension == 777 and np.array_equal(got.class_matrix, am.class_matrix)
    assert meta == {"seed": 3}


def test_model_save_is_deterministic(tmp_path, rng):
    am = _random_am(rng)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(p1, am)
    save_model(p2, am)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "dimension": 4, "classes": []}')
    with pytest.raises(FormatError, match="version"):
        load_model(path)


@pytest.mark.parametrize("doc, match", [
    ({"dimension": 16}, "missing key 'classes'"),
    ({"classes": [{"label": "a", "bits": "ffff"}]}, "missing key 'dimension'"),
    ({"dimension": 16, "classes": [{"bits": "ffff"}]}, "missing key 'label'"),
    ({"dimension": 16, "classes": [{"label": "a"}]}, "missing key 'bits'"),
    ({"dimension": 16, "classes": [{"label": "a", "bits": "ff"}]}, "4 hex digits"),
    ({"dimension": 16, "classes": [{"label": "a", "bits": "ffffff"}]}, "4 hex digits"),
    ({"dimension": 12, "classes": [{"label": "a", "bits": "zzzz"}]}, "4 hex digits"),
    ({"dimension": 16, "classes": [{"label": "a", "bits": "ff f"}]}, "4 hex digits"),
    ({"dimension": 16, "classes": [{"label": "a", "bits": 255}]}, "4 hex digits"),
    ({"dimension": 16, "classes": []}, "at least one class"),
])
def test_model_load_rejects_malformed(tmp_path, doc, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, **doc}))
    with pytest.raises(FormatError, match=match):
        load_model(path)
