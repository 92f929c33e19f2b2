"""Associative memory: class storage, the packed distance kernel, persistence.

A hypervector of D bits is held packed, as a row of ceil(D / 8) uint8 bytes:
bit j at bit j % 8 of byte j // 8 (numpy's ``bitorder="little"``, and the
byte order of a model file's hex), its padding bits zero. A matrix of them
is (rows, ceil(D / 8)) uint8, and D travels beside it.

Blocked inference is the software view of a TCAM array: the hypervector is
partitioned into contiguous blocks of N cells, each block reports its local
Hamming distance clamped at the precision P, and the per-class total is the
sum of the reported block distances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import majority_from_counts
from .errors import DimensionMismatchError, FormatError, atomic_open, load_json, setting

MODEL_FORMAT_VERSION = 1

# Bound in bytes on the largest temporary of one chunk: the block words, XOR
# words and windows of the distance kernel, a trial's draw in
# ``explorer.evaluate``, the unpacked bits of ``train``, and in ``encoders``
# the unpacked gram rows, a piece's int64 window codes (a piece is
# CHUNK_BYTES / 16 letters of the texts laid end to end; a text going on
# past it is counted alone from its last n - 1 letters), a chunk of images'
# pixels and a block of float32 positions.
CHUNK_BYTES = 500_000


@dataclass(frozen=True)
class BlockConfig:
    """Partition of a D-bit vector into TCAM blocks of size N with precision P.

    The final block may be smaller when N does not divide D; its effective
    precision is min(P, its size).
    """

    dimension: int
    block_size: int
    precision: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.block_size < 2:
            raise ValueError(f"block size must be >= 2, got {self.block_size}")
        if not 1 <= self.precision <= self.block_size:
            raise ValueError(
                f"precision must be in [1, {self.block_size}], got {self.precision}"
            )

    @property
    def num_blocks(self) -> int:
        return -(-self.dimension // self.block_size)


class AssociativeMemory:
    """Ordered store of labeled class hypervectors, at least one: a packed
    (classes, ceil(dimension / 8)) matrix."""

    def __init__(self, labels, class_matrix: np.ndarray, dimension: int):
        labels = list(labels)
        class_matrix = np.asarray(class_matrix, dtype=np.uint8)
        if not labels:
            raise ValueError("an associative memory needs at least one class")
        if len(labels) != class_matrix.shape[0]:
            raise ValueError("one label per class vector required")
        if len(set(labels)) != len(labels):
            raise ValueError("class labels must be unique")
        if class_matrix.ndim != 2 or class_matrix.shape[1] != -(-dimension // 8):
            raise DimensionMismatchError(
                f"class rows of shape {class_matrix.shape[1:]} do not pack dimension {dimension}")
        self.labels = labels
        self.class_matrix = class_matrix
        self.dimension = dimension

    def __len__(self):
        return len(self.labels)

    def class_index(self, labels) -> np.ndarray:
        """The class index of each label; -1, which no class has, for a label
        the memory does not hold."""
        index = {label: i for i, label in enumerate(self.labels)}
        return np.array([index.get(label, -1) for label in labels], dtype=np.intp)


def train(labeled_sets: dict, dimension: int,
          tie_rng: np.random.Generator | None = None) -> AssociativeMemory:
    """One-shot training: each class vector is the componentwise majority of
    its class's packed hypervectors of ``dimension`` bits, ties broken from
    ``tie_rng`` in class order. A class is counted CHUNK_BYTES of unpacked
    bits at a time (one vector at least)."""
    if not labeled_sets:
        raise ValueError("no classes to train on")
    width = -(-dimension // 8)
    step = max(1, CHUNK_BYTES // dimension)
    out = np.empty((len(labeled_sets), width), dtype=np.uint8)
    for row, (label, vectors) in zip(out, labeled_sets.items()):
        vectors = list(vectors)
        if not vectors:
            raise ValueError(f"class {label!r} has no training vectors")
        widths = {v.shape[-1] for v in vectors}
        if widths != {width}:
            raise DimensionMismatchError(f"class {label!r}: hypervectors of {sorted(widths)} "
                                         f"bytes, expected {width} for dimension {dimension}")
        counts = np.zeros(dimension, dtype=np.int64)
        for s in range(0, len(vectors), step):
            bits = np.unpackbits(np.stack(vectors[s:s + step]), axis=1, count=dimension,
                                 bitorder="little")
            counts += np.add.reduce(bits, axis=0, dtype=np.int64)
        row[:] = np.packbits(majority_from_counts(counts, len(vectors), tie_rng),
                             bitorder="little")
    return AssociativeMemory(list(labeled_sets), out, dimension)


def _check_dimension(queries: np.ndarray, classes: np.ndarray, dimension: int) -> None:
    width = -(-dimension // 8)
    if queries.shape[-1] != width or classes.shape[-1] != width:
        raise DimensionMismatchError(
            f"dimension mismatch: rows of {queries.shape[-1]} (queries) and "
            f"{classes.shape[-1]} (classes) bytes, expected {width} for dimension {dimension}"
        )


def _pack_blocks(rows: np.ndarray, dimension: int, block_size: int) -> np.ndarray:
    """(rows, ceil(D / 8)) packed rows -> (rows, blocks, words): each N-bit
    block on its own zero-padded words, its first bit the lowest.

    A block takes one uint8, uint16 or uint32 word for N <= 8, 16 or 32 and
    ceil(N / 64) uint64 words beyond. The last short block is padded with
    zeros as well, so padding never adds distance. Where blocks start on word
    edges (N a multiple of its word, or one block) the words are a view of the
    rows' bytes, zero-padded to whole words. Otherwise word w of block i is
    gathered as the unaligned 64-bit window at byte (iN + 64w) // 8, shifted
    right by (iN + 64w) % 8, with the next byte ORed in for uint64 words, and
    masked to the word's bits; rows are gathered in chunks whose windows take
    at most CHUNK_BYTES (one row at least).
    """
    num, width = rows.shape
    word_bits = next((b for b in (8, 16, 32) if block_size <= b), 64)
    dtype = np.dtype(f"<u{word_bits // 8}")
    words = -(-block_size // word_bits)
    blocks = -(-dimension // block_size)
    if blocks == 1 or block_size % word_bits == 0:
        out = np.zeros((num, blocks * words * dtype.itemsize), dtype=np.uint8)
        out[:, :width] = rows
        return out.view(dtype).reshape(num, blocks, words)
    word_size = np.minimum(word_bits, block_size - 64 * np.arange(words))
    mask = np.tile(np.array([(1 << int(b)) - 1 for b in word_size], dtype=np.uint64), blocks)
    # A word past the row's end (of a short last block) reads the zero window at its end.
    start = np.minimum((np.arange(blocks)[:, None] * block_size + 64 * np.arange(words)).ravel(),
                       8 * width)
    first, shift = start // 8, (start % 8).astype(np.uint64)
    out = np.empty((num, blocks, words), dtype=dtype)
    step = max(1, CHUNK_BYTES // (16 * blocks * words + width + 9))
    for s in range(0, num, step):
        chunk = rows[s:s + step]
        n = chunk.shape[0]
        padded = np.zeros((n, width + 9), dtype=np.uint8)
        padded[:, :width] = chunk
        windows = np.ndarray((n, width + 1), dtype="<u8", buffer=padded, strides=(width + 9, 1))
        w = windows[:, first]
        w >>= shift
        if word_bits == 64:
            # The next byte's bits above the window; shifted twice, as 64 is out of range.
            high = padded[:, first + 8].astype(np.uint64)
            high <<= np.uint64(1)
            high <<= np.uint64(63) - shift
            w |= high
        w &= mask
        out[s:s + step] = w.reshape(n, blocks, words)
    return out


def _packed_distances(queries: np.ndarray, classes: np.ndarray, dimension: int,
                      block_size: int):
    """Unclamped per-block Hamming distances of packed rows, one query chunk
    at a time.

    Yields (first query, distances of shape (chunk, classes, blocks)), each
    block's distance the popcount of the XOR of its words: uint8 for
    N < 256, int64 beyond. A chunk's XOR words take at most CHUNK_BYTES (one
    query at least), and its block words and popcounts no more.
    """
    queries = np.atleast_2d(queries)
    classes = np.atleast_2d(classes)
    _check_dimension(queries, classes, dimension)
    packed_c = _pack_blocks(classes, dimension, block_size)[None]
    total = np.uint8 if block_size < 256 else np.int64
    step = max(1, CHUNK_BYTES // max(1, packed_c.nbytes))
    for s in range(0, queries.shape[0], step):
        d = np.bitwise_count(_pack_blocks(queries[s:s + step], dimension, block_size)[:, None]
                             ^ packed_c)
        yield s, d[..., 0] if d.shape[-1] == 1 else d.sum(axis=-1, dtype=total)


def ideal_argmin(queries: np.ndarray, am: AssociativeMemory):
    """Full-Hamming nearest class per packed query row: (class indices,
    distances).

    Ties go to the earliest stored class. Whole packed rows are compared,
    zero-padded to whole words (uint64 beyond 32 bits), in chunks of the
    packed kernel.
    """
    queries = np.atleast_2d(queries)
    best = np.empty(queries.shape[0], dtype=np.intp)
    dists = np.empty(queries.shape[0], dtype=np.int64)
    for s, d in _packed_distances(queries, am.class_matrix, am.dimension, am.dimension):
        d = d[..., 0]
        best[s:s + d.shape[0]] = np.argmin(d, axis=1)
        dists[s:s + d.shape[0]] = d.min(axis=1)
    return best, dists


def distance_histogram(queries: np.ndarray, classes: np.ndarray, dimension: int,
                       block_size: int, precision: int | None = None) -> np.ndarray:
    """n[q, c, h]: the blocks of each (query, class) pair of packed rows at
    distance h.

    Distances are unclamped, h = 0..N, unless ``precision`` clamps them at
    a lower P, h = 0..P. Returns int64 of shape (queries, classes, bins).
    Per chunk of the packed kernel, each pair's blocks at distance k or more
    are counted for k = 1..P (uint16 sums, int64 from 2^16 blocks), and a
    bin is the difference of successive counts: P + 1 passes over the
    blocks, and the last count is the clamped bin P.
    """
    cfg = BlockConfig(dimension, block_size, block_size if precision is None else precision)
    queries = np.atleast_2d(queries)
    classes = np.atleast_2d(classes)
    bins = cfg.precision + 1
    total = np.uint16 if cfg.num_blocks < 2**16 else np.int64
    hist = np.empty((queries.shape[0], classes.shape[0], bins), dtype=np.int64)
    for s, d in _packed_distances(queries, classes, dimension, block_size):
        out = hist[s:s + d.shape[0]]
        above = total(cfg.num_blocks)  # blocks at distance 0 or more
        for k in range(1, bins):
            at_least = np.add.reduce(d >= k, axis=-1, dtype=total)
            out[..., k - 1] = above - at_least
            above = at_least
        out[..., -1] = above
    return hist


def _hex_to_row(hexstr: str, dimension: int) -> np.ndarray:
    nbytes = -(-dimension // 8)
    try:
        raw = bytes.fromhex(hexstr) if len(hexstr) == 2 * nbytes else b""
    except (TypeError, ValueError):
        raw = b""
    if len(raw) != nbytes:
        raise FormatError(
            f"class bits must be {2 * nbytes} hex digits for dimension {dimension}"
        )
    return np.frombuffer(raw, dtype=np.uint8)


def save_model(path, am: AssociativeMemory, seed_metadata: dict | None = None) -> None:
    """Write a versioned JSON model container; each class's packed bytes in hex."""
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "dimension": am.dimension,
        "seed_metadata": seed_metadata or {},
        "classes": [
            {"label": label, "bits": row.tobytes().hex()}
            for label, row in zip(am.labels, am.class_matrix)
        ],
    }
    with atomic_open(path) as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_model(path):
    """Load a model container; returns (AssociativeMemory, seed_metadata).
    Padding bits set in a class's last hex byte are cleared."""
    doc = load_json(path)
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported model version {version!r}")
    try:
        dimension = setting(doc, "dimension", int)
        if dimension is None:
            raise KeyError("dimension")
        if dimension < 1 or not doc["classes"]:
            raise FormatError("a model needs dimension >= 1 and at least one class")
        labels = [entry["label"] for entry in doc["classes"]]
        for i, label in enumerate(labels):
            if not (isinstance(label, str) and label):
                raise FormatError(f"label {label!r} is not a non-empty string", f"classes[{i}]")
        rows = np.stack([_hex_to_row(entry["bits"], dimension) for entry in doc["classes"]])
        if dimension % 8:
            rows[:, -1] &= (1 << dimension % 8) - 1  # padding bits are zero
        memory = AssociativeMemory(labels, rows, dimension)
    except KeyError as exc:
        raise FormatError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from None
    meta = doc.get("seed_metadata", {})
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: seed_metadata must be a JSON object")
    return memory, meta
