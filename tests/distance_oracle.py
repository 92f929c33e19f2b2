"""Unpacked distance kernels, the reference for the packed ones.

``am`` gathers every block of a packed row onto its own zero-padded machine
words and reads a block's distance as the popcount of an XOR; ``explorer``
counts per-pair distance histograms once per (D, N) and reads every
precision from them. This module keeps the element-wise code those
shortcuts must reproduce exactly, on one byte per bit: the block words laid
out lane by lane, an int16 Q x C x D difference tensor summed per block with
``np.add.reduceat``, a full-row ``!=`` count, and the clamp-and-sum loop of
the precision report.
"""

import numpy as np

from hdtcam.am import BlockConfig


def lanes_pack_blocks(bits, block_size):
    """(rows, D) bits -> (rows, blocks, words): each N-bit block on its own
    zero-padded words, built from one byte per bit. A block takes one uint8,
    uint16 or uint32 word for N <= 8, 16 or 32 and ceil(N / 64) uint64 words
    beyond; the last short block is zero-padded as well."""
    rows, dim = bits.shape
    word_bits = next((b for b in (8, 16, 32) if block_size <= b), 64)
    dtype = np.dtype(f"<u{word_bits // 8}")
    words = -(-block_size // word_bits)
    blocks = -(-dim // block_size)
    full = dim // block_size
    cut = full * block_size
    lanes = np.zeros((rows, blocks, words * word_bits), dtype=np.uint8)
    lanes[:, :full, :block_size] = bits[:, :cut].reshape(rows, full, block_size)
    lanes[:, full:, :dim - cut] = bits[:, None, cut:]
    packed = np.packbits(lanes.reshape(rows, -1), axis=-1, bitorder="little")
    return packed.view(dtype).reshape(rows, blocks, words)


def block_layout(cfg):
    """Start of each block and its effective precision min(P, block size)."""
    starts = np.arange(0, cfg.dimension, cfg.block_size)
    sizes = np.diff(starts, append=cfg.dimension)
    return starts, np.minimum(cfg.precision, sizes).astype(np.int16)


def block_distances(queries, classes, cfg):
    """Per-block distances clamped at min(P, block size), int16 (Q, C, blocks)."""
    queries = np.atleast_2d(queries)
    classes = np.atleast_2d(classes)
    diff = (queries[:, None, :] != classes[None, :, :]).astype(np.int16)
    starts, caps = block_layout(cfg)
    return np.minimum(np.add.reduceat(diff, starts, axis=2), caps)


def distance_histogram(queries, classes, dimension, block_size, precision=None):
    """n[q, c, h], h = 0..P, counted from the clamped distances."""
    precision = block_size if precision is None else precision
    true = block_distances(queries, classes, BlockConfig(dimension, block_size, precision))
    hist = np.empty(true.shape[:2] + (precision + 1,), dtype=np.int64)
    for h in range(precision + 1):
        hist[..., h] = np.count_nonzero(true == h, axis=2)
    return hist


def ideal_argmin(queries, classes):
    """Nearest class (earliest on ties) and full Hamming distance per query."""
    d = (np.atleast_2d(queries)[:, None, :] != classes[None, :, :]).sum(axis=2)
    return np.argmin(d, axis=1), d.min(axis=1)


def precision_rows(classes, queries, label_idx, baseline, block_sizes, precisions):
    """(N, P, accuracy, loss) rows from clamping unclamped block distances at
    each P and summing them."""
    rows = []
    for n in block_sizes:
        unclamped = block_distances(queries, classes, BlockConfig(classes.shape[1], n, n))
        for p in precisions:
            if p > n:
                continue
            _, caps = block_layout(BlockConfig(classes.shape[1], n, p))
            totals = np.minimum(unclamped, caps).sum(axis=2, dtype=np.int64)
            acc = float(np.mean(np.argmin(totals, axis=1) == label_idx))
            rows.append((int(n), int(p), acc, float(baseline - acc)))
    return rows
