"""Text n-gram encoding: ``normalize_text`` and the batched n-gram encoder,
which streams a text longer than one piece. ``encoders`` re-exports both."""

from __future__ import annotations

import re
import string

import numpy as np

from . import am as am_mod
from .core import majority_from_counts
from .errors import DegenerateInputError

# normalize_text's ASCII map: upper to lower case, whitespace to a space; and the ASCII
# characters it drops, anything outside a-z and whitespace.
_ASCII_WHITESPACE = bytes(c for c in range(128) if chr(c).isspace())
_LOWER_CASE = bytes.maketrans(string.ascii_uppercase.encode() + _ASCII_WHITESPACE,
                              string.ascii_lowercase.encode() + b" " * len(_ASCII_WHITESPACE))
_DROPPED = bytes(c for c in range(128) if not (chr(c).isalpha() or chr(c).isspace()))

# Largest window code; it marks the windows that cross from one text into the next.
_CODE_MAX = np.iinfo(np.int64).max


def normalize_text(text: str) -> str:
    """Lowercase, drop anything outside a-z and space, collapse whitespace runs."""
    return "".join(_normalized_parts(text, max(1, len(text))))


def _normalized_parts(text: str, size: int):
    """``normalize_text(text)`` in consecutive parts, one from each ``size``
    characters of ``text``: a space between words is owed across a cut."""
    started = owed = False
    for start in range(0, len(text), size):
        part = text[start:start + size]
        if not part.isascii():
            part = re.sub(r"\s", " ", part.lower())
        kept = part.encode("ascii", "ignore").translate(_LOWER_CASE, _DROPPED)
        words = kept.split()
        if words:
            yield (" " if started and (owed or kept[0] == 32) else "") + b" ".join(words).decode()
            started, owed = True, kept[-1] == 32
        else:
            owed = owed or bool(kept)


def encode_text_ngram(texts, n: int, im, tie_rng: np.random.Generator | None = None,
                      *, names=None) -> np.ndarray:
    """Encode each text, after ``normalize_text``, as the majority bundle of its
    length-n sliding windows into a packed (len(texts), ceil(dimension / 8))
    uint8 matrix (see ``am``). A window is the XOR of its j-th letter's
    vector rotated by j (j = 0..n-1); each distinct gram of a text is
    composed once, in packed bits, and counted with its multiplicity. Ties
    are drawn from ``tie_rng`` text by text, in order; ``names`` label texts
    in errors; ``im`` is the letters' ``encoders.ItemMemory``.

    ``am.CHUNK_BYTES``, read at each call, sets a piece: CHUNK_BYTES / 16
    windows, whose int64 codes are sorted at once, and bounds the unpacked
    gram rows of a chunk. Short texts are normalised and counted a piece of
    texts at a time. A longer text is streamed a piece at a time, and each
    piece's distinct (gram, count) pairs are merged into the text's sorted
    table before any gram is composed, so its working set follows the piece
    and its distinct grams, not its length; where codes must be re-ranked
    (len(im) ** n overflows int64) each piece is composed on its own and the
    counts are added."""
    if n < 1:
        raise ValueError(f"n-gram size must be >= 1, got {n}")
    rotations = [im.packed_rotation(j) for j in range(n)]
    out = np.empty((len(texts), -(-im.dimension // 8)), dtype=np.uint8)
    piece = max(1, am_mod.CHUNK_BYTES // 16)

    def usable(i, length):
        if length < n:
            raise DegenerateInputError(f"{names[i] if names else f'text {i}'} has only "
                                       f"{length} usable characters, need at least {n}")

    def bundle(batch):
        """Write the rows of a piece of short (text number, normalised text) pairs."""
        windows = [len(text) - n + 1 for _, text in batch]
        counts = np.zeros(im.dimension, dtype=np.min_scalar_type(max(windows)))
        letters = im.indices("".join(text for _, text in batch))
        for t in _add_grams(*_distinct_grams(letters, [len(text) for _, text in batch], n,
                                             len(im)), rotations, counts):
            out[batch[t][0]] = np.packbits(majority_from_counts(counts, windows[t], tie_rng),
                                           bitorder="little")
            counts[:] = 0

    batch, size = [], 0
    for i, text in enumerate(texts):
        if len(text) - n < piece:
            text = normalize_text(text)
            usable(i, len(text))
            if size + len(text) - n + 1 > piece:
                bundle(batch)
                batch, size = [], 0
            batch.append((i, text))
            size += len(text) - n + 1
            continue
        if batch:
            bundle(batch)
            batch, size = [], 0
        counts, length = _stream_text(text, n, im, rotations, piece)
        usable(i, length)
        out[i] = np.packbits(majority_from_counts(counts, length - n + 1, tie_rng),
                             bitorder="little")
    if batch:
        bundle(batch)
    return out


def _distinct_grams(letters, lengths, n, radix):
    """The distinct (text, gram) windows of ``letters``, texts of the given
    ``lengths`` (each at least n) laid end to end, with their counts: (rows,
    ``letter(rows, j)`` giving letter j of each row's gram, each row's text
    number, each row's count). A window's code is its text number, then its
    letters, in base ``radix``, grouped by one in-place sort, and a row is its
    code; where the digits overflow int64 the codes are re-ranked as they are
    built, and a row is the first window of its code."""
    ends = np.cumsum(lengths)
    code = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)[: len(letters) - n + 1]
    bound, digits = len(lengths), len(lengths) * radix**n <= _CODE_MAX
    for j in range(n):
        if bound * radix > _CODE_MAX:
            _, code = np.unique(code, return_inverse=True)
            bound = int(code.max()) + 1
        code *= radix
        code += letters[j : j + len(code)]
        bound *= radix
    code[(ends[:-1, None] - np.arange(1, n)).ravel()] = _CODE_MAX
    inside = len(code) - (len(lengths) - 1) * (n - 1)
    if digits:
        code.sort()
        new = np.empty(inside, dtype=bool)
        new[:1] = True
        np.not_equal(code[1:inside], code[: inside - 1], out=new[1:])
        first = np.flatnonzero(new)
        del new
        rows = code[first]
        return rows, _digit(radix, n), rows // radix**n, np.diff(first, append=inside)
    _, rows, weights = np.unique(code, return_index=True, return_counts=True)
    distinct = len(rows) - (inside < len(code))
    rows, weights = rows[:distinct], weights[:distinct]
    return (rows, lambda rows, j: letters[rows + j], np.searchsorted(ends, rows, side="right"),
            weights)


def _digit(radix, n):
    """``letter(codes, j)``: letter j of each n-letter code in base ``radix``."""
    return lambda codes, j: codes // radix ** (n - 1 - j) % radix


def _stream_text(text, n, im, rotations, piece) -> tuple:
    """(counts, usable characters) of one long text, normalised and counted a
    piece of at most ``piece`` windows at a time, each piece going on from
    the last n - 1 letters of the one before. Each piece's distinct grams are
    merged into the text's table, composed a piece of rows at a time once
    the text is read; where codes must be re-ranked each piece is composed
    on its own."""
    merge = len(im) ** n <= _CODE_MAX
    counts = np.zeros(im.dimension, dtype=np.min_scalar_type(len(text)))
    table = weights = np.empty(0, dtype=np.int64)
    carry, length = np.empty(0, dtype=np.uint8), 0
    for part in _normalized_parts(text, piece):
        letters = np.concatenate((carry, im.indices(part)))
        carry, length = letters[max(0, len(letters) - n + 1) :], length + len(part)
        if len(letters) < n:
            continue
        rows, letter, _, count = _distinct_grams(letters, [len(letters)], n, len(im))
        if not merge:
            for _ in _add_grams(rows, letter, np.zeros(len(rows), np.uint8), count, rotations,
                                counts):
                pass
            continue
        at = np.searchsorted(table, rows)
        old = table.take(at, mode="clip") == rows if len(table) else np.zeros(len(rows), bool)
        weights[at[old]] += count[old]
        table = np.insert(table, at[~old], rows[~old])
        weights = np.insert(weights, at[~old], count[~old])
    for s in range(0, len(table), piece):
        rows = table[s : s + piece]
        for _ in _add_grams(rows, _digit(len(im), n), np.zeros(len(rows), np.uint8),
                            weights[s : s + piece], rotations, counts):
            pass
    return counts, length


def _add_grams(rows, letter, texts, weights, rotations, counts):
    """Add each row's gram, composed by XOR of packed rotated rows and
    unpacked, times its count into ``counts``, texts in order, and yield
    each text's number once its grams are in (``counts`` then holds its
    tally; the caller resets it). A generator, so that the arrays it is
    given are its own once it starts, and dropped as it sorts them by
    (text, count). Chunks of at most 255 rows are unpacked whole, so the
    uint8 sums of each run's slice cannot overflow; CHUNK_BYTES bounds a
    chunk. A run of count 1 is added without a multiply."""
    order = np.lexsort((weights, texts))
    rows, texts, weights = rows[order], texts[order], weights[order].astype(counts.dtype)
    del order
    chunk = max(1, min(255, am_mod.CHUNK_BYTES // counts.size))
    cut = np.arange(len(rows)) % chunk == 0
    cut[1:] |= (texts[1:] != texts[:-1]) | (weights[1:] != weights[:-1])
    edges = np.flatnonzero(cut)
    for s, e in zip(edges, [*edges[1:], len(rows)]):
        if s % chunk == 0:
            grams = rotations[0][letter(rows[s : s + chunk], 0)]
            for j in range(1, len(rotations)):
                grams ^= rotations[j][letter(rows[s : s + chunk], j)]
            bits = np.unpackbits(grams, axis=1, count=counts.size)
        run = np.add.reduce(bits[s % chunk : s % chunk + e - s], axis=0, dtype=np.uint8)
        counts += run if weights[s] == 1 else weights[s] * run
        if e == len(rows) or texts[e] != texts[s]:
            yield texts[s]
