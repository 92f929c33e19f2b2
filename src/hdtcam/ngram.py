"""Text n-gram encoding: ``normalize_text`` and the n-gram encoder, which
reads its texts laid end to end a piece at a time. ``encoders`` re-exports
both."""

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

# Largest n-gram size: 27 ** 13 (a-z and space) is the largest power of 27 in int64.
MAX_NGRAM = 13


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
    in errors; ``im`` is the letters' ``encoders.ItemMemory`` (a-z and space),
    and n is refused outside [1, MAX_NGRAM].

    The texts are normalised by parts and laid end to end in pieces of
    ``am.CHUNK_BYTES`` / 16 letters (read at each call), whose int64 window
    codes are sorted at once; a piece numbers at most as many texts as its
    codes hold. The texts wholly inside a piece are counted together. At
    most one text goes on past a piece: it is counted alone in each piece it
    reaches, going on from its last n - 1 letters, and its distinct (gram,
    count) rows are merged into its sorted table, composed a piece of rows
    at a time once it ends, so its working set follows the piece and its
    distinct grams, not its length."""
    if not 1 <= n <= MAX_NGRAM:
        raise ValueError(f"n-gram size must be in [1, {MAX_NGRAM}], got {n}")
    rotations = [im.packed_rotation(j) for j in range(n)]
    out = np.empty((len(texts), -(-im.dimension // 8)), dtype=np.uint8)
    piece = max(1, am_mod.CHUNK_BYTES // 16)
    most = _CODE_MAX // len(im) ** n  # texts whose window codes a piece can number

    def write(i, counts, windows):
        out[i] = np.packbits(majority_from_counts(counts, windows, tie_rng), bitorder="little")

    def bundle(batch):
        """Write the rows of a piece's (text number, normalised text) pairs, if
        any, and empty it."""
        if not batch:
            return
        windows = [len(text) - n + 1 for _, text in batch]
        counts = np.zeros(im.dimension, dtype=np.min_scalar_type(max(windows)))
        letters = im.indices("".join(text for _, text in batch))
        for t in _add_grams(*_distinct_grams(letters, [len(text) for _, text in batch], n,
                                             len(im)), rotations, counts):
            write(batch[t][0], counts, windows[t])
            counts[:] = 0
        batch.clear()

    batch, room = [], piece
    for i, text in enumerate(texts):
        if len(batch) == most:  # the piece numbers as many texts as its codes can
            room = 0
        held, seg, length = None, "", 0
        for part in _normalized_parts(text, piece):
            length += len(part)
            while len(part) > room:  # text i goes on past the piece
                seg, part = seg + part[:room], part[room:]
                bundle(batch)
                if len(seg) >= n:
                    held = _merge(held, im.indices(seg), n, len(im))
                seg, room = seg[max(0, len(seg) - n + 1) :], piece
            seg, room = seg + part, room - len(part)
        if length < n:
            raise DegenerateInputError(f"{names[i] if names else f'text {i}'} has only "
                                       f"{length} usable characters, need at least {n}")
        if held is None:
            batch.append((i, seg))
            continue
        held = _merge(held, im.indices(seg), n, len(im))
        counts = np.zeros(im.dimension, dtype=np.min_scalar_type(length - n + 1))
        for s in range(0, len(held[0]), piece):
            for _ in _add_grams(held[0][s : s + piece],
                                np.zeros(len(held[0][s : s + piece]), np.uint8),
                                held[1][s : s + piece], rotations, counts):
                pass
        write(i, counts, length - n + 1)
    bundle(batch)
    return out


def _distinct_grams(letters, lengths, n, radix):
    """The distinct (text, gram) windows of ``letters``, texts of the given
    ``lengths`` (each at least n) laid end to end: (codes, text numbers,
    counts), in code order. A window's code is its text number, then its
    letters, in base ``radix``, grouped by one in-place sort;
    len(lengths) * radix ** n must fit int64."""
    ends = np.cumsum(lengths)
    code = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)[: len(letters) - n + 1]
    for j in range(n):
        code *= radix
        code += letters[j : j + len(code)]
    code[(ends[:-1, None] - np.arange(1, n)).ravel()] = _CODE_MAX
    code.sort()
    inside = len(code) - (len(lengths) - 1) * (n - 1)
    new = np.empty(inside, dtype=bool)
    new[:1] = True
    np.not_equal(code[1:inside], code[: inside - 1], out=new[1:])
    first = np.flatnonzero(new)
    del new
    rows = code[first]
    return rows, rows // radix**n, np.diff(first, append=inside)


def _merge(held, letters, n, radix) -> list:
    """One text's sorted [codes, counts] table: ``held`` (None before its
    first piece) with the distinct grams of ``letters`` counted in. Each
    array is replaced in turn, so the table is held twice at most one array
    at a time."""
    rows, texts, count = _distinct_grams(letters, [len(letters)], n, radix)
    del texts  # one text: all 0
    if held is None:
        return [rows, count]
    at = np.searchsorted(held[0], rows)
    old = held[0].take(at, mode="clip") == rows
    held[1][at[old]] += count[old]
    new = ~old
    held[0] = np.insert(held[0], at[new], rows[new])
    held[1] = np.insert(held[1], at[new], count[new])
    return held


def _add_grams(rows, texts, weights, rotations, counts):
    """Add each row's gram, composed by XOR of packed rotated rows and
    unpacked, times its count into ``counts``, texts in order, and yield
    each text's number once its grams are in (``counts`` then holds its
    tally; the caller resets it). A row is a code of ``_distinct_grams``,
    whose letters are its last n digits in base len(im). A generator, so
    that the arrays it is given are its own once it starts, and dropped as
    it sorts them by (text, count). The text numbers are built by
    ``_distinct_grams`` while the piece's codes are held: built here
    instead, they raised the resident peak of repeated ``train`` and
    ``eval`` runs by 0.4 MB (the heap's layout). Chunks of at most 255
    rows are unpacked whole, so the uint8 sums of each run's slice cannot
    overflow; CHUNK_BYTES bounds a chunk. A run of count 1 is added without
    a multiply."""
    radix, n = len(rotations[0]), len(rotations)
    order = np.lexsort((weights, texts))
    rows, texts, weights = rows[order], texts[order], weights[order].astype(counts.dtype)
    del order
    chunk = max(1, min(255, am_mod.CHUNK_BYTES // counts.size))
    cut = np.arange(len(rows)) % chunk == 0
    cut[1:] |= (texts[1:] != texts[:-1]) | (weights[1:] != weights[:-1])
    edges = np.flatnonzero(cut)
    for s, e in zip(edges, [*edges[1:], len(rows)]):
        if s % chunk == 0:
            codes = rows[s : s + chunk]
            grams = rotations[0][codes // radix ** (n - 1) % radix]
            for j in range(1, n):
                grams ^= rotations[j][codes // radix ** (n - 1 - j) % radix]
            bits = np.unpackbits(grams, axis=1, count=counts.size)
        run = np.add.reduce(bits[s % chunk : s % chunk + e - s], axis=0, dtype=np.uint8)
        counts += run if weights[s] == 1 else weights[s] * run
        if e == len(rows) or texts[e] != texts[s]:
            yield texts[s]
