"""Dataset encoders: text n-grams, binarized images, IDX and CSV ingestion."""

from __future__ import annotations

import math
import os
import re
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from . import am as am_mod
from .core import majority_from_counts
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    FormatError,
    atomic_open,
    open_text,
)
from .ngram import MAX_NGRAM, encode_text_ngram, normalize_text  # re-exported: public here too

ALPHABET = "abcdefghijklmnopqrstuvwxyz "

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Task kind -> default (item-memory seed, tie-break seed).
TASK_SEEDS = {"language": (42, 7), "mnist": (43, 8), "csv": (0, 0)}


class ItemMemory:
    """Fixed random hypervectors for atomic symbols (letters or pixel positions).

    Entries are generated from a single seeded stream in symbol order, so the
    same (dimension, seed, symbols) always reproduces every entry bit-for-bit.
    ``matrix`` holds them one byte per bit; ``indices`` maps a text to its
    symbols' row numbers, and ``packed_rotation`` caches, per shift, the
    packed rolled rows that the text encoder composes.
    """

    def __init__(self, dimension: int, symbols, seed: int):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.symbols = list(symbols)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        # (num_symbols, dimension) uint8 entries in symbol order.
        self.matrix = rng.integers(0, 2, size=(len(self.symbols), dimension), dtype=np.uint8)
        # Symbol index by code point, in the narrowest unsigned type (len(symbols): none;
        # larger code points read the last entry).
        chars = {ord(s): i for i, s in enumerate(self.symbols) if isinstance(s, str)}
        self._by_code_point = np.full(max(chars, default=0) + 2, len(self.symbols),
                                      dtype=np.min_scalar_type(len(self.symbols)))
        self._by_code_point[list(chars)] = list(chars.values())
        self._packed_rotations = {}

    @classmethod
    def for_alphabet(cls, dimension: int, seed: int) -> "ItemMemory":
        """26 letters plus space."""
        return cls(dimension, ALPHABET, seed)

    @classmethod
    def for_positions(cls, dimension: int, count: int, seed: int) -> "ItemMemory":
        """One entry per pixel index 0..count-1, row-major from top-left."""
        return cls(dimension, range(count), seed)

    def __len__(self):
        return len(self.symbols)

    def indices(self, text: str) -> np.ndarray:
        """Symbol index of each character of ``text``; ValueError names the first unknown."""
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        idx = self._by_code_point[np.minimum(codes, len(self._by_code_point) - 1)]
        unknown = idx == len(self)
        if unknown.any():
            raise ValueError(f"symbol {text[np.argmax(unknown)]!r} not present in item memory")
        return idx

    def packed_rotation(self, shift: int) -> np.ndarray:
        """Read-only ``np.packbits(np.roll(matrix, shift, axis=1), axis=1)``,
        built once per shift: the rows the text encoder composes, packed
        eight bits to a byte, the first bit highest (numpy's default order,
        whose unpacking is the faster)."""
        out = self._packed_rotations.get(shift)
        if out is None:
            out = np.packbits(np.roll(self.matrix, shift, axis=1), axis=1)
            out.flags.writeable = False
            self._packed_rotations[shift] = out
        return out


@dataclass
class LabeledSet:
    """Packed hypervectors paired with class labels, all sharing one
    dimension: the rows ``save_hypervector_csv`` writes."""

    dimension: int
    items: list = field(default_factory=list)  # list of (np.ndarray, str)

    def add(self, hv: np.ndarray, label: str) -> None:
        if hv.shape[-1] != -(-self.dimension // 8):
            raise DimensionMismatchError(f"dimension mismatch: set {self.dimension} bits "
                                         f"vs a packed vector of {hv.shape[-1]} bytes")
        if not label:
            raise ValueError("labels must be non-empty")
        self.items.append((hv, label))


def encode_images(
    images: np.ndarray,
    threshold: int,
    position_im: ItemMemory,
    seed: int,
) -> np.ndarray:
    """Per image, the packed majority bundle of the position hypervectors of
    all pixels at or above ``threshold``.

    Image i breaks ties from the i-th child of ``SeedSequence(seed)``, so its
    vector does not depend on the other images of the stack. Pixels are
    thresholded in chunks of images whose pixels, as booleans and float32,
    and packed tie bits take at most ``am.CHUNK_BYTES`` (one image at least).
    A chunk is counted against the position memory converted to float32 a
    block of columns at a time, whose positions and counts take at most
    ``am.CHUNK_BYTES`` too; float32 sums of ones are exact up to 2^24, far
    above any pixel count. Bits above half are packed straight into the output.
    """
    images = np.asarray(images)
    num = images.shape[0]
    flat = images.reshape(num, -1)
    if flat.shape[1] != len(position_im):
        raise DimensionMismatchError(
            f"images have {flat.shape[1]} pixels but item memory holds {len(position_im)} positions"
        )
    root = np.random.SeedSequence(seed)
    positions, dimension = position_im.matrix, position_im.dimension
    width = -(-dimension // 8)
    out = np.empty((num, width), dtype=np.uint8)
    chunk = max(1, am_mod.CHUNK_BYTES // (5 * len(position_im) + width))
    block = max(8, am_mod.CHUNK_BYTES // (4 * (len(position_im) + chunk)) // 8 * 8)
    for start in range(0, num, chunk):
        white = flat[start:start + chunk] >= threshold
        totals = np.count_nonzero(white, axis=1)
        if not totals.all():
            bad = start + int(np.argmin(totals))
            raise DegenerateInputError(f"image {bad} has no pixels above threshold")
        white, half = white.astype(np.float32), totals[:, None] / 2
        rows = out[start:start + len(white)]
        ties = np.empty_like(rows)
        for col in range(0, dimension, block):
            counts = white @ positions[:, col:col + block].astype(np.float32)
            cols = slice(col // 8, -(-(col + counts.shape[1]) // 8))
            rows[:, cols] = np.packbits(counts > half, axis=1, bitorder="little")
            ties[:, cols] = np.packbits(counts == half, axis=1, bitorder="little")
        # Successive spawns go on numbering the children: image i takes child i. An image
        # with ties breaks them as the majority of its two-vote tally (2 above half, 1 a tie).
        for row, tied, child in zip(rows, ties, root.spawn(len(totals))):
            if tied.any():
                votes = (2 * np.unpackbits(row, count=dimension, bitorder="little")
                         + np.unpackbits(tied, count=dimension, bitorder="little"))
                row[:] = np.packbits(majority_from_counts(votes, 2, np.random.default_rng(child)),
                                     bitorder="little")
    return out


def _read_exact(f, count: int, path: str):
    """``count`` bytes of ``f``, or FormatError naming the offset; a regular
    file too short for them is caught from its size, before any read."""
    info = os.fstat(f.fileno())
    fits = not stat.S_ISREG(info.st_mode) or count <= info.st_size - f.tell()
    data = f.read(count) if fits else b""
    if len(data) != count:
        raise FormatError(
            f"{path}: truncated file, expected {count} more bytes",
            location=f"offset {f.tell() - len(data)}",
        )
    return data


def _read_idx(path, magic: int, dims: int, what: str) -> np.ndarray:
    """The uint8 array of the IDX file ``path``: a big-endian header of
    ``magic`` and ``dims`` sizes, then exactly their product of ``what`` bytes.
    FormatError naming the offset for another magic, a truncated file or
    trailing bytes."""
    with open(path, "rb") as f:
        found, *shape = struct.unpack(f">{1 + dims}I", _read_exact(f, 4 + 4 * dims, str(path)))
        if found != magic:
            raise FormatError(f"{path}: bad IDX magic 0x{found:08x}, expected 0x{magic:08x}",
                              location="offset 0")
        size = math.prod(shape)
        raw = _read_exact(f, size, str(path))
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after {what} data",
                              location=f"offset {4 + 4 * dims + size}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape)


def load_mnist(images_path, labels_path):
    """(images, labels) of an IDX pair, (count, rows, cols) and (count,) uint8;
    FormatError naming the images file when it holds no image."""
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, 3, "pixel")
    if not len(images):
        raise FormatError(f"{images_path}: no images found", location="offset 4")
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, 1, "label")
    if len(labels) != len(images):
        raise FormatError(f"{labels_path}: {len(labels)} labels for {len(images)} images",
                          location="offset 4")
    return images, labels


def _read_rows(path, payload: str):
    """Yield (row number, label, payload) of each non-blank ``label,<payload>``
    row of the text file ``path``, one at a time, label and payload stripped
    of surrounding whitespace; a first row labelled ``label`` is a header.
    FormatError naming the file for a row without a comma or a label, and for
    a file without rows."""
    found = False
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            if line.isspace():
                continue
            label, comma, rest = line.partition(",")
            label = label.strip()
            if not (comma and label):
                raise FormatError(f"{path}: expected 'label,{payload}' with a non-empty label",
                                  location=f"row {lineno}")
            if lineno == 1 and label.lower() == "label":
                continue
            found = True
            yield lineno, label, rest.strip()
    if not found:
        raise FormatError(f"{path}: no 'label,{payload}' rows found")


def _row_label(label) -> bool:
    """Whether ``label`` reads back unchanged from a ``label,<payload>`` row: a
    non-empty string without a comma, a line break or surrounding whitespace."""
    return (isinstance(label, str) and label != "" and label == label.strip()
            and not any(c in label for c in ",\r\n"))


def load_hypervector_csv(path) -> tuple:
    """Read ``label,bitstring`` rows into (one packed (rows, ceil(D / 8))
    uint8 matrix, their labels, D), D the first row's width. Header row
    optional.

    Each bitstring is checked with one ``max`` (a character outside latin-1
    reads as ``?``) and packed straight into its row of the matrix, allocated
    for as many rows as the file's size can hold, or doubled as rows come
    when the size is unknown (a pipe). Once a row is bad the rest is only
    read through, so the row reader's errors still win; then the first
    non-binary row is named, else the first ragged one.
    """
    matrix, labels, non_binary, ragged = None, [], None, None
    for lineno, label, bits in _read_rows(path, "bitstring"):
        if matrix is None:
            info = os.stat(path)
            dimension, width = len(bits), -(-len(bits) // 8)
            # A row takes at least a label character, a comma, its bits and a line end.
            capacity = ((info.st_size + 1) // (dimension + 3) if stat.S_ISREG(info.st_mode)
                        else am_mod.CHUNK_BYTES // max(1, width))
            matrix = np.empty((max(1, capacity), width), dtype=np.uint8)
        if non_binary:
            continue
        if len(bits) != dimension:
            if not re.fullmatch("[01]+", bits):
                non_binary = lineno
            ragged = ragged or (lineno, len(bits))
            continue
        row = np.frombuffer(bits.encode("latin-1", "replace"), dtype=np.uint8) - ord("0")
        if not dimension or row.max() > 1:
            non_binary = lineno
            continue
        if len(labels) == len(matrix):
            # Grown by realloc: no view of the matrix is alive here to check for.
            matrix.resize((2 * len(matrix), width), refcheck=False)
        matrix[len(labels)] = np.packbits(row, bitorder="little")
        labels.append(label)
    if non_binary:
        raise FormatError(f"{path}: bitstring must be non-empty over {{0,1}}",
                          location=f"row {non_binary}")
    if ragged:
        raise FormatError(f"{path}: ragged bitstring length {ragged[1]}, expected {dimension}",
                          location=f"row {ragged[0]}")
    matrix.resize((len(labels), width), refcheck=False)
    return matrix, labels, dimension


def save_hypervector_csv(path, labeled: LabeledSet) -> None:
    """Write ``label,bits`` rows, each packed vector unpacked to the set's
    dimension; FormatError naming a label that ``_read_rows`` would not read
    back unchanged (see ``_row_label``), leaving no file behind."""
    with atomic_open(path) as f:
        f.write("label,bits\n")
        for hv, label in labeled.items:
            if not _row_label(label):
                raise FormatError(f"{path}: label {label!r} would not read back from a "
                                  "'label,bits' row")
            bits = np.unpackbits(hv, count=labeled.dimension, bitorder="little") + ord("0")
            bits = bits.tobytes().decode()
            f.write(f"{label},{bits}\n")


def _path(files: dict, name: str) -> str:
    """The path setting ``files[name]``; E-CONFIG naming its flag when it is missing."""
    if name not in files:
        raise ConfigError(f"missing --{name.replace('_', '-')} (or {name!r} in --config)")
    return files[name]


@dataclass
class Task:
    """Encoder set-up of one task, shared by the CLI and ``synth``.

    ``kind`` selects the item memory: letters for ``language`` (n-gram text
    encoding), pixel positions for ``mnist`` (thresholded images), none for
    ``csv`` (pre-encoded hypervectors). Unset seeds take the kind's defaults
    from TASK_SEEDS. A negative seed, an n-gram size outside [1, MAX_NGRAM]
    (13: the longest gram whose window codes fit int64) or a pixel threshold
    outside [1, 255] is refused here, so a command refuses it before it
    reads any data.

    ``read`` gives a split in the one shape that ``train`` and ``encode``
    take for every kind: items, their string labels and their names in
    errors. ``train`` starts a tie-break stream for its dimension and keeps
    it with the item memory; ``encode`` at that dimension goes on with them
    (how ``sweep`` and ``synth`` encode queries), and otherwise starts afresh
    (how ``eval`` encodes them for a model trained elsewhere).
    """

    kind: str
    item_seed: int | None = None
    tie_seed: int | None = None
    ngram: int | None = None
    threshold: int | None = None

    def __post_init__(self):
        if self.kind not in TASK_SEEDS:
            raise ConfigError(f"task must be one of {sorted(TASK_SEEDS)}, got {self.kind!r}")
        item_seed, tie_seed = TASK_SEEDS[self.kind]
        for name, default in (("item_seed", item_seed), ("tie_seed", tie_seed),
                              ("ngram", 4), ("threshold", 128)):
            if getattr(self, name) is None:
                setattr(self, name, default)
        for name in ("item_seed", "tie_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 1 <= self.ngram <= MAX_NGRAM:
            raise ValueError(f"n-gram size must be in [1, {MAX_NGRAM}], got {self.ngram}")
        if not 1 <= self.threshold <= 255:
            raise ValueError(f"threshold must be in [1, 255], got {self.threshold}")
        self._dimension = None

    def read(self, files: dict, split: str) -> tuple:
        """(items, labels, names) of the ``train`` or ``test`` split named in
        ``files`` (setting -> path): texts, an image stack or the vector
        matrix with its dimension; their string labels; the names errors give
        them (None: by position). ``language`` trains on a directory of
        <label>.txt corpora and is tested on ``label,text`` rows."""
        if self.kind == "mnist":
            images, labels = load_mnist(_path(files, f"{split}_images"),
                                        _path(files, f"{split}_labels"))
            return images, [str(int(c)) for c in labels], None
        if self.kind == "csv":
            matrix, labels, dimension = load_hypervector_csv(_path(files, f"{split}_csv"))
            return (matrix, dimension), labels, None
        if split == "test":
            path = _path(files, "queries")
            rows = list(_read_rows(path, "text"))
            return ([text for _, _, text in rows], [label for _, label, _ in rows],
                    [f"query in {path} row {lineno}" for lineno, _, _ in rows])
        train_dir = _path(files, "train_dir")
        if not os.path.isdir(train_dir):
            raise ConfigError(f"training corpus directory not found: {train_dir}")
        texts = {}
        for name in sorted(n for n in os.listdir(train_dir) if n.endswith(".txt")):
            path = os.path.join(train_dir, name)
            if not _row_label(name[:-4]):
                raise FormatError(f"{path}: no query row can match corpus label {name[:-4]!r}")
            with open_text(path) as f:
                texts[name[:-4]] = f.read()
        if not texts:
            raise ConfigError(f"no .txt corpus files in {train_dir}")
        return list(texts.values()), list(texts), [f"corpus {label!r}" for label in texts]

    def _start(self, dimension: int, items) -> None:
        """A fresh tie-break stream and item memory for ``dimension``: letters,
        or for ``mnist`` one entry per pixel of the geometry of ``items``."""
        self._dimension, self._im = dimension, None
        self._tie = np.random.default_rng(np.random.SeedSequence([self.tie_seed, dimension]))
        if self.kind == "language":
            self._im = ItemMemory.for_alphabet(dimension, self.item_seed)
        elif self.kind == "mnist":
            self._im = ItemMemory.for_positions(dimension, items.shape[1] * items.shape[2],
                                                self.item_seed)

    def train(self, items, labels, dimension: int, names=None) -> am_mod.AssociativeMemory:
        """Encode the items and bundle them by label, classes in first-seen
        order (``mnist``: by digit value)."""
        self._start(dimension, items)
        order = sorted(set(labels), key=int) if self.kind == "mnist" else labels
        classes = {label: [] for label in order}
        for hv, label in zip(self._encode(items, names, self.tie_seed), labels):
            classes[label].append(hv)
        return am_mod.train(classes, dimension, self._tie)

    def encode(self, items, dimension: int, names=None) -> np.ndarray:
        """Packed query matrix of the items at ``dimension``."""
        if dimension != self._dimension:
            self._start(dimension, items)
        return self._encode(items, names, self.tie_seed + 1)

    def _encode(self, items, names, image_seed: int) -> np.ndarray:
        """The items' packed hypervectors at the current dimension: texts
        breaking ties from the tie stream, images from ``image_seed``, ``csv``
        vectors as given."""
        if self.kind == "language":
            return encode_text_ngram(items, self.ngram, self._im, self._tie, names=names)
        if self.kind == "mnist":
            return encode_images(items, self.threshold, self._im, seed=image_seed)
        matrix, dimension = items
        if dimension != self._dimension:
            raise DimensionMismatchError(
                f"csv vectors have dimension {dimension}, requested {self._dimension}"
            )
        return matrix
