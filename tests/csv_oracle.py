"""The list-based ``label,bitstring`` loader, the reference for the streamed one.

``encoders.load_hypervector_csv`` packs each row straight into a matrix
sized from the file and checks it as it comes. This module keeps the loader
that reads every row first, checks all bitstrings in one pass over their
concatenation, packs them all at once, and only for a file that fails
searches it row by row: the packed matrix, the labels, the dimension and
every error's message and row it gives are the ones the streamed loader must
reproduce.
"""

import re

import numpy as np

from hdtcam.errors import FormatError, open_text


def read_rows(path, payload):
    """(row number, label, payload) of each non-blank ``label,<payload>`` row,
    a first row labelled ``label`` skipped as a header."""
    rows = []
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
            rows.append((lineno, label, rest.strip()))
    if not rows:
        raise FormatError(f"{path}: no 'label,{payload}' rows found")
    return rows


def load_hypervector_csv(path):
    """(packed uint8 matrix, labels, dimension); the first non-binary row,
    else the first ragged one, named in a FormatError."""
    rows = read_rows(path, "bitstring")
    dimension = len(rows[0][2])
    joined = "".join(bits for _, _, bits in rows).encode("latin-1", "replace")
    flat = np.frombuffer(joined, dtype=np.uint8) - np.uint8(ord("0"))
    if not (dimension and all(len(bits) == dimension for _, _, bits in rows)
            and flat.max() <= 1):
        for lineno, _, bits in rows:
            if not re.fullmatch("[01]+", bits):
                raise FormatError(f"{path}: bitstring must be non-empty over {{0,1}}",
                                  location=f"row {lineno}")
        for lineno, _, bits in rows:
            if len(bits) != dimension:
                raise FormatError(
                    f"{path}: ragged bitstring length {len(bits)}, expected {dimension}",
                    location=f"row {lineno}",
                )
    matrix = np.packbits(flat.reshape(len(rows), dimension), axis=1, bitorder="little")
    return matrix, [label for _, label, _ in rows], dimension
