"""Packed hypervector rows as ``am`` lays them out (bit j at bit j % 8 of
byte j // 8, padding bits zero), made from and read back to one byte per bit."""

import numpy as np

from hdtcam.am import AssociativeMemory


def pack(bits):
    """Packed rows of a (..., D) array of 0/1 bits."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1, bitorder="little")


def unpack(rows, dimension):
    """The (..., D) bits of packed rows."""
    return np.unpackbits(rows, axis=-1, count=dimension, bitorder="little")


def packed_memory(labels, bits):
    """The associative memory of (classes, D) unpacked class vectors."""
    bits = np.atleast_2d(bits)
    return AssociativeMemory(labels, pack(bits), bits.shape[-1])
