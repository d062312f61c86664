"""Bit-sequence coercion and packing.

Packed bytes hold bits most-significant-bit-first within each byte; that is
also numpy's unpackbits default, so keystream bytes map straight to bits.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParamError


def as_bits(seq) -> np.ndarray:
    """Coerce a {0,1} sequence (ndarray, list, or '0101' string) to uint8."""
    if isinstance(seq, str):
        arr = np.frombuffer(seq.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(seq, dtype=np.uint8)
    if arr.ndim != 1 or arr.size == 0:
        raise ParamError("bit sequence must be a nonempty 1-D array")
    if int(arr.max()) > 1:
        raise ParamError("bit values must be 0 or 1")
    return arr


def bits_from_bytes(data: bytes, nbits: int | None = None) -> np.ndarray:
    """Unpack bytes to bits (MSB first), optionally truncated to nbits."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if nbits is not None:
        if nbits <= 0 or nbits > bits.size:
            raise ParamError(f"cannot take {nbits} bits from {bits.size}")
        bits = bits[:nbits]
    return bits


def bytes_from_bits(bits) -> bytes:
    """Pack bits MSB-first; the final byte is zero-padded."""
    return np.packbits(as_bits(bits)).tobytes()
