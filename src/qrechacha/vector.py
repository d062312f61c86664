"""Batch keystream engine.

State is a (16, n) uint32 array: one row per word, one column per block
(the column layout of Bernstein's ChaCha paper).  Round arithmetic wraps
mod 2**32 via uint32 ufuncs, so the bytes equal the scalar core's.

One generator yields keystream words in chunks of at most CHUNK_BLOCKS
blocks from one reused state buffer.  A quarter-round makes 20 ufunc
calls over four rows plus a scratch row.  At 2**16 blocks those five rows
take 1.25 MiB and fit in one core's 2 MiB L2 across the 20 calls; at
2**18 they took 5 MiB, and every call streamed from L3 or DRAM.  A 32 MB
ChaCha8 XOR took about 96 ms on the machine this was tuned on, against
113-120 ms with 2**18-block chunks.  `xor_with_keystream` is the
generator's only consumer and takes a trailing partial block from the
last column of the same chunk, so the round loop runs once per chunk;
`keystream_bytes` is the XOR over zero bytes.  Disjoint counter ranges
are independent, so any block-aligned slice of a stream can be
recomputed from its own counter.
"""

from __future__ import annotations

import numpy as np

from .cipher import (
    BLOCK_BYTES,
    COLUMN_GROUPS,
    DIAGONAL_GROUPS,
    blocks_needed,
    check_counter_span,
    init_state,
    resolve_material,
)

# keystream chunking: 2**16 blocks, a 4 MiB state per chunk (see the module
# docstring for why a quarter-round's rows must fit in L2).  Interleaved
# medians on a 2-core Xeon with 2 MiB of L2 per core, 32 MB ChaCha8 /
# ChaCha20 in ms: 2**15 95 / 201, 2**16 96 / 207, 2**18 113 / 247; at 10 and
# 50 MB 2**16 read 4-8% faster than 2**15 at 8 rounds.
CHUNK_BLOCKS = 1 << 16


def _rotl(row, n, t):
    np.left_shift(row, n, out=t)
    np.right_shift(row, 32 - n, out=row)
    np.bitwise_or(row, t, out=row)


def _qr(x, a, b, c, d, t):
    """In-place quarter-round on rows of x; t is a scratch row."""
    np.add(x[a], x[b], out=x[a])
    np.bitwise_xor(x[d], x[a], out=x[d])
    _rotl(x[d], 16, t)
    np.add(x[c], x[d], out=x[c])
    np.bitwise_xor(x[b], x[c], out=x[b])
    _rotl(x[b], 12, t)
    np.add(x[a], x[b], out=x[a])
    np.bitwise_xor(x[d], x[a], out=x[d])
    _rotl(x[d], 8, t)
    np.add(x[c], x[d], out=x[c])
    np.bitwise_xor(x[b], x[c], out=x[b])
    _rotl(x[b], 7, t)


def run_rounds(x: np.ndarray, rounds: int, round_masks=None) -> np.ndarray:
    """In-place round loop on a (16, n) uint32 array; returns x.

    round_masks may be None, an (R/2, 4) array (one mask per injection,
    shared by all columns) or (R/2, 4, n) for per-column masks.
    """
    t = np.empty_like(x[0])
    for r in range(rounds):
        if r % 2 == 0 and round_masks is not None:
            m = round_masks[r >> 1]
            x[0] ^= m[0]
            x[1] ^= m[1]
            x[2] ^= m[2]
            x[3] ^= m[3]
        for a, b, c, d in DIAGONAL_GROUPS if r % 2 else COLUMN_GROUPS:
            _qr(x, a, b, c, d, t)
    return x


def feedforward(x0: np.ndarray, rounds: int, round_masks=None) -> np.ndarray:
    """Z = X(0) + X(R) columnwise for a batch of initial states."""
    w = x0.copy()
    run_rounds(w, rounds, round_masks)
    w += x0
    return w


def prepare(params, material):
    """(X(0) as a (16, 1) uint32 column, round masks as an (R/2, 4) uint32
    array or None), after checking that material covers params.rounds."""
    const_mask, masks = resolve_material(params, material)
    x0 = np.array(init_state(params, const_mask), dtype=np.uint32)[:, None]
    return x0, None if masks is None else np.asarray(masks, dtype=np.uint32)


def _keystream(params, material, nbytes: int):
    """Yield (first_block, w) in counter order, where w is a (16, take)
    array of keystream words for blocks first_block.. of the stream that
    starts at params.counter, covering blocks_needed(nbytes) blocks.

    w aliases a buffer that the next iteration overwrites; consumers must
    use it before advancing.
    """
    x0, masks = prepare(params, material)
    nblocks = blocks_needed(nbytes)
    check_counter_span(params.counter, nblocks)
    state = np.empty((16, min(CHUNK_BLOCKS, nblocks)), dtype=np.uint32)
    for block in range(0, nblocks, CHUNK_BLOCKS):
        w = state[:, : nblocks - block]
        # X(0) is x0 plus the block offset in the counter row; the span
        # check above guarantees the counter never wraps
        offsets = np.arange(block, block + w.shape[1], dtype=np.uint32)
        np.copyto(w, x0)
        w[12] += offsets
        run_rounds(w, params.rounds, masks)
        w += x0
        w[12] += offsets
        yield block, w


def xor_with_keystream(params, material, data) -> bytearray:
    """data XOR keystream from params.counter, chunked to bound memory.

    Whole blocks are XORed word-wise straight out of the (16, n) state,
    fusing serialization with the XOR; "<u4" views fix the byte order and
    accept misaligned buffers.  Returns a bytearray so the result buffer is
    written exactly once.
    """
    src = np.frombuffer(data, dtype=np.uint8)
    out = bytearray(src.size)
    full = src.size // BLOCK_BYTES
    src32 = np.frombuffer(data, dtype="<u4", count=16 * full)
    out32 = np.frombuffer(out, dtype="<u4", count=16 * full)
    for block, w in _keystream(params, material, src.size):
        whole = min(w.shape[1], full - block)
        rows = slice(16 * block, 16 * (block + whole))
        np.bitwise_xor(src32[rows].reshape(whole, 16), w[:, :whole].T,
                       out=out32[rows].reshape(whole, 16))
        if whole < w.shape[1]:  # the partial last block is the last column
            done = BLOCK_BYTES * full
            ks = w[:, whole].astype("<u4").view(np.uint8)[: src.size - done]
            out[done:] = (src[done:] ^ ks).tobytes()
    return out


def keystream_bytes(params, material, nbytes: int) -> bytes:
    """Exactly nbytes of keystream starting at params.counter."""
    return bytes(xor_with_keystream(params, material, bytes(max(nbytes, 0))))
