"""Batch keystream engine.

State is a (16, n) uint32 array: one row per word, one column per block
(the column layout of Bernstein's ChaCha paper).  Round arithmetic wraps
mod 2**32 via uint32 ufuncs, so the bytes equal the scalar core's.

The round kernel runs the four quarter-rounds of a round at once on (4, n)
row groups a = rows 0-3, b = 4-7, c = 8-11, d = 12-15: the
diagonalize-and-rotate form of Bernstein's "ChaCha, a variant of Salsa20"
(2008), without moving any row.  In a column round each add, xor and
rotate is one call on whole groups.  In a diagonal round row j of one group
meets row j + 1 (mod 4) of the next, so each add and xor runs as two calls
on contiguous slices, rows 0-2 against rows 1-3 and row 3 against row 0.
A rotate is three calls through a (4, n) scratch.  A double round is thus
20 + 28 calls (the per-row form made 160), and mask injection is one more
call, so the call count no longer swamps small messages.

One generator yields keystream words in chunks of at most CHUNK_BLOCKS
blocks from one buffer allocated per call: 16 state rows, 4 scratch rows
and a row of counter offsets.  A step touches two groups and the scratch;
at 2**14 blocks a group is 256 KiB, and the whole buffer (1.3 MiB) stays in
one core's 2 MiB L2 across a round, while at 2**16 one step already
touches 3 MiB.  `xor_with_keystream` is the generator's only consumer and
takes a trailing partial block from the last column of the same chunk, so
the round loop runs once per chunk; `keystream_bytes` is the XOR over zero
bytes.  Disjoint counter ranges are independent, so any block-aligned
slice of a stream can be recomputed from its own counter.
"""

from __future__ import annotations

import numpy as np

from .cipher import (
    BLOCK_BYTES,
    blocks_needed,
    check_counter_span,
    init_state,
    resolve_material,
)

# keystream chunking: 2**14 blocks, a 1 MiB state per chunk (see the module
# docstring for the working set).  Interleaved medians of 15 runs on a
# 2-core Xeon with 2 MiB of L2 per core, 32 MB ChaCha8 / ChaCha20 in ms:
# 2**13 133 / 260, 2**14 127 / 240, 2**15 143 / 274, 2**16 169 / 339; the
# per-row kernel this replaced read 138 / 254 at its 2**16 blocks.
CHUNK_BLOCKS = 1 << 14

# the quarter-round's two halves: rotate d, then b, by these counts
_ROTATIONS = ((16, 12), (8, 7))


def _rotl(v, n, t):
    np.left_shift(v, n, out=t)
    np.right_shift(v, 32 - n, out=v)
    np.bitwise_or(v, t, out=v)


def _rounds(x, rounds, masks, t):
    """In-place round loop on the (16, n) state x; t is a (4, n) scratch."""
    add, xor = np.add, np.bitwise_xor
    a, b, c, d = x[0:4], x[4:8], x[8:12], x[12:16]
    # the diagonal round meets row j of one group with row j + 1 (mod 4) of
    # the next: rows 0-2 with rows 1-3 (a02, b13) and row 3 with row 0
    # (a3, b0), all contiguous slices of x
    a02, b02, c02, d02 = a[:3], b[:3], c[:3], d[:3]
    a13, b13, c13, d13 = a[1:], b[1:], c[1:], d[1:]
    a3, b3, c3, d3 = a[3:], b[3:], c[3:], d[3:]
    a0, b0, c0, d0 = a[:1], b[:1], c[:1], d[:1]
    if masks is not None and masks.ndim == 2:
        masks = masks[:, :, None]  # one mask per injection for all columns
    for r in range(rounds):
        if r % 2 == 0:
            if masks is not None:
                xor(a, masks[r >> 1], out=a)
            for n1, n2 in _ROTATIONS:
                add(a, b, out=a)
                xor(d, a, out=d)
                _rotl(d, n1, t)
                add(c, d, out=c)
                xor(b, c, out=b)
                _rotl(b, n2, t)
        else:
            for n1, n2 in _ROTATIONS:
                add(a02, b13, out=a02)
                add(a3, b0, out=a3)
                xor(d02, a13, out=d02)
                xor(d3, a0, out=d3)
                _rotl(d, n1, t)
                add(c02, d13, out=c02)
                add(c3, d0, out=c3)
                xor(b02, c13, out=b02)
                xor(b3, c0, out=b3)
                _rotl(b, n2, t)
    return x


def run_rounds(x: np.ndarray, rounds: int, round_masks=None) -> np.ndarray:
    """In-place round loop on a (16, n) uint32 array; returns x.

    round_masks may be None, an (R/2, 4) array (one mask per injection,
    shared by all columns) or (R/2, 4, n) for per-column masks.
    """
    return _rounds(x, rounds, round_masks, np.empty((4, x.shape[1]), dtype=np.uint32))


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
    width = min(CHUNK_BLOCKS, nblocks)
    # one buffer per call: 16 state rows, 4 scratch rows and the row of
    # counter offsets (block + column) of the current chunk
    buf = np.empty((21, width), dtype=np.uint32)
    state, scratch, offsets = buf[:16], buf[16:20], buf[20]
    offsets[:] = np.arange(width, dtype=np.uint32)
    for block in range(0, nblocks, CHUNK_BLOCKS):
        take = min(width, nblocks - block)
        w, ctr = state[:, :take], offsets[:take]
        # X(0) is x0 plus the block offset in the counter row; the span
        # check above guarantees the counter never wraps
        np.copyto(w, x0)
        w[12] += ctr
        _rounds(w, params.rounds, masks, scratch[:, :take])
        w += x0
        w[12] += ctr
        yield block, w
        offsets += CHUNK_BLOCKS  # wraps only in columns past the last block


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
