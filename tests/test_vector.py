import random

import numpy as np
import pytest

from qrechacha import CipherParams, QrnSessionMaterial, keystream_block
from qrechacha import vector
from qrechacha.cipher import blocks_needed, init_state, run_rounds as scalar_rounds

rand = random.Random(0xBA7C4)


def rand_words(n):
    return tuple(rand.getrandbits(32) for _ in range(n))


def rand_material(rounds):
    return QrnSessionMaterial(rand_words(4), tuple(rand_words(4) for _ in range(rounds // 2)))


def test_single_block_matches_scalar():
    for rounds in (2, 8, 12, 20):
        params = CipherParams(rand_words(8), rand_words(3), rand.getrandbits(32), rounds)
        for mat in (None, rand_material(rounds)):
            assert vector.keystream_bytes(params, mat, 64) == keystream_block(params, mat)


def test_block_range_matches_scalar_loop():
    params = CipherParams(rand_words(8), rand_words(3), 1000, 12)
    mat = rand_material(12)
    got = vector.keystream_bytes(params, mat, 9 * 64)
    for t in range(9):
        p = CipherParams(params.key, params.nonce, 1000 + t, 12)
        assert got[64 * t : 64 * (t + 1)] == keystream_block(p, mat)


def test_run_rounds_matches_scalar():
    params = CipherParams(rand_words(8), rand_words(3), 17, 8)
    mat = rand_material(8)
    x0 = init_state(params, mat.const_mask)
    expect = scalar_rounds(x0, 8, mat.round_masks)
    x = np.array(x0, dtype=np.uint32).reshape(16, 1)
    vector.run_rounds(x, 8, np.asarray(mat.round_masks, dtype=np.uint32))
    assert [int(w) for w in x[:, 0]] == expect


@pytest.mark.parametrize("width", [1, 2, 3, 5, 17])
@pytest.mark.parametrize("rounds", [2, 8, 20])
@pytest.mark.parametrize("masks", ["none", "shared", "per-column"])
def test_grouped_rounds_match_scalar_per_column(width, rounds, masks):
    rng = np.random.default_rng(1000 * width + rounds)
    x0 = rng.integers(0, 1 << 32, size=(16, width), dtype=np.uint32)
    drawn = rng.integers(0, 1 << 32, size=(rounds // 2, 4, width), dtype=np.uint32)
    given = {"none": None, "shared": drawn[:, :, 0].copy(), "per-column": drawn}[masks]
    x = vector.run_rounds(x0.copy(), rounds, given)
    for col in range(width):
        mask_words = None if given is None else [
            [int(w) for w in (m if m.ndim == 1 else m[:, col])] for m in given]
        want = scalar_rounds([int(w) for w in x0[:, col]], rounds, mask_words)
        assert [int(w) for w in x[:, col]] == want, col


def test_chunk_boundaries_equal(monkeypatch):
    params = CipherParams(rand_words(8), rand_words(3), 0, 8)
    mat = rand_material(8)
    want = b"".join(keystream_block(CipherParams(params.key, params.nonce, t, 8), mat)
                    for t in range(16))[:1000]
    for chunk in (1, 2, 3, 7, 16):
        monkeypatch.setattr(vector, "CHUNK_BLOCKS", chunk)
        assert vector.keystream_bytes(params, mat, 1000) == want


def test_xor_chunk_boundaries_equal(monkeypatch):
    params = CipherParams(rand_words(8), rand_words(3), 0, 8)
    mat = rand_material(8)
    data = bytes(rand.getrandbits(8) for _ in range(1000))
    want = vector.xor_with_keystream(params, mat, data)
    for chunk in (1, 2, 3, 7, 16):
        monkeypatch.setattr(vector, "CHUNK_BLOCKS", chunk)
        assert vector.xor_with_keystream(params, mat, data) == want


def test_random_access_slices(monkeypatch):
    # the XOR of a slice at its first block's counter equals the matching
    # slice of the full XOR, also for slices that straddle chunk ends
    monkeypatch.setattr(vector, "CHUNK_BLOCKS", 4)
    chunk = 4 * 64
    params = CipherParams(rand_words(8), rand_words(3), 77, 8)
    mat = rand_material(8)
    data = bytes(rand.getrandbits(8) for _ in range(4 * chunk))
    full = vector.xor_with_keystream(params, mat, data)
    for size in (0, 1, 63, 64, 65, chunk - 1, chunk, chunk + 1):
        for block in (0, 1, 3, 5):
            start = 64 * block
            p = CipherParams(params.key, params.nonce, params.counter + block, 8)
            got = vector.xor_with_keystream(p, mat, data[start : start + size])
            assert got == full[start : start + size]


def test_misaligned_memoryview_input():
    params = CipherParams(rand_words(8), rand_words(3), 9, 20)
    mat = rand_material(20)
    for size in (1, 64, 200, 4097):
        data = bytes(rand.getrandbits(8) for _ in range(size))
        buf = bytearray(size + 1)
        buf[1:] = data
        view = memoryview(buf)[1:]
        assert vector.xor_with_keystream(params, mat, view) == \
            vector.xor_with_keystream(params, mat, data)


def test_openssl_chacha20_cross_check():
    ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
    key, nonce = rand.randbytes(32), rand.randbytes(12)
    for counter, size in ((0, 1), (1, 64), (5, 1000), (2**32 - 3, 150)):
        params = CipherParams.from_bytes(key, nonce, counter, 20)
        data = rand.randbytes(size)
        algo = ciphers.algorithms.ChaCha20(key, counter.to_bytes(4, "little") + nonce)
        want = ciphers.Cipher(algo, mode=None).encryptor().update(data)
        for mat in (None, QrnSessionMaterial.zero(20)):
            assert vector.xor_with_keystream(params, mat, data) == want


def test_keystream_bytes_prefix_property():
    params = CipherParams(rand_words(8), rand_words(3), 5, 20)
    mat = rand_material(20)
    long = vector.keystream_bytes(params, mat, 777)
    assert vector.keystream_bytes(params, mat, 100) == long[:100]


def test_feedforward_batch_matches_per_column():
    rounds = 8
    mat = rand_material(rounds)
    masks = np.asarray(mat.round_masks, dtype=np.uint32)
    rng = np.random.default_rng(3)
    x0 = rng.integers(0, 1 << 32, size=(16, 50), dtype=np.uint32)
    z = vector.feedforward(x0.copy(), rounds, masks)
    for col in (0, 17, 49):
        state = [int(w) for w in x0[:, col]]
        xr = scalar_rounds(state, rounds, mat.round_masks)
        expect = [(a + b) & 0xFFFFFFFF for a, b in zip(state, xr)]
        assert [int(w) for w in z[:, col]] == expect


EDGE = vector.CHUNK_BLOCKS * 64  # bytes per chunk at the shipped width
# around the first chunk edge and around the fourth, where the counter
# offsets have advanced three times (also the 2**16-block edge, the widest
# width the chunk sweep covers)
EDGE_SIZES = tuple(size for k in (1, 4)
                   for size in (k * EDGE - 1, k * EDGE, k * EDGE + 1, 2 * k * EDGE + 65))


def _edge_counter(start, nblocks):
    # "straddle" puts a multiple of CHUNK_BLOCKS inside the counter span;
    # "top" ends the span at the last counter value
    return {"zero": 0, "straddle": vector.CHUNK_BLOCKS - 3, "top": 2**32 - nblocks}[start]


@pytest.mark.parametrize("start", ["zero", "straddle", "top"])
@pytest.mark.parametrize("size", EDGE_SIZES)
def test_shipped_width_edges_match_scalar(size, start):
    nblocks = blocks_needed(size)
    edges = {0, nblocks - 1}
    for edge in range(vector.CHUNK_BLOCKS, nblocks, vector.CHUNK_BLOCKS):
        edges |= {edge - 1, edge}
    key, nonce = rand_words(8), rand_words(3)
    for rounds, mat in ((8, rand_material(8)), (20, None)):
        params = CipherParams(key, nonce, _edge_counter(start, nblocks), rounds)
        got = vector.keystream_bytes(params, mat, size)
        assert len(got) == size
        for block in sorted(edges):
            at = CipherParams(key, nonce, params.counter + block, rounds)
            want = keystream_block(at, mat)[: size - 64 * block]
            assert got[64 * block : 64 * (block + 1)] == want, (rounds, block)


@pytest.mark.parametrize("start", ["zero", "straddle", "top"])
@pytest.mark.parametrize("size", EDGE_SIZES)
def test_shipped_width_every_byte_matches_openssl(size, start):
    ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
    key, nonce = rand.randbytes(32), rand.randbytes(12)
    counter = _edge_counter(start, blocks_needed(size))
    data = np.random.default_rng(size).bytes(size)
    algo = ciphers.algorithms.ChaCha20(key, counter.to_bytes(4, "little") + nonce)
    want = ciphers.Cipher(algo, mode=None).encryptor().update(data)
    params = CipherParams.from_bytes(key, nonce, counter, 20)
    assert vector.xor_with_keystream(params, None, data) == want
