"""Property tests of the keystream engine, at the shipped chunk width, at
2**16 blocks (the widest width the chunk sweep covers) and at a width of 3
blocks that puts chunk edges inside short inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qrechacha import CipherParams, DeterministicProvider, derive_session, xor_stream  # noqa: E402
from qrechacha import vector  # noqa: E402
from qrechacha.cipher import MAX_COUNTER, blocks_needed  # noqa: E402

WIDTHS = (3, vector.CHUNK_BLOCKS, 1 << 16)
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@st.composite
def near_edge(draw, width):
    """0, 1 or 2 widths plus an offset in [-65, 65], at least 0."""
    return max(0, draw(st.integers(0, 2)) * width + draw(st.integers(-65, 65)))


@st.composite
def streams(draw, width):
    """(params, material, data) with data within a block of 0, 1 or 2 chunks
    long and the counter span inside [0, 2**32)."""
    size = draw(near_edge(64 * width))
    rounds = draw(st.sampled_from((2, 8, 20)))
    counter = min(draw(st.integers(0, MAX_COUNTER)), MAX_COUNTER + 1 - max(blocks_needed(size), 1))
    params = CipherParams(tuple(draw(st.lists(st.integers(0, MAX_COUNTER), min_size=8, max_size=8))),
                          tuple(draw(st.lists(st.integers(0, MAX_COUNTER), min_size=3, max_size=3))),
                          counter, rounds)
    material = None
    if draw(st.booleans()):
        material = derive_session(DeterministicProvider(draw(st.binary(max_size=8))), rounds)
    data = np.random.default_rng(draw(st.integers(0, 2**32))).bytes(size)
    return params, material, data


@pytest.mark.parametrize("width", WIDTHS)
@PROPERTY
@given(data=st.data())
def test_round_trip(width, data):
    params, material, msg = data.draw(streams(width))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vector, "CHUNK_BLOCKS", width)
        assert bytes(xor_stream(params, material, bytes(xor_stream(params, material, msg)))) == msg


@pytest.mark.parametrize("width", WIDTHS)
@PROPERTY
@given(data=st.data())
def test_random_access(width, data):
    params, material, msg = data.draw(streams(width))
    # a slice from a block near a chunk edge, to anywhere up to the end
    block = min(max(blocks_needed(len(msg)) - 1, 0), data.draw(near_edge(width)))
    start = 64 * block
    length = data.draw(st.integers(0, len(msg) - start))
    at = CipherParams(params.key, params.nonce, params.counter + block, params.rounds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vector, "CHUNK_BLOCKS", width)
        full = xor_stream(params, material, msg)
        assert xor_stream(at, material, msg[start : start + length]) == full[start : start + length]
