"""Acceptance suite: one test per criterion, tolerances pinned inline.

The terminal summary prints one PASS/FAIL line per criterion (see
conftest).  Long-running full-scale modes are documented in the README and
gated behind environment variables; everything here runs by default.
"""

import os
import random

import numpy as np
import pytest

from qrechacha import (
    CipherParams,
    DeterministicProvider,
    QrnPool,
    QrnSessionMaterial,
    avalanche_metric,
    derive_session,
    inject_masks,
    invert_quarter_round,
    keystream_block,
    quarter_round,
    session_parse,
    session_serialize,
    xor_stream,
)
from qrechacha.bench import compare_report, run_sweep
from qrechacha.cipher import MASK32, init_state, run_rounds
from qrechacha.generate import CorpusSpec, iter_sequences
from qrechacha.randtests import battery_run, bits_from_bytes
from qrechacha.randtests.tests import block_frequency, monobit, runs
from qrechacha.vector import keystream_bytes

import oracles
from gate_detail import paired_detail

BATTERY_SEED = bytes.fromhex("51c2a7e3" * 8)
PRESETS = (8, 12, 20)


def test_zero_qrn_equivalence():
    """QRE-ChaCha with all-zero session material is bitwise plain ChaCha:
    100 random (key, nonce, counter) triples x rounds {8, 12, 20}, checked
    against an independently written oracle, plus the published zero-key
    first-block vector.  Tolerance: exact."""
    p20 = CipherParams.from_bytes(bytes(32), bytes(12), 0, 20)
    assert keystream_block(p20, QrnSessionMaterial.zero(20)) == oracles.CHACHA20_ZERO_BLOCK

    rand = random.Random(0xACCE97)
    for trial in range(100):
        key = bytes(rand.getrandbits(8) for _ in range(32))
        nonce = bytes(rand.getrandbits(8) for _ in range(12))
        counter = rand.getrandbits(32) if trial % 2 else rand.getrandbits(8)
        for rounds in PRESETS:
            counter = min(counter, MASK32 - 4)
            params = CipherParams.from_bytes(key, nonce, counter, rounds)
            zero = QrnSessionMaterial.zero(rounds)
            want = oracles.chacha_stream_ref(key, nonce, counter, rounds, 128)
            assert keystream_block(params, zero) == want[:64]
            assert keystream_bytes(params, zero, 128) == want


def test_round_trip():
    """Encrypt-then-decrypt identity over 1000 random messages up to 1 MB
    across all round presets.  Tolerance: exact."""
    rng = np.random.default_rng(0xD0)
    rand = random.Random(1)
    sizes = [0, 1, 63, 64, 65, 127, 128, 1 << 20]
    sizes += [rand.randrange(1 << 20) for _ in range(1000 - len(sizes))]
    for i, size in enumerate(sizes):
        rounds = PRESETS[i % 3]
        params = CipherParams(
            tuple(int(w) for w in rng.integers(0, 1 << 32, 8)),
            tuple(int(w) for w in rng.integers(0, 1 << 32, 3)),
            int(rng.integers(0, 1 << 20)),
            rounds,
        )
        material = derive_session(DeterministicProvider(i), rounds)
        msg = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        ct = xor_stream(params, material, msg)
        assert bytes(xor_stream(params, material, bytes(ct))) == msg, f"size {size}"


def test_randomness_battery():
    """Desk-scale two-level battery: 100 QRE-ChaCha8 keystream sequences of
    10**6 bits; every implemented test row needs pass proportion >= 0.96
    and uniformity P >= 0.0001."""
    spec = CorpusSpec(BATTERY_SEED, 100, 1_000_000, rounds=8)
    sequences = (bits_from_bytes(raw, 1_000_000) for raw in iter_sequences(spec))
    report = battery_run(
        sequences, suite="both", alpha=0.01, alpha_uniformity=1e-4,
        origin=DeterministicProvider(BATTERY_SEED).origin,
    )
    assert report.sequences == 100
    for line in report.lines:
        assert line.applicable, (line.row_id, line.note)
        assert line.proportion >= 0.96, (line.row_id, line.proportion)
        assert line.uniformity_p >= 1e-4, (line.row_id, line.uniformity_p)
    assert report.passed


@pytest.mark.skipif(
    not os.environ.get("QRECHACHA_FULL_BATTERY"),
    reason="long-running mode: set QRECHACHA_FULL_BATTERY=1 for the "
           "1000-sequence scale",
)
def test_randomness_battery_full_scale():
    """Full-scale mode (1000 sequences x 10**6 bits): pass counts are judged
    against the s=1000 three-sigma band [0.9806, 0.9994]."""
    spec = CorpusSpec(BATTERY_SEED, 1000, 1_000_000, rounds=8)
    sequences = (bits_from_bytes(raw, 1_000_000) for raw in iter_sequences(spec))
    report = battery_run(
        sequences, suite="both", alpha=0.01, alpha_uniformity=1e-4,
        origin=DeterministicProvider(BATTERY_SEED).origin,
    )
    assert report.passed, report.to_text()


def test_statistical_micro_vectors():
    """Frozen micro-vectors, each within 1e-6 of the independently computed
    value: monobit(1011010101), block_frequency(0110011010, M=3),
    runs(1001101011)."""
    assert abs(monobit("1011010101").p_value - 0.527089) < 1e-6
    assert abs(block_frequency("0110011010", 3).p_value - 0.801252) < 1e-6
    assert abs(runs("1001101011").p_value - 0.147232) < 1e-6


def test_performance_ratios():
    """Throughput comparison on in-memory payloads of 10..50 MB: QRE-ChaCha8
    mean time within 10% of ChaCha8 at every size, and the ChaCha20/ChaCha8
    time ratio inside [1.7, 2.3] at every size.  Absolute seconds are
    machine-specific and not asserted."""
    results = run_sweep(
        [("qre-chacha", 8), ("chacha", 8), ("chacha", 20)],
        sizes_mb=(10, 20, 30, 40, 50),
        reps=9,
    )
    report = compare_report(results)
    by_size = {}
    for res in results:
        by_size.setdefault(res.payload_bytes, {})[(res.cipher, res.rounds)] = res
    for size, runs in sorted(by_size.items()):
        qre8 = runs[("qre-chacha", 8)]
        c8 = runs[("chacha", 8)]
        c20 = runs[("chacha", 20)]
        gap = abs(qre8.mean_seconds - c8.mean_seconds) / c8.mean_seconds
        ratio = c20.mean_seconds / c8.mean_seconds
        assert gap <= 0.10, (f"{size} bytes: qre8/chacha8 gap {gap:.3f}; "
                             f"{paired_detail('chacha8', c8, 'qre8', qre8)}")
        assert 1.7 <= ratio <= 2.3, (f"{size} bytes: chacha20/chacha8 ratio {ratio:.3f}; "
                                     f"{paired_detail('chacha8', c8, 'chacha20', c20)}")
    assert len(report.to_csv().splitlines()) == 16  # header + 5 sizes x 3 configs


def test_diffusion_avalanche():
    """Aggregate avalanche flip fraction at 8 rounds with 10**4 trials sits
    in [0.49, 0.51] for both zero and random session material."""
    params = CipherParams(key=(0,) * 8, nonce=(0,) * 3, counter=0, rounds=8)
    zero = avalanche_metric(params, None, ("key", 0), 10_000, rng=101)
    assert 0.49 <= zero.aggregate <= 0.51, zero.aggregate
    material = derive_session(DeterministicProvider(b"acceptance-avalanche"), 8)
    masked = avalanche_metric(params, material, ("key", 0), 10_000, rng=102)
    assert 0.49 <= masked.aggregate <= 0.51, masked.aggregate


def test_invariant_suites(tmp_path):
    """Exact structural invariants: quarter-round bijectivity over 10**5
    random inputs, injection involution, feedforward reconstruction,
    pool no-reuse under sequential takes, serialization round-trips."""
    rand = random.Random(0x1715)

    for _ in range(100_000):
        x = tuple(rand.getrandbits(32) for _ in range(4))
        assert invert_quarter_round(*quarter_round(*x)) == x

    for _ in range(1000):
        state = [rand.getrandbits(32) for _ in range(16)]
        mask = tuple(rand.getrandbits(32) for _ in range(4))
        assert inject_masks(inject_masks(state, mask), mask) == state

    for rounds in PRESETS:
        params = CipherParams(
            tuple(rand.getrandbits(32) for _ in range(8)),
            tuple(rand.getrandbits(32) for _ in range(3)),
            rand.getrandbits(32), rounds)
        material = derive_session(DeterministicProvider(rounds), rounds)
        x0 = init_state(params, material.const_mask)
        xr = run_rounds(x0, rounds, material.round_masks)
        z = np.frombuffer(keystream_block(params, material), dtype="<u4")
        assert [(int(a) - b) & MASK32 for a, b in zip(z, xr)] == x0

    payload = bytes(rand.getrandbits(8) for _ in range(512))
    pool = QrnPool.create(tmp_path / "acc.qrnp", payload)
    seen = b""
    for take in (1, 2, 64, 128, 64):
        seen += pool.take(take)
    assert seen == payload[: len(seen)]
    assert QrnPool(tmp_path / "acc.qrnp").cursor_bytes == len(seen)

    for rounds in PRESETS:
        material = derive_session(DeterministicProvider(rounds * 7), rounds)
        assert session_parse(session_serialize(material)) == material
