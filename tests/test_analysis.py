import hashlib

import numpy as np
import pytest

from qrechacha import (
    CipherParams,
    DiffSpec,
    MaskCountMismatch,
    ParamError,
    avalanche_metric,
    derive_session,
    empirical_diff_probability,
    DeterministicProvider,
    quarter_round,
)
from qrechacha.analysis import _admissible_mask_pairs
from qrechacha.cipher import MASK32, run_rounds

TOP = 0x80000000


def params_for(rounds, counter=0):
    return CipherParams(key=(0,) * 8, nonce=(0,) * 3, counter=counter, rounds=rounds)


class QueuedRng:
    """Replays queued draws, then defers to a real generator."""

    def __init__(self, queued):
        self.queued = list(queued)
        self.rng = np.random.default_rng(18)

    def integers(self, lo, hi, size=None, dtype=None):
        if self.queued:
            return np.asarray(self.queued.pop(0), dtype=dtype)
        return self.rng.integers(lo, hi, size=size, dtype=dtype)


def keeps_first_draw(mask_a, mask_b, state_a, state_b):
    """Whether _admissible_mask_pairs accepts (mask_a, mask_b) as drawn for
    one sample whose injected words are state_a[:4] and state_b[:4]."""
    column = lambda words: [[int(w)] for w in words[:4]]
    dx = np.array(column(state_a), dtype=np.uint32) ^ np.array(column(state_b), dtype=np.uint32)
    ma, mb = _admissible_mask_pairs(QueuedRng([column(mask_a), column(mask_b)]), dx, 1)
    assert ((ma ^ mb) != dx).all()
    return ma[:, 0].tolist() == list(mask_a) and mb[:, 0].tolist() == list(mask_b)


class TestInjectionConstraint:
    def test_zero_difference_violates(self):
        state = list(range(16))
        mask = (9, 8, 7, 6)
        assert keeps_first_draw(mask, mask, state, state) is False

    def test_partial_difference_still_violates(self):
        state = list(range(16))
        mask_a = (1, 2, 3, 4)
        mask_b = (0, 2, 3, 4)  # positions 1..3 have dq = 0 = dx
        assert keeps_first_draw(mask_a, mask_b, state, state) is False

    def test_all_positions_differ(self):
        state_a = [5, 6, 7, 8] + [0] * 12
        state_b = [0] * 16
        assert keeps_first_draw((1, 2, 3, 4), (0, 0, 0, 0), state_a, state_b) is True

    def test_swap_symmetry(self):
        rng = np.random.default_rng(8)
        kept = 0
        for _ in range(50):
            ma, mb = rng.integers(0, 16, 4).tolist(), rng.integers(0, 16, 4).tolist()
            sa, sb = rng.integers(0, 16, 16), rng.integers(0, 16, 16)
            kept += keeps_first_draw(ma, mb, sa, sb)
            assert keeps_first_draw(ma, mb, sa, sb) == keeps_first_draw(mb, ma, sb, sa)
        assert 0 < kept < 50  # both verdicts occur


class TestAvalanche:
    def test_trials_floor(self):
        with pytest.raises(ParamError):
            avalanche_metric(params_for(8), None, ("key", 0), 999)

    def test_bad_targets(self):
        with pytest.raises(ParamError):
            avalanche_metric(params_for(8), None, ("tweak", 0), 1000)
        with pytest.raises(ParamError):
            avalanche_metric(params_for(8), None, ("counter", 32), 1000)

    def test_well_diffused_at_8_rounds(self):
        rep = avalanche_metric(params_for(8), None, ("key", 17), 2000, rng=1)
        assert rep.per_bit.shape == (512,)
        assert 0.47 < rep.aggregate < 0.53
        assert rep.half_width == pytest.approx(3 * (0.25 / 2000) ** 0.5)

    def test_incomplete_diffusion_at_2_rounds(self):
        rep = avalanche_metric(params_for(2), None, ("key", 17), 2000, rng=2)
        assert np.abs(rep.per_bit - 0.5).max() > 0.2  # visibly structured

    def test_nonce_and_counter_targets(self):
        for target in (("nonce", 95), ("counter", 31)):
            rep = avalanche_metric(params_for(8), None, target, 1000, rng=3)
            assert 0.45 < rep.aggregate < 0.55

    def test_material_does_not_degrade(self):
        mat = derive_session(DeterministicProvider(b"avalanche"), 8)
        a = avalanche_metric(params_for(8), None, ("key", 5), 4000, rng=4)
        b = avalanche_metric(params_for(8), mat, ("key", 5), 4000, rng=5)
        assert abs(a.aggregate - b.aggregate) <= a.half_width + b.half_width

    def test_material_round_count_must_match(self):
        # 20-round material at 8 rounds and 4-round material at 8 rounds
        for rounds in (20, 4):
            mat = derive_session(DeterministicProvider(b"mismatch"), rounds)
            with pytest.raises(MaskCountMismatch):
                avalanche_metric(params_for(8), mat, ("key", 0), 1000, rng=7)

    def test_report_dict(self):
        rep = avalanche_metric(params_for(8), None, ("key", 0), 1000, rng=6)
        doc = rep.to_dict()
        assert doc["kind"] == "avalanche"
        assert len(doc["per_bit"]) == 512

    @pytest.mark.parametrize("rounds, with_material, segment, digest", [
    (8, False, "key", "8ebb3bef731f54203b0bdb973bef36761469645159c4bd3eee3f7ed1b54d2d13"),
    (8, False, "nonce", "4444f2c56da679079d049ec41043eca8c892fb53c7cee18326698f641334662e"),
    (8, False, "counter", "0011cc3c7ef00f3f9bf09b246b7bf121125cc11c39853301680c69fc6fb3e421"),
    (8, True, "key", "61e6335082bfe0344627cf5eb57c2ddf43a3fe1975588e12fb1d90a62f861ed0"),
    (8, True, "nonce", "b94e71c7c9fef2a788bdd5865e4e4abbb6e25e321b1c954e6186b789fb97e915"),
    (8, True, "counter", "26575e99652dd0922ae0c96d4f384f64b578ec549bd20adf430962c8fdc03883"),
    (20, False, "key", "fb010219c0937298df26ae03bcae1152fbaf5918a0e69d58fc3886c0a58cb7b5"),
    (20, False, "nonce", "29b24bf04dfd7601240c75130feb7f3ff36a044f1c70169bc26995e31af3dcf4"),
    (20, False, "counter", "d3ddac5852ce451c604297984d187d920296dc58bee775115d0e41ba57241ea4"),
    (20, True, "key", "ce76641c26f281b9aa5ada7deec1a1978157502e085d7c65a37f9fd94273faa5"),
    (20, True, "nonce", "4b8fd52e1910a86640e9390b08e789b0f27b12b4bd29daa9eb2953c80f485851"),
    (20, True, "counter", "a0645db782e872d68046a00bcc61716e6604c8fb3b7d8a0912b201f8bb667382"),
    ])
    def test_per_bit_pinned(self, rounds, with_material, segment, digest):
        # per_bit as the two-feedforward, 32-pass bit loop computed it;
        # 5000 trials span a full 4096-trial batch and a partial one
        mat = derive_session(DeterministicProvider(b"avalanche-pin"), rounds) if with_material else None
        bit = {"key": 200, "nonce": 70, "counter": 31}[segment]
        rep = avalanche_metric(params_for(rounds, counter=7), mat, (segment, bit), 5000, rng=11)
        assert hashlib.sha256(rep.per_bit.tobytes()).hexdigest() == digest


class TestTopBitLinearity:
    def test_addition_commutes_with_top_bit_flip(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            x, y = int(rng.integers(0, 1 << 32)), int(rng.integers(0, 1 << 32))
            assert ((x ^ TOP) + y) & MASK32 == (((x + y) & MASK32) ^ TOP)

    def test_deterministic_quarter_round_trail(self):
        # top-bit differences keep every addition linear: this input
        # difference propagates to (TOP, 0, 0, 0) with probability one
        rng = np.random.default_rng(12)
        din = (TOP, 0, TOP, 0x80008000)
        dout = (TOP, 0, 0, 0)
        for _ in range(10_000):
            x = tuple(int(v) for v in rng.integers(0, 1 << 32, 4))
            y = tuple(a ^ d for a, d in zip(x, din))
            got = tuple(a ^ b for a, b in zip(quarter_round(*x), quarter_round(*y)))
            assert got == dout


# two-round differential built from the probability-one quarter-round
# trail in column 0; the output difference is its carry-free (all carry
# bits zero) continuation through the diagonal round, modal p ~ 2**-5.9
DIN_2R = (TOP, 0, 0, 0, 0, 0, 0, 0, TOP, 0, 0, 0, 0x80008000, 0, 0, 0)
DOUT_2R = (0x88000000, 0, 0, 0, 0, 0x40404404, 0, 0,
           0, 0, 0x00808088, 0, 0, 0, 0, 0x00800088)


class TestDiffProbability:
    def test_validation(self):
        with pytest.raises(ParamError):
            DiffSpec((0,) * 16, (0,) * 16, 2)  # zero input difference
        with pytest.raises(ParamError):
            DiffSpec((1,) + (0,) * 15, (0,) * 16, 3)  # odd rounds
        spec = DiffSpec((1,) + (0,) * 15, (0,) * 16, 2)
        with pytest.raises(ParamError):
            empirical_diff_probability(spec, 9_999)
        with pytest.raises(ParamError):
            empirical_diff_probability(spec, 10_000, qrn_mode="other")
        with pytest.raises(ParamError):
            empirical_diff_probability(DiffSpec((1,) + (0,) * 15, (0,) * 16, 6), 10_000)

    def test_material_round_count_must_match(self):
        mat = derive_session(DeterministicProvider(b"mismatch"), 4)
        with pytest.raises(MaskCountMismatch):
            empirical_diff_probability(DiffSpec(DIN_2R, DOUT_2R, 2), 10_000, material=mat)

    def test_witness_construction(self):
        # the target difference occurs with probability well above
        # 1/samples, so the estimate must count at least one witness pair
        est = empirical_diff_probability(DiffSpec(DIN_2R, DOUT_2R, 2), 10_000, rng=77)
        assert est.probability >= 1.0 / est.samples
        assert 0.005 < est.probability < 0.05

    def test_zero_material_equals_plain_propagation(self):
        # all-zero masks are injected but cancel: the estimate matches the
        # plain run exactly under the same sample stream
        from qrechacha import QrnSessionMaterial

        spec = DiffSpec(DIN_2R, DOUT_2R, 2)
        plain = empirical_diff_probability(spec, 20_000, rng=5)
        zeroed = empirical_diff_probability(
            spec, 20_000, qrn_mode="fixed", material=QrnSessionMaterial.zero(2), rng=5)
        assert plain.hits == zeroed.hits

    def test_pair_propagation_matches_scalar(self):
        # one concrete pair propagated by the scalar core reproduces the
        # frozen output difference
        rng = np.random.default_rng(13)
        hits = 0
        for _ in range(500):
            x = [int(v) for v in rng.integers(0, 1 << 32, 16)]
            y = [a ^ d for a, d in zip(x, DIN_2R)]
            got = tuple(a ^ b for a, b in zip(run_rounds(x, 2), run_rounds(y, 2)))
            hits += got == DOUT_2R
        assert hits > 0

    def test_fixed_material_mode(self):
        mat = derive_session(DeterministicProvider(b"diff"), 2)
        spec = DiffSpec(DIN_2R, DOUT_2R, 2)
        est = empirical_diff_probability(spec, 10_000, qrn_mode="fixed", material=mat, rng=16)
        assert est.qrn_mode == "fixed"
        assert 0.0 <= est.probability <= 1.0

    def test_resampled_mode_runs(self):
        spec = DiffSpec(DIN_2R, DOUT_2R, 2)
        est = empirical_diff_probability(spec, 10_000, qrn_mode="resampled", rng=17)
        assert est.qrn_mode == "resampled"
        assert 0.0 <= est.probability <= 1.0

    def test_admissible_mask_rejection(self):
        dx = np.array([[7], [0], [0], [0]], dtype=np.uint32)
        # first draw collides at word 0 (7 ^ 0 == dx), forcing one redraw
        bad_a = [[7], [1], [2], [3]]
        bad_b = [[0], [9], [9], [9]]
        rng = QueuedRng([bad_a, bad_b])
        ma, mb = _admissible_mask_pairs(rng, dx, 1)
        assert ((ma ^ mb) != dx).all()

    def test_convergence_quarter_samples_half_width(self):
        # estimator error follows the 1/sqrt(samples) law: quadrupling the
        # sample count halves both the reported half-width and the spread
        # of repeated estimates
        spec = DiffSpec(DIN_2R, DOUT_2R, 2)
        small = [empirical_diff_probability(spec, 10_000, rng=s) for s in range(20)]
        large = [empirical_diff_probability(spec, 40_000, rng=s) for s in range(20)]
        hw_ratio = np.mean([e.half_width for e in small]) / np.mean(
            [e.half_width for e in large])
        assert 1.8 < hw_ratio < 2.2
        sd_small = np.std([e.probability for e in small])
        sd_large = np.std([e.probability for e in large])
        assert sd_large < sd_small
        assert 1.3 < sd_small / sd_large < 3.2  # ~2 under the sqrt law