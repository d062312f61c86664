import numpy as np
import pytest

from qrechacha import ParamTooLarge, SequenceTooShort
from qrechacha.randtests import tests as stattests
from qrechacha.randtests import (
    approximate_entropy,
    as_bits,
    autocorrelation,
    binary_derivation,
    bits_from_bytes,
    block_frequency,
    bytes_from_bits,
    cumulative_sums,
    longest_run_of_ones,
    monobit,
    poker,
    run_distribution,
    runs,
    serial,
)

import oracles

RNG = np.random.default_rng(20240917)
MEGABIT = RNG.integers(0, 2, size=1_000_000, dtype=np.uint8)
MEGABIT_LIST = MEGABIT.tolist()


def complement(bits):
    return as_bits(bits) ^ 1


class TestBitHelpers:
    def test_string_coercion(self):
        assert as_bits("1011").tolist() == [1, 0, 1, 1]

    def test_pack_unpack_msb_first(self):
        bits = as_bits("10000001" + "0100")
        packed = bytes_from_bits(bits)
        assert packed == bytes([0b10000001, 0b01000000])
        assert bits_from_bytes(packed, 12).tolist() == bits.tolist()

    def test_invalid_values(self):
        with pytest.raises(Exception):
            as_bits([0, 1, 2])


class TestMonobit:
    def test_spec_vector(self):
        assert abs(monobit("1011010101").p_value - 0.527089256866) < 1e-9

    def test_all_ones_fails(self):
        res = monobit(np.ones(1000, dtype=np.uint8))
        assert res.p_value < 1e-10
        assert not res.passed

    def test_complement_invariance(self):
        bits = RNG.integers(0, 2, 4096, dtype=np.uint8)
        assert monobit(bits).p_value == monobit(complement(bits)).p_value

    def test_megabit_matches_oracle(self):
        assert abs(monobit(MEGABIT).p_value - oracles.oracle_monobit(MEGABIT_LIST)) < 1e-6


class TestBlockFrequency:
    def test_spec_vector(self):
        res = block_frequency("0110011010", 3)
        assert abs(res.statistic - 1.0) < 1e-12
        assert abs(res.p_value - 0.801251956901) < 1e-9

    def test_balanced_blocks(self):
        assert block_frequency("0101" * 256, 4).p_value == 1.0

    def test_all_zeros(self):
        assert block_frequency(np.zeros(10_000, dtype=np.uint8), 100).p_value < 1e-12

    def test_megabit_matches_oracle(self):
        got = block_frequency(MEGABIT, 10_000).p_value
        assert abs(got - oracles.oracle_block_frequency(MEGABIT_LIST, 10_000)) < 1e-6


class TestRuns:
    def test_spec_vector(self):
        assert abs(runs("1001101011").p_value - 0.147232255364) < 1e-9

    def test_alternating_fails(self):
        res = runs(as_bits("01" * 500))
        assert res.applicable
        assert res.p_value < 1e-10

    def test_all_zeros_not_applicable(self):
        res = runs(np.zeros(1000, dtype=np.uint8))
        assert not res.applicable
        assert res.p_value == 0.0
        assert not res.passed

    def test_megabit_matches_oracle(self):
        assert abs(runs(MEGABIT).p_value - oracles.oracle_runs(MEGABIT_LIST)) < 1e-6


class TestLongestRun:
    def test_too_short(self):
        with pytest.raises(SequenceTooShort):
            longest_run_of_ones(np.zeros(127, dtype=np.uint8))

    def test_all_ones_extreme(self):
        assert longest_run_of_ones(np.ones(1024, dtype=np.uint8)).p_value < 1e-12

    def test_nist_example_128(self):
        eps = ("11001100000101010110110001001100111000000000001001"
               "00110101010001000100111101011010000000110101111100"
               "1100111001101101100010110010")
        assert abs(longest_run_of_ones(eps).p_value - 0.180609) < 1e-6

    def test_megabit_matches_oracle(self):
        got = longest_run_of_ones(MEGABIT).p_value
        assert abs(got - oracles.oracle_longest_run(MEGABIT_LIST)) < 1e-6

    @pytest.mark.parametrize("n", [128, 1000, 6272, 20_003, 750_000])
    @pytest.mark.parametrize("kind", ["random", "ones", "zeros", "short_runs", "long_runs"])
    def test_class_counts_match_oracle(self, n, kind):
        # every block table (M = 8, 128, 10000), full and empty blocks, and
        # runs of ones that cross block edges, shorter and longer than a block
        bits = {
            "random": RNG.integers(0, 2, n, dtype=np.uint8),
            "ones": np.ones(n, dtype=np.uint8),
            "zeros": np.zeros(n, dtype=np.uint8),
            "short_runs": (np.arange(n) % 13 != 5).astype(np.uint8),
            "long_runs": (np.arange(n) % 10_007 != 0).astype(np.uint8),
        }[kind]
        chi, _ = oracles.oracle_longest_run_chi(bits.tolist())
        assert longest_run_of_ones(bits).statistic == pytest.approx(chi, rel=1e-12, abs=1e-12)

    def test_zeros_variant_via_complement(self):
        bits = RNG.integers(0, 2, 20_000, dtype=np.uint8)
        got = longest_run_of_ones(complement(bits)).p_value
        assert abs(got - oracles.oracle_longest_run([1 - b for b in bits.tolist()])) < 1e-6


class TestCumulativeSums:
    def test_too_short(self):
        with pytest.raises(SequenceTooShort):
            cumulative_sums("10" * 40)

    def test_all_ones_extreme(self):
        assert cumulative_sums(np.ones(500, dtype=np.uint8)).p_value < 1e-12

    def test_palindrome_forward_equals_backward(self):
        half = RNG.integers(0, 2, 300, dtype=np.uint8)
        pal = np.concatenate([half, half[::-1]])
        fwd = cumulative_sums(pal, backward=False).p_value
        bwd = cumulative_sums(pal, backward=True).p_value
        assert fwd == bwd

    def test_nist_example_scaled(self):
        # NIST worked example sequence, tiled to meet the length floor,
        # then checked against the independent oracle
        bits = as_bits("1011010111" * 10)
        got = cumulative_sums(bits).p_value
        assert abs(got - oracles.oracle_cusum(bits.tolist())) < 1e-9

    @pytest.mark.parametrize("text", ["1" * 60 + "0" * 40, "0" * 40 + "1" * 60,
                                      "1" * 60 + "01" * 20, "0" * 60 + "10" * 20, "1" * 100])
    def test_backward_walk_from_forward_sums(self, text):
        # backward partial sums are S_n - S_j for j = 0..n-1; in the last
        # three the extreme is at j = 0, which only the S_0 = 0 term reaches
        bits = as_bits(text)
        steps = bits.astype(np.int64) * 2 - 1
        for backward in (False, True):
            res = cumulative_sums(bits, backward=backward)
            walk = np.cumsum(steps[::-1] if backward else steps)
            assert res.statistic == float(np.abs(walk).max())
            want = oracles.oracle_cusum(bits.tolist(), backward=backward)
            assert abs(res.p_value - want) < 1e-9

    def test_megabit_statistic_equals_reversed_walk(self):
        steps = MEGABIT.astype(np.int64) * 2 - 1
        for backward in (False, True):
            walk = np.cumsum(steps[::-1] if backward else steps)
            assert cumulative_sums(MEGABIT, backward=backward).statistic == float(
                np.abs(walk).max())

    def test_megabit_matches_oracle_both_directions(self):
        for backward in (False, True):
            got = cumulative_sums(MEGABIT, backward=backward).p_value
            want = oracles.oracle_cusum(MEGABIT_LIST, backward=backward)
            assert abs(got - want) < 1e-6


class TestApproximateEntropy:
    def test_nist_example(self):
        res = approximate_entropy("0100110101", 3)
        assert abs(res.p_value - 0.261961104882) < 1e-9

    def test_all_zeros(self):
        res = approximate_entropy(np.zeros(2048, dtype=np.uint8), 2)
        assert res.params["apen"] == pytest.approx(0.0, abs=1e-12)
        assert res.p_value < 1e-12

    def test_de_bruijn_uniform(self):
        m = 4
        bits = oracles.de_bruijn(m + 1)
        res = approximate_entropy(bits, m)
        assert res.p_value > 1 - 1e-9
        assert abs(res.params["apen"] - np.log(2)) < 1e-12

    def test_param_too_large(self):
        with pytest.raises(ParamTooLarge):
            approximate_entropy("10110100", 3)

    def test_megabit_matches_oracle(self):
        for m in (2, 5):
            got = approximate_entropy(MEGABIT, m).p_value
            want = oracles.oracle_approximate_entropy(MEGABIT_LIST[:100_000], m)
            check = approximate_entropy(MEGABIT[:100_000], m).p_value
            assert abs(check - want) < 1e-6
            assert 0.0 <= got <= 1.0


class TestSerial:
    def test_de_bruijn_perfect_equidistribution(self):
        m = 5
        bits = oracles.de_bruijn(m) * 8  # tile the cycle; counts stay uniform
        r1, r2 = serial(bits, m)
        assert r1.statistic == 0.0
        assert r1.p_value == 1.0
        assert r2.p_value == 1.0

    def test_all_zeros(self):
        r1, _ = serial(np.zeros(4096, dtype=np.uint8), 3)
        assert r1.p_value < 1e-12

    def test_param_too_large(self):
        with pytest.raises(ParamTooLarge):
            serial("10110100" * 2, 3)

    def test_hundred_kilobit_matches_oracle(self):
        bits = MEGABIT[:100_000]
        r1, r2 = serial(bits, 5)
        w1, w2 = oracles.oracle_serial(bits.tolist(), 5)
        assert abs(r1.p_value - w1) < 1e-6
        assert abs(r2.p_value - w2) < 1e-6


def reference_counts(bits, m):
    """Cyclic m-window counts by m int64 shift/OR passes over the bits."""
    n = bits.size
    ext = np.concatenate((bits, bits[: m - 1])) if m > 1 else bits
    acc = np.zeros(n, dtype=np.int64)
    for j in range(m):
        acc = (acc << 1) | ext[j : j + n]
    return np.bincount(acc, minlength=1 << m)


class TestWindowCounts:
    @pytest.mark.parametrize("n", [1, 5, 7, 17, 18, 31, 1000, 20_001])
    def test_packed_pass_matches_shift_loop(self, n):
        bits = RNG.integers(0, 2, n, dtype=np.uint8)
        for m in range(1, 17):
            if n < m - 1:
                continue
            got = stattests._pattern_counts(bits, m)
            assert got.dtype == np.int64
            assert np.array_equal(got, reference_counts(bits, m)), (n, m)

    def test_length_one_short_of_window(self):
        # n = m - 1: the cyclic extension is the sequence twice over
        for m in range(2, 17):
            bits = RNG.integers(0, 2, m - 1, dtype=np.uint8)
            assert np.array_equal(stattests._pattern_counts(bits, m),
                                  reference_counts(bits, m)), m

    def test_wide_windows(self):
        bits = RNG.integers(0, 2, 3_000_001, dtype=np.uint8)
        for m in (17, 20):
            assert np.array_equal(stattests._pattern_counts(bits, m),
                                  reference_counts(bits, m)), m

    @pytest.mark.parametrize("n", [3, 9, 64, 257])
    def test_matches_oracle_counts(self, n):
        bits = RNG.integers(0, 2, n, dtype=np.uint8)
        for m in range(1, min(7, n + 2)):
            want = np.zeros(1 << m, dtype=np.int64)
            for pattern, count in oracles._cyclic_counts(bits.tolist(), m).items():
                want[int("".join(map(str, pattern)), 2)] = count
            assert np.array_equal(stattests._pattern_counts(bits, m), want), (n, m)

    @pytest.mark.parametrize("n", [18, 1000, 20_001])
    def test_fold_identity(self, n):
        bits = RNG.integers(0, 2, n, dtype=np.uint8)
        memo = stattests._Sequence(bits, widest=16)
        for m in range(16, 1, -1):
            wide = stattests._pattern_counts(bits, m)
            assert np.array_equal(wide.reshape(-1, 2).sum(axis=1),
                                  stattests._pattern_counts(bits, m - 1)), (n, m)
            assert np.array_equal(memo.window_counts(m), wide), (n, m)


class TestPoker:
    def test_uniform_occupancy(self):
        # every 4-bit pattern exactly once: 64 bits, V = 0
        bits = []
        for v in range(16):
            bits += [(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1]
        bits = bits * 5  # length floor: need >= 5 * 2**m blocks
        res = poker(bits, 4)
        assert res.statistic == pytest.approx(0.0, abs=1e-9)
        assert res.p_value == 1.0

    def test_all_zeros(self):
        assert poker(np.zeros(400, dtype=np.uint8), 4).p_value < 1e-12

    def test_complement_invariance(self):
        bits = RNG.integers(0, 2, 4096, dtype=np.uint8)
        a = poker(bits, 4)
        b = poker(complement(bits), 4)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-9)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(SequenceTooShort):
            poker(np.zeros(100, dtype=np.uint8), 8)

    def test_megabit_matches_oracle(self):
        for m in (4, 8):
            got = poker(MEGABIT, m).p_value
            assert abs(got - oracles.oracle_poker(MEGABIT_LIST, m)) < 1e-6


class TestBinaryDerivation:
    def test_all_zeros(self):
        assert binary_derivation(np.zeros(500, dtype=np.uint8), 3).p_value < 1  # computes
        assert binary_derivation(np.zeros(500, dtype=np.uint8), 3).p_value < 1e-12

    def test_k_zero_is_monobit(self):
        bits = RNG.integers(0, 2, 1000, dtype=np.uint8)
        assert binary_derivation(bits, 0).p_value == monobit(bits).p_value

    def test_reference_128_matches_oracle(self):
        bits = RNG.integers(0, 2, 128, dtype=np.uint8)
        got = binary_derivation(bits, 3).p_value
        assert abs(got - oracles.oracle_binary_derivation(bits.tolist(), 3)) < 1e-6

    def test_megabit_matches_oracle(self):
        for k in (3, 7):
            got = binary_derivation(MEGABIT, k).p_value
            assert abs(got - oracles.oracle_binary_derivation(MEGABIT_LIST, k)) < 1e-6

    def test_too_short(self):
        with pytest.raises(SequenceTooShort):
            binary_derivation(np.zeros(100, dtype=np.uint8), 3)


class TestAutocorrelation:
    def test_all_zeros_perfect_correlation(self):
        res = autocorrelation(np.zeros(101, dtype=np.uint8), 1)
        assert res.params["A"] == 0
        assert abs(abs(res.statistic) - 10.0) < 1e-12
        assert res.p_value < 1e-12

    def test_alternating_anticorrelation(self):
        res = autocorrelation(as_bits("01" * 500), 1)
        assert res.params["A"] == 999
        assert res.p_value < 1e-12

    def test_complement_invariance(self):
        bits = RNG.integers(0, 2, 2000, dtype=np.uint8)
        for d in (1, 2, 8, 16):
            a = autocorrelation(bits, d)
            b = autocorrelation(complement(bits), d)
            assert a.params["A"] == b.params["A"]
            assert a.p_value == b.p_value

    def test_megabit_matches_oracle(self):
        for d in (1, 16):
            got = autocorrelation(MEGABIT, d).p_value
            want = oracles.oracle_autocorrelation(MEGABIT_LIST, d)
            assert abs(got - want) < 1e-6


class TestRunDistribution:
    def test_alternating_extreme(self):
        assert run_distribution(as_bits("01" * 500)).p_value < 1e-12

    def test_complement_invariance(self):
        bits = RNG.integers(0, 2, 5000, dtype=np.uint8)
        a = run_distribution(bits)
        b = run_distribution(complement(bits))
        assert a.statistic == pytest.approx(b.statistic, abs=1e-9)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(SequenceTooShort):
            run_distribution(np.zeros(99, dtype=np.uint8))

    def test_megabit_matches_oracle(self):
        got = run_distribution(MEGABIT)
        assert got.params["e"] == 15
        assert abs(got.p_value - oracles.oracle_run_distribution(MEGABIT_LIST)) < 1e-6


def test_all_p_values_in_unit_interval():
    cases = [
        lambda b: [monobit(b)],
        lambda b: [block_frequency(b, 128)],
        lambda b: [runs(b)],
        lambda b: [longest_run_of_ones(b)],
        lambda b: [cumulative_sums(b)],
        lambda b: [approximate_entropy(b, 2)],
        lambda b: list(serial(b, 3)),
        lambda b: [poker(b, 4)],
        lambda b: [binary_derivation(b, 3)],
        lambda b: [autocorrelation(b, 2)],
        lambda b: [run_distribution(b)],
    ]
    for trial in range(20):
        bits = RNG.integers(0, 2, 2048, dtype=np.uint8)
        for case in cases:
            for res in case(bits):
                assert 0.0 <= res.p_value <= 1.0
                assert res.passed == (res.p_value >= res.alpha)
