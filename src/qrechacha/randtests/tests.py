"""Statistical randomness tests.

NIST SP 800-22 subset: frequency, block frequency, runs, longest run of
ones, cumulative sums, approximate entropy, serial.  GM/T 0005-2021
additions: poker, binary derivation, autocorrelation, run distribution.

Each test maps one bit sequence to a TestResult holding the statistic and
its P-value; `passed` is P >= alpha.  A failed runs-test prerequisite is
reported as a not-applicable result with P = 0 rather than an exception.

Every test reads its sequence through a private per-sequence memo
(`_Sequence`): the bits, validated once; the cyclic m-bit window counts that
serial and approximate entropy read, from one packed-byte pass at the widest
window asked for and exact folds below it (cyclic (m-1)-windows are the
prefixes of cyclic m-windows, NIST SP 800-22 Rev. 1a, sections 2.11-2.12);
and the partial sums that both cumulative-sums directions read.  A plain
sequence gets a fresh memo per call; the battery builds one per sequence,
sized to the widest window of its plan, and passes it as `seq`, so
standalone and battery calls run the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

from ..errors import ParamError, ParamTooLarge, SequenceTooShort
from .bits import as_bits
from .special import erfc, igamc

ALPHA_DEFAULT = 0.01

# longest-run class tables: (min n, block length M, lowest class, highest
# class, class probabilities).  Runs below the lowest class are pooled into
# it; likewise above the highest.
_LONGEST_RUN_TABLES = (
    (750000, 10000, 10, 16, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6272, 128, 4, 9, (0.1174035788, 0.242955959, 0.249363483, 0.17517706, 0.102701071, 0.112398847)),
    (128, 8, 1, 4, (0.21484375, 0.3671875, 0.23046875, 0.1875)),
)


@dataclass(frozen=True)
class TestResult:
    test_id: str
    params: dict = field(default_factory=dict)
    statistic: float = 0.0
    p_value: float = 0.0
    alpha: float = ALPHA_DEFAULT
    applicable: bool = True
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.p_value >= self.alpha

    def to_dict(self) -> dict:
        return {
            "test_id": self.test_id,
            "params": dict(self.params),
            "statistic": self.statistic,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "pass": self.passed,
            "applicable": self.applicable,
            "note": self.note,
        }


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, p))


def _pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of the n cyclic m-bit windows (sequence extended by m-1 bits).

    One pass over packed bytes: the window starting at bit 8b + r is bits
    r..r+m-1 of the big-endian 64-bit word starting at byte b, so eight
    shifted, masked views of one word array cover every window.  64-bit
    words hold any m <= 57, far past the 2**m counts that fit in memory.
    """
    n = bits.size
    starts = (n + 7) // 8
    packed = np.zeros(starts + 7, dtype=np.uint8)
    raw = np.packbits(np.concatenate((bits, bits[: m - 1])))
    packed[: raw.size] = raw
    words = np.ndarray((starts,), dtype=">i8", buffer=packed, strides=(1,)).astype(np.int64)
    mask = (1 << m) - 1
    counts = np.zeros(1 << m, dtype=np.int64)
    for r in range(min(8, n)):
        window = (words[: (n - r + 7) // 8] >> (64 - r - m)) & mask
        counts += np.bincount(window, minlength=1 << m)
    return counts


class _Sequence:
    """Per-sequence memo shared by every test run on one sequence.

    `widest` is the largest window any later caller will ask for; the one
    window pass runs at that width so smaller ones are folds of it.
    """

    __slots__ = ("bits", "n", "_widest", "_windows", "_sums")

    def __init__(self, bits: np.ndarray, widest: int = 0):
        self.bits = bits
        self.n = bits.size
        self._widest = widest
        self._windows: dict[int, np.ndarray] = {}
        self._sums = None

    def window_counts(self, m: int) -> np.ndarray:
        """Counts of the n cyclic m-bit windows, indexed by MSB-first value."""
        if m > max(self._windows, default=0):
            top = max(m, self._widest)
            self._windows = {top: _pattern_counts(self.bits, top)}
        while m not in self._windows:
            low = min(self._windows)
            self._windows[low - 1] = self._windows[low].reshape(-1, 2).sum(axis=1)
        return self._windows[m]

    def partial_sums(self) -> np.ndarray:
        """S_1..S_n of the +/-1 mapping (|S_k| <= n, so 32 bits while n fits)."""
        if self._sums is None:
            sums = self.bits.astype(np.int32 if self.n < 2**31 else np.int64)
            sums *= 2
            sums -= 1
            self._sums = np.cumsum(sums, out=sums)  # in place: one n-word array
        return self._sums


def _memo(seq) -> _Sequence:
    return seq if isinstance(seq, _Sequence) else _Sequence(as_bits(seq))


def monobit(seq, alpha: float = ALPHA_DEFAULT) -> TestResult:
    """Frequency test: S = #ones - #zeros, P = erfc(|S| / sqrt(2n))."""
    bits = _memo(seq).bits
    n = bits.size
    s = 2 * int(bits.sum()) - n
    p = erfc(abs(s) / math.sqrt(2.0 * n))
    return TestResult("frequency", {"n": n}, float(s), p, alpha)


def block_frequency(seq, block_len: int, alpha: float = ALPHA_DEFAULT) -> TestResult:
    """Chi-square of per-block one-proportions; trailing bits are discarded."""
    bits = _memo(seq).bits
    if block_len < 1:
        raise ParamError("block_len must be >= 1")
    nblocks = bits.size // block_len
    if nblocks < 1:
        raise SequenceTooShort(f"need at least one {block_len}-bit block")
    pis = bits[: nblocks * block_len].reshape(nblocks, block_len).mean(axis=1)
    chi = 4.0 * block_len * float(((pis - 0.5) ** 2).sum())
    p = igamc(nblocks / 2.0, chi / 2.0)
    return TestResult("block_frequency", {"M": block_len, "N": nblocks}, chi, p, alpha)


def runs(seq, alpha: float = ALPHA_DEFAULT) -> TestResult:
    """Total-runs test.

    Prerequisite |pi - 1/2| < 2/sqrt(n); when it fails the result is marked
    not applicable with P = 0 (counted as a failure downstream).
    """
    bits = _memo(seq).bits
    n = bits.size
    pi = float(bits.mean())
    if pi in (0.0, 1.0) or abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return TestResult(
            "runs", {"n": n, "pi": pi}, 0.0, 0.0, alpha,
            applicable=False, note="frequency prerequisite failed",
        )
    v = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
    p = erfc(abs(v - 2.0 * n * pi * (1 - pi)) / (2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)))
    return TestResult("runs", {"n": n, "pi": pi}, float(v), p, alpha)


def _block_longest_ones(block: np.ndarray) -> int:
    zpos = np.flatnonzero(np.concatenate(([0], block, [0])) == 0)
    return int((np.diff(zpos) - 1).max())


def longest_run_of_ones(seq, alpha: float = ALPHA_DEFAULT) -> TestResult:
    """Longest run of ones per block, chi-squared against tabulated classes.

    Block length and classes depend on n (M = 8 / 128 / 10000).  For the
    max-run-of-zeros variant feed the complemented sequence.
    """
    bits = _memo(seq).bits
    n = bits.size
    if n < 128:
        raise SequenceTooShort(f"longest-run test needs n >= 128, got {n}")
    for min_n, m, lo, hi, pi in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    nblocks = n // m
    blocks = bits[: nblocks * m].reshape(nblocks, m)
    longest = np.fromiter(
        (_block_longest_ones(blocks[i]) for i in range(nblocks)), dtype=np.int64, count=nblocks
    )
    classes = np.clip(longest, lo, hi) - lo
    nu = np.bincount(classes, minlength=hi - lo + 1).astype(np.float64)
    expected = nblocks * np.asarray(pi)
    chi = float(((nu - expected) ** 2 / expected).sum())
    p = igamc((len(pi) - 1) / 2.0, chi / 2.0)
    return TestResult("longest_run_of_ones", {"M": m, "N": nblocks}, chi, p, alpha)


def cumulative_sums(seq, backward: bool = False, alpha: float = ALPHA_DEFAULT) -> TestResult:
    """Maximum partial sum of the +/-1 mapping, two-sided normal series.

    With S_0 = 0 and S_k the forward partial sums, the backward partial sums
    are S_n - S_j, so both directions read the one forward array.
    """
    seq = _memo(seq)
    n = seq.n
    if n < 100:
        raise SequenceTooShort(f"cumulative-sums test needs n >= 100, got {n}")
    sums = seq.partial_sums()
    if backward:
        end, head = int(sums[-1]), sums[:-1]
        z = max(end - min(0, int(head.min())), max(0, int(head.max())) - end)
    else:
        z = max(int(sums.max()), -int(sums.min()))
    sn = math.sqrt(n)
    ratio = Fraction(n, z)
    lo1, hi = math.ceil((1 - ratio) / 4), math.floor((ratio - 1) / 4)
    lo2 = math.ceil((-ratio - 3) / 4)
    k1 = np.arange(lo1, hi + 1, dtype=np.float64)
    k2 = np.arange(lo2, hi + 1, dtype=np.float64)
    sum1 = float((ndtr((4 * k1 + 1) * z / sn) - ndtr((4 * k1 - 1) * z / sn)).sum())
    sum2 = float((ndtr((4 * k2 + 3) * z / sn) - ndtr((4 * k2 + 1) * z / sn)).sum())
    p = _clamp01(1.0 - sum1 + sum2)
    direction = "backward" if backward else "forward"
    return TestResult("cumulative_sums", {"n": n, "direction": direction}, float(z), p, alpha)


def _apen_width(m: int, n: int) -> int:
    """Widest window ApEn(m) reads from n bits; raises if m does not fit n."""
    if m < 1:
        raise ParamError("pattern length m must be >= 1")
    if m >= math.log2(n):
        raise ParamTooLarge(f"approximate entropy needs m < log2(n), got m={m}, n={n}")
    return m + 1


def _serial_width(m: int, n: int) -> int:
    """Widest window serial(m) reads from n bits; raises if m does not fit n."""
    if m < 2:
        raise ParamError("serial test needs m >= 2")
    if m >= math.log2(n) - 2:
        raise ParamTooLarge(f"serial test needs m < log2(n) - 2, got m={m}, n={n}")
    return m


# widest window of each test that reads cyclic window counts, by test name
_WINDOW_WIDTH = {"approximate_entropy": _apen_width, "serial": _serial_width}


def approximate_entropy(seq, m: int, alpha: float = ALPHA_DEFAULT) -> TestResult:
    """ApEn(m) = Phi(m) - Phi(m+1); chi-square 2n(ln2 - ApEn).

    Computes whenever m < log2(n); battery parameter choices stay under the
    stricter log2(n) - 5 rule so the chi-square approximation holds.
    """
    seq = _memo(seq)
    n = seq.n
    _apen_width(m, n)

    def phi(mm: int) -> float:
        counts = seq.window_counts(mm)
        counts = counts[counts > 0].astype(np.float64)
        freq = counts / n
        return float((freq * np.log(freq)).sum())

    wide = phi(m + 1)  # the wider window first: the narrower one is its fold
    apen = phi(m) - wide
    chi = max(0.0, 2.0 * n * (math.log(2.0) - apen))
    p = igamc(2 ** (m - 1), chi / 2.0)
    return TestResult("approximate_entropy", {"m": m, "n": n, "apen": apen}, chi, p, alpha)


def serial(seq, m: int, alpha: float = ALPHA_DEFAULT) -> tuple[TestResult, TestResult]:
    """Psi-square statistics over cyclic m/(m-1)/(m-2) windows.

    Returns two results: first difference and second difference P-values.
    """
    seq = _memo(seq)
    n = seq.n
    _serial_width(m, n)

    def psi2(mm: int) -> float:
        if mm == 0:
            return 0.0
        counts = seq.window_counts(mm).astype(np.float64)
        return float((2.0**mm / n) * (counts * counts).sum() - n)

    pm, pm1, pm2 = psi2(m), psi2(m - 1), psi2(m - 2)
    d1 = max(0.0, pm - pm1)
    d2 = max(0.0, pm - 2 * pm1 + pm2)
    r1 = TestResult(
        "serial", {"m": m, "part": 1}, d1, igamc(2 ** (m - 2), d1 / 2.0), alpha
    )
    r2 = TestResult(
        "serial", {"m": m, "part": 2}, d2, igamc(2 ** (m - 3), d2 / 2.0), alpha
    )
    return r1, r2


def poker(seq, m: int, alpha: float = ALPHA_DEFAULT) -> TestResult:
    """Occupancy chi-square over non-overlapping m-bit block patterns."""
    bits = _memo(seq).bits
    if m < 1:
        raise ParamError("poker block length m must be >= 1")
    nblocks = bits.size // m
    if nblocks < 5 * (1 << m):
        raise SequenceTooShort(
            f"poker test with m={m} needs at least {5 * (1 << m)} blocks, got {nblocks}"
        )
    values = bits[: nblocks * m].reshape(nblocks, m) @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))
    counts = np.bincount(values, minlength=1 << m).astype(np.float64)
    v = float((1 << m) / nblocks * (counts * counts).sum() - nblocks)
    v = max(0.0, v)
    p = igamc(((1 << m) - 1) / 2.0, v / 2.0)
    return TestResult("poker", {"m": m, "N": nblocks}, v, p, alpha)


def binary_derivation(seq, k: int, alpha: float = ALPHA_DEFAULT) -> TestResult:
    """Monobit statistic after k adjacent-XOR derivative passes."""
    bits = _memo(seq).bits
    if k < 0:
        raise ParamError("derivation count k must be >= 0")
    n = bits.size - k
    if n < 100:
        raise SequenceTooShort(f"binary derivation with k={k} needs n - k >= 100")
    der = bits
    for _ in range(k):
        der = der[:-1] ^ der[1:]
    s = 2 * int(der.sum()) - n
    p = erfc(abs(s) / math.sqrt(2.0 * n))
    return TestResult("binary_derivation", {"k": k, "n": n}, abs(s) / math.sqrt(n), p, alpha)


def autocorrelation(seq, shift: int, alpha: float = ALPHA_DEFAULT) -> TestResult:
    """Agreement between the sequence and its d-shift: A(d) = sum e_i xor e_{i+d}."""
    bits = _memo(seq).bits
    if shift < 1:
        raise ParamError("shift d must be >= 1")
    n = bits.size - shift
    if n < 100:
        raise SequenceTooShort(f"autocorrelation with d={shift} needs n - d >= 100")
    a = int(np.count_nonzero(bits[:-shift] ^ bits[shift:]))
    v = 2.0 * (a - n / 2.0) / math.sqrt(n)
    p = erfc(abs(v) / math.sqrt(2.0))
    return TestResult("autocorrelation", {"d": shift, "A": a}, v, p, alpha)


def run_distribution(seq, alpha: float = ALPHA_DEFAULT) -> TestResult:
    """Chi-square of 0-run and 1-run length counts against the geometric law.

    Lengths are classified up to the cutoff e, the largest i whose expected
    count (n - i + 3) / 2**(i+2) is at least 5; longer runs still count
    toward the total but are not classified.  df = 2e - 2.
    """
    bits = _memo(seq).bits
    n = bits.size
    if n < 100:
        raise SequenceTooShort(f"run-distribution test needs n >= 100, got {n}")
    e = 1
    while (n - (e + 1) + 3) / 2.0 ** (e + 3) >= 5.0:
        e += 1
    change = np.flatnonzero(bits[1:] != bits[:-1])
    bounds = np.concatenate(([0], change + 1, [n]))
    lengths = np.diff(bounds)
    total = lengths.size
    first = int(bits[0])  # runs alternate, starting with the value of bit 0
    ones = np.bincount(lengths[1 - first :: 2], minlength=e + 1)[1 : e + 1]
    zeros = np.bincount(lengths[first::2], minlength=e + 1)[1 : e + 1]
    expected = total / 2.0 ** (np.arange(1, e + 1) + 1)
    v = float((((ones - expected) ** 2 + (zeros - expected) ** 2) / expected).sum())
    p = igamc(e - 1.0, v / 2.0)
    return TestResult("run_distribution", {"e": e, "runs": total}, v, p, alpha)
