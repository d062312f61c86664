"""Statistical randomness tests.

NIST SP 800-22 subset: frequency, block frequency, runs, longest run of
ones, cumulative sums, approximate entropy, serial.  GM/T 0005-2021
additions: poker, binary derivation, autocorrelation, run distribution.

Each test maps one bit sequence to a TestResult holding the statistic and
its P-value; `passed` is P >= alpha.  A failed runs-test prerequisite is
reported as a not-applicable result with P = 0 rather than an exception.

Every test reads its sequence through a private per-sequence memo
(`_Sequence`): the bits, validated once; the cyclic m-bit window counts that
serial, approximate entropy and run distribution read, from one packed-byte
pass at the widest window asked for and exact folds below it (cyclic
(m-1)-windows are the prefixes of cyclic m-windows, NIST SP 800-22 Rev. 1a,
sections 2.11-2.12); and the partial sums that both cumulative-sums
directions read.  A plain sequence gets a fresh memo per call; the battery
builds one per sequence, sized to the widest window of its plan, and passes
it as `seq`, so standalone and battery calls run the same code.  Poker reads
its blocks from packed bytes as well, through strided word views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..errors import ParamError, ParamTooLarge, SequenceTooShort
from .bits import as_bits
from .special import erfc, igamc, ndtr

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


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, p))


def _packed(bits: np.ndarray) -> np.ndarray:
    """np.packbits(bits) and 7 zero bytes, so a 64-bit word read from any
    byte of the packed bits stays inside the buffer."""
    packed = np.zeros((bits.size + 7) // 8 + 7, dtype=np.uint8)
    raw = np.packbits(bits)
    packed[: raw.size] = raw
    return packed


def _words(packed: np.ndarray, start: int, count: int, stride: int) -> np.ndarray:
    """count big-endian 64-bit words of packed, from bytes start,
    start + stride, ...: a strided view, no copy."""
    return np.ndarray((count,), dtype=">i8", buffer=packed, offset=start, strides=(stride,))


def _pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of the n cyclic m-bit windows (sequence extended by m-1 bits).

    One pass over packed bytes: the window starting at bit 8b + r is bits
    r..r+m-1 of the big-endian 64-bit word starting at byte b, so eight
    shifted, masked views of one word array cover every window.  64-bit
    words hold any m <= 57, far past the 2**m counts that fit in memory.
    """
    n = bits.size
    packed = _packed(np.concatenate((bits, bits[: m - 1])))
    words = _words(packed, 0, (n + 7) // 8, 1).astype(np.int64)
    mask = (1 << m) - 1
    counts = np.zeros(1 << m, dtype=np.int64)
    for r in range(min(8, n)):
        window = (words[: (n - r + 7) // 8] >> (64 - r - m)) & mask
        counts += np.bincount(window, minlength=1 << m)
    return counts


def _block_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of the n // m non-overlapping m-bit block values, MSB first.

    Block k starts at bit k*m; every `period` blocks end on a byte edge, so
    the blocks of one phase j are one strided view of packed words, each
    block at bit offset r <= 7 of its word (any m <= 57 fits).
    """
    nblocks = bits.size // m
    period = 8 // math.gcd(m, 8)
    stride = m * period // 8
    packed = _packed(bits[: nblocks * m])
    mask = (1 << m) - 1
    counts = np.zeros(1 << m, dtype=np.int64)
    for j in range(min(period, nblocks)):
        start, r = divmod(j * m, 8)
        words = _words(packed, start, (nblocks - j + period - 1) // period, stride)
        counts += np.bincount((words >> (64 - r - m)) & mask, minlength=1 << m)
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


def _longest_ones(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in each row of a 2-D 0/1 array."""
    nblocks, m = blocks.shape
    # a zero before every row and one after the last: each gap between
    # consecutive zeros, less one, is a run of ones inside one row
    flat = np.zeros(nblocks * (m + 1) + 1, dtype=blocks.dtype)
    flat[:-1].reshape(nblocks, m + 1)[:, 1:] = blocks
    zeros = np.flatnonzero(flat == 0)
    gaps = zeros[1:] - zeros[:-1]
    return np.maximum.reduceat(gaps, np.searchsorted(zeros, np.arange(nblocks) * (m + 1))) - 1


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
    # groups of about 2**16 bits: in one pass over 10**6 bits the int64
    # temporaries (about 10 MB) landed on freshly mapped pages, which made
    # the call slower inside the battery than a loop over single blocks
    rows = max(1, 2**16 // m)
    longest = np.concatenate([_longest_ones(blocks[i : i + rows]) for i in range(0, nblocks, rows)])
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


def _apen_width(n: int, m: int) -> int:
    """Widest window ApEn(m) reads from n bits; raises if m does not fit n."""
    if m < 1:
        raise ParamError("pattern length m must be >= 1")
    if m >= math.log2(n):
        raise ParamTooLarge(f"approximate entropy needs m < log2(n), got m={m}, n={n}")
    return m + 1


def _serial_width(n: int, m: int) -> int:
    """Widest window serial(m) reads from n bits; raises if m does not fit n."""
    if m < 2:
        raise ParamError("serial test needs m >= 2")
    if m >= math.log2(n) - 2:
        raise ParamTooLarge(f"serial test needs m < log2(n) - 2, got m={m}, n={n}")
    return m


def _run_width(n: int) -> int:
    """Widest window run distribution reads from n bits, e + 2 for the
    length cutoff e; raises if n is too short."""
    if n < 100:
        raise SequenceTooShort(f"run-distribution test needs n >= 100, got {n}")
    e = 1
    while (n - (e + 1) + 3) / 2.0 ** (e + 3) >= 5.0:
        e += 1
    return e + 2


# widest window of each test that reads cyclic window counts, by test name;
# each takes n and the test's keyword arguments
_WINDOW_WIDTH = {
    "approximate_entropy": _apen_width,
    "serial": _serial_width,
    "run_distribution": _run_width,
}


def approximate_entropy(seq, m: int, alpha: float = ALPHA_DEFAULT) -> TestResult:
    """ApEn(m) = Phi(m) - Phi(m+1); chi-square 2n(ln2 - ApEn).

    Computes whenever m < log2(n); battery parameter choices stay under the
    stricter log2(n) - 5 rule so the chi-square approximation holds.
    """
    seq = _memo(seq)
    n = seq.n
    _apen_width(n, m)

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
    _serial_width(n, m)

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
    """Occupancy chi-square over non-overlapping m-bit block patterns,
    counted from packed bytes."""
    bits = _memo(seq).bits
    if m < 1:
        raise ParamError("poker block length m must be >= 1")
    nblocks = bits.size // m
    if nblocks < 5 * (1 << m):
        raise SequenceTooShort(
            f"poker test with m={m} needs at least {5 * (1 << m)} blocks, got {nblocks}"
        )
    counts = _block_counts(bits, m).astype(np.float64)
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


def _run_classes(seq: _Sequence) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(e, total runs, ones, zeros): ones[L-1] and zeros[L-1] count the
    runs of exactly L ones or zeros, L = 1..e.

    The counts come from the shared cyclic window counts, widths 2..e+2.
    A cyclic run of ones of length >= L is one `0 1^L` window, a run of
    zeros one `1 0^L` window; exact lengths are differences of adjacent
    ">= L" counts, and the width-2 windows count the value changes.  Linear
    runs differ from cyclic ones only at the ends: when the first and last
    bit agree, the run that wraps is the last run and the first run
    joined, and a constant sequence is one run no window sees.
    """
    width = _run_width(seq.n)
    e = width - 2
    seq.window_counts(width)  # the widest first: the narrower ones are its folds
    at_least = np.zeros((2, e + 1), dtype=np.int64)  # [value, L - 1], L = 1..e+1
    for length in range(1, e + 2):
        counts = seq.window_counts(length + 1)
        at_least[0, length - 1] = counts[1 << length]  # 1 0^L
        at_least[1, length - 1] = counts[(1 << length) - 1]  # 0 1^L
    pair = seq.window_counts(2)
    changes = int(pair[1] + pair[2])  # cyclic, including bit n-1 -> bit 0
    bits = seq.bits
    first, last = int(bits[0]), int(bits[-1])
    lengths = np.arange(1, e + 2)
    if changes == 0:
        at_least[first] += 1
    elif first == last:
        # the first and last runs, each capped at e + 1 bits, which is
        # all the comparisons below can tell apart
        head = int(np.argmax(np.append(bits[: e + 1] != first, True)))
        tail = int(np.argmax(np.append(bits[: -e - 2 : -1] != last, True)))
        split = (lengths <= head).astype(np.int64) + (lengths <= tail)
        at_least[first] += split - (lengths <= head + tail)
    zeros, ones = at_least[:, :-1] - at_least[:, 1:]
    return e, 1 + changes - (first != last), ones, zeros


def run_distribution(seq, alpha: float = ALPHA_DEFAULT) -> TestResult:
    """Chi-square of 0-run and 1-run length counts against the geometric law.

    Lengths are classified up to the cutoff e, the largest i whose expected
    count (n - i + 3) / 2**(i+2) is at least 5; longer runs still count
    toward the total but are not classified.  df = 2e - 2.  The counts are
    read from the shared window pass (see `_run_classes`).
    """
    e, total, ones, zeros = _run_classes(_memo(seq))
    expected = total / 2.0 ** (np.arange(1, e + 1) + 1)
    v = float((((ones - expected) ** 2 + (zeros - expected) ** 2) / expected).sum())
    p = igamc(e - 1.0, v / 2.0)
    return TestResult("run_distribution", {"e": e, "runs": total}, v, p, alpha)
