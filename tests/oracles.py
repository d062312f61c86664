"""Independent oracles for the test suite.

Everything here is deliberately written on a different route than the
package: the cipher oracle is an index-juggling double-round loop over a
mutable list, and the statistical oracles are plain-Python loops with
mpmath special functions at high precision.  Nothing imports qrechacha.
"""

import math
import struct
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 40

M32 = 0xFFFFFFFF

# zero key, zero nonce, counter 0, from public ChaCha test vector collections
CHACHA20_ZERO_BLOCK = bytes.fromhex(
    "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
    "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
)
CHACHA8_ZERO_BLOCK = bytes.fromhex(
    "3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e"
    "984ce172b9216f419f445367456d5619314a42a3da86b001387bfdb80e0cfe42"
)
# key 00..1f, nonce 000000090000004a00000000, counter 1 (RFC 7539 section 2.3.2)
RFC7539_BLOCK = bytes.fromhex(
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
    "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
)


def _rotl(x, n):
    return ((x << n) & M32) | (x >> (32 - n))


def _qr_inplace(x, a, b, c, d):
    x[a] = (x[a] + x[b]) & M32
    x[d] = _rotl(x[d] ^ x[a], 16)
    x[c] = (x[c] + x[d]) & M32
    x[b] = _rotl(x[b] ^ x[c], 12)
    x[a] = (x[a] + x[b]) & M32
    x[d] = _rotl(x[d] ^ x[a], 8)
    x[c] = (x[c] + x[d]) & M32
    x[b] = _rotl(x[b] ^ x[c], 7)


def chacha_block_ref(key: bytes, nonce: bytes, counter: int, rounds: int) -> bytes:
    """Plain ChaCha block, double-round formulation."""
    assert rounds % 2 == 0
    st = [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574]
    st += list(struct.unpack("<8I", key))
    st.append(counter)
    st += list(struct.unpack("<3I", nonce))
    w = list(st)
    for _ in range(rounds // 2):
        _qr_inplace(w, 0, 4, 8, 12)
        _qr_inplace(w, 1, 5, 9, 13)
        _qr_inplace(w, 2, 6, 10, 14)
        _qr_inplace(w, 3, 7, 11, 15)
        _qr_inplace(w, 0, 5, 10, 15)
        _qr_inplace(w, 1, 6, 11, 12)
        _qr_inplace(w, 2, 7, 8, 13)
        _qr_inplace(w, 3, 4, 9, 14)
    return struct.pack("<16I", *((a + b) & M32 for a, b in zip(st, w)))


def chacha_stream_ref(key: bytes, nonce: bytes, counter: int, rounds: int, n: int) -> bytes:
    out = b""
    block = 0
    while len(out) < n:
        out += chacha_block_ref(key, nonce, counter + block, rounds)
        block += 1
    return out[:n]


def de_bruijn(order: int) -> list:
    """Binary de Bruijn cycle of the given order via Lyndon words."""
    seq = []
    a = [0] * (order + 1)

    def db(t, p):
        if t > order:
            if order % p == 0:
                seq.extend(a[1 : p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, 2):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    assert len(seq) == 2**order
    return seq


def _mpf(v):
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / v.denominator
    return mp.mpf(v)


def oracle_erfc(x) -> float:
    return float(mp.erfc(x))


def oracle_igamc(a, x) -> float:
    return float(mp.gammainc(_mpf(a), _mpf(x), mp.inf, regularized=True))


def oracle_monobit(bits) -> float:
    s = sum(1 if b else -1 for b in bits)
    return float(mp.erfc(abs(s) / mp.sqrt(2 * len(bits))))


def oracle_block_frequency(bits, m) -> float:
    n = len(bits) // m
    chi = 4 * m * sum(
        (Fraction(sum(bits[i * m : (i + 1) * m]), m) - Fraction(1, 2)) ** 2
        for i in range(n)
    )
    return oracle_igamc(Fraction(n, 2), Fraction(chi, 2))


def oracle_runs(bits) -> float:
    n = len(bits)
    pi = sum(bits) / n
    v = 1 + sum(1 for i in range(n - 1) if bits[i] != bits[i + 1])
    return float(mp.erfc(abs(v - 2 * n * pi * (1 - pi)) / (2 * mp.sqrt(2 * n) * pi * (1 - pi))))


_LONGEST_TABLES = (
    (750000, 10000, 10, 16, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6272, 128, 4, 9, (0.1174035788, 0.242955959, 0.249363483, 0.17517706, 0.102701071, 0.112398847)),
    (128, 8, 1, 4, (0.21484375, 0.3671875, 0.23046875, 0.1875)),
)


def oracle_longest_run(bits) -> float:
    chi, classes = oracle_longest_run_chi(bits)
    return oracle_igamc((classes - 1) / 2, chi / 2)


def oracle_longest_run_chi(bits) -> tuple[float, int]:
    """Chi-squared statistic of the longest-run class counts, and the
    number of classes."""
    n = len(bits)
    for min_n, m, lo, hi, pi in _LONGEST_TABLES:
        if n >= min_n:
            break
    nblocks = n // m
    counts = [0] * len(pi)
    for i in range(nblocks):
        longest = cur = 0
        for bit in bits[i * m : (i + 1) * m]:
            cur = cur + 1 if bit else 0
            longest = max(longest, cur)
        counts[min(max(longest, lo), hi) - lo] += 1
    chi = sum(
        (c - nblocks * p) ** 2 / (nblocks * p) for c, p in zip(counts, pi)
    )
    return chi, len(pi)


def oracle_cusum(bits, backward=False) -> float:
    seq = bits[::-1] if backward else bits
    n = len(seq)
    cur = z = 0
    for b in seq:
        cur += 1 if b else -1
        z = max(z, abs(cur))
    sn = mp.sqrt(n)
    ratio = Fraction(n, z)
    lo1, hi = math.ceil((1 - ratio) / 4), math.floor((ratio - 1) / 4)
    lo2 = math.ceil((-ratio - 3) / 4)
    s1 = sum(mp.ncdf((4 * k + 1) * z / sn) - mp.ncdf((4 * k - 1) * z / sn)
             for k in range(lo1, hi + 1))
    s2 = sum(mp.ncdf((4 * k + 3) * z / sn) - mp.ncdf((4 * k + 1) * z / sn)
             for k in range(lo2, hi + 1))
    return float(1 - s1 + s2)


def _cyclic_counts(bits, m):
    n = len(bits)
    ext = list(bits) + list(bits[: m - 1])
    counts = {}
    for i in range(n):
        pat = tuple(ext[i : i + m])
        counts[pat] = counts.get(pat, 0) + 1
    return counts


def oracle_approximate_entropy(bits, m) -> float:
    n = len(bits)

    def phi(mm):
        if mm == 0:
            return mp.mpf(0)
        return sum(
            (mp.mpf(c) / n) * mp.log(mp.mpf(c) / n)
            for c in _cyclic_counts(bits, mm).values()
        )

    apen = phi(m) - phi(m + 1)
    chi = 2 * n * (mp.log(2) - apen)
    return oracle_igamc(2 ** (m - 1), chi / 2)


def oracle_serial(bits, m):
    n = len(bits)

    def psi2(mm):
        if mm == 0:
            return mp.mpf(0)
        counts = _cyclic_counts(bits, mm)
        return (mp.mpf(2**mm) / n) * sum(mp.mpf(c) ** 2 for c in counts.values()) - n

    d1 = psi2(m) - psi2(m - 1)
    d2 = psi2(m) - 2 * psi2(m - 1) + psi2(m - 2)
    return (
        oracle_igamc(2 ** (m - 2), d1 / 2),
        oracle_igamc(2 ** (m - 3), d2 / 2),
    )


def oracle_poker(bits, m) -> float:
    n = len(bits) // m
    counts = {}
    for i in range(n):
        pat = tuple(bits[i * m : (i + 1) * m])
        counts[pat] = counts.get(pat, 0) + 1
    v = Fraction(2**m, n) * sum(c * c for c in counts.values()) - n
    return oracle_igamc(Fraction(2**m - 1, 2), Fraction(v, 2))


def oracle_binary_derivation(bits, k) -> float:
    seq = list(bits)
    for _ in range(k):
        seq = [seq[i] ^ seq[i + 1] for i in range(len(seq) - 1)]
    n = len(seq)
    s = sum(1 if b else -1 for b in seq)
    return float(mp.erfc(abs(s) / mp.sqrt(2 * n)))


def oracle_autocorrelation(bits, d) -> float:
    n = len(bits) - d
    a = sum(bits[i] ^ bits[i + d] for i in range(n))
    v = 2 * (a - n / 2) / math.sqrt(n)
    return float(mp.erfc(abs(v) / mp.sqrt(2)))


def oracle_run_distribution(bits) -> float:
    n = len(bits)
    e = 1
    while (n - (e + 1) + 3) / 2 ** (e + 3) >= 5:
        e += 1
    runs = []
    cur_bit, cur_len = bits[0], 1
    for b in bits[1:]:
        if b == cur_bit:
            cur_len += 1
        else:
            runs.append((cur_bit, cur_len))
            cur_bit, cur_len = b, 1
    runs.append((cur_bit, cur_len))
    total = len(runs)
    v = mp.mpf(0)
    for i in range(1, e + 1):
        expected = mp.mpf(total) / 2 ** (i + 1)
        bi = sum(1 for bit, length in runs if bit == 1 and length == i)
        gi = sum(1 for bit, length in runs if bit == 0 and length == i)
        v += (bi - expected) ** 2 / expected + (gi - expected) ** 2 / expected
    return oracle_igamc(e - 1, v / 2)
