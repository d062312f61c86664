"""The benchmark's workloads: set-up, one cycle of timed operations, and a
check of every output made outside the timed region.

Each workload is one closed loop: one caller, one process, one thread,
each call issued when the previous one returned.  Every cycle runs the
paper's four cipher configurations round-robin, with the starting
configuration rotated from cycle to cycle, so that the two cost
comparisons of the paper (QRE vs plain, 8 vs 20 rounds) are paired within
a cycle on identical input sizes:

  bulk-encrypt    one `cipher.xor_stream` over a seeded 32 MB payload per
                  configuration, a fresh key each time.  The payload spans
                  two `vector.CHUNK_BLOCKS` chunks of DRAM-sized arrays, so
                  the round loop dominates and per-call overhead vanishes.
  small-messages  one session per configuration: QRE sessions derive fresh
                  material with `qrn.derive_session` from a file-backed,
                  non-quantum `QrnPool` (take plus fsync); then 16 messages
                  with stratified log-uniform sizes over 64 B - 64 KiB, not
                  rounded to whole blocks, with the counter advancing.  Per-call
                  overhead on 1-1024-column arrays dominates.
  security-eval   the paper's evaluation pipeline: per configuration one
                  10**6-bit corpus sequence from `generate.iter_sequences`,
                  `battery_run(suite="both", jobs=1)` over it and one
                  `analysis.avalanche_metric` of 10**4 trials; per cycle
                  one `analysis.empirical_diff_probability` of 10**5
                  samples, rotating over 2 and 4 rounds, fixed and
                  resampled masks.

Plain corpus sequences use all-zero session material, which the package
defines to give plain ChaCha bytes; the checks confirm that against the
scalar core run without material, and against OpenSSL for ChaCha20.
"""

from __future__ import annotations

import gc
import hashlib
import math
import struct
import time

import numpy as np

from qrechacha import analysis, cipher, generate, qrn, randtests, vector
from qrechacha.cipher import BLOCK_BYTES, CipherParams, QrnSessionMaterial

try:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
except ImportError:  # not a declared dependency; ChaCha20 checks then use the package
    Cipher = algorithms = None

CONFIGS = (("qre8", 8, True), ("chacha8", 8, False), ("qre20", 20, True), ("chacha20", 20, False))
LANES = tuple(lane for lane, _, _ in CONFIGS)


def rotated(i):
    k = i % len(CONFIGS)
    return CONFIGS[k:] + CONFIGS[:k]


class StepFailed(Exception):
    """A timed call raised; the rest of the cycle is skipped."""


class Op:
    """One operation of a lane: one or more timed steps, and its verdict."""

    __slots__ = ("lane", "parts", "error")

    def __init__(self, lane):
        self.lane = lane
        self.parts = {}
        self.error = None

    @property
    def seconds(self):
        return sum(self.parts.values())


class Runner:
    """Times each step with GC off, then checks its output with GC on.

    `corrupt`, when given, is applied to each output before its check; the
    self-test uses it to flip one byte.
    """

    def __init__(self, tracer=None, corrupt=None):
        self.ops = []
        self.tracer = tracer
        self.corrupt = corrupt

    def op(self, lane):
        op = Op(lane)
        self.ops.append(op)
        return op

    def step(self, op, part, fn, *args, verify=None, **kwargs):
        gc.disable()
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a call that raises is a failed operation
            gc.enable()
            op.error = f"{part}: {type(exc).__name__}: {exc}"
            raise StepFailed(op.error) from exc
        elapsed = time.perf_counter() - start
        gc.enable()
        op.parts[part] = op.parts.get(part, 0.0) + elapsed
        if self.corrupt is not None:
            out = self.corrupt(out)
        if verify is not None:
            if self.tracer is not None:
                self.tracer.paused = True
            try:
                err = verify(out)
            except Exception as exc:  # a check that cannot run fails the operation
                err = f"check raised {type(exc).__name__}: {exc}"
            finally:
                if self.tracer is not None:
                    self.tracer.paused = False
            if err and op.error is None:
                op.error = f"{part}: {err}"
        return out


class ReferenceKernel:
    """A fixed numpy ARX loop, independent of qrechacha, timed with GC off
    at the start of every cycle.

    On a shared host the speed available to one process can shift by 1.5x
    for minutes at a time as other tenants come and go, and
    call-overhead-bound code moves more than memory-bound code.  Each
    workload therefore sizes the kernel like its own calls (`REFERENCE`:
    columns, passes), and an operation's median time is reported in units
    of the kernel's median time in the same run: that moves with the
    program's speed but not with the machine's.  Column counts are off
    powers of two so rows do not alias in cache.
    """

    def __init__(self, sizes):
        rng = np.random.default_rng(0)
        self.arrays = [(rng.integers(0, 1 << 32, size=(16, n), dtype=np.uint32), passes)
                       for n, passes in sizes]

    def __call__(self):
        gc.disable()
        start = time.perf_counter()
        for x, passes in self.arrays:
            t = np.empty_like(x[0])
            for _ in range(passes):
                for a, b in ((0, 4), (1, 5), (2, 6), (3, 7)):
                    np.add(x[a], x[b], out=x[a])
                    np.bitwise_xor(x[b], x[a], out=x[b])
                    np.left_shift(x[b], 7, out=t)
                    np.right_shift(x[b], 25, out=x[b])
                    np.bitwise_or(x[b], t, out=x[b])
        elapsed = time.perf_counter() - start
        gc.enable()
        return elapsed


# ---------------------------------------------------------------- checks

def at_counter(params, block):
    return CipherParams(params.key, params.nonce, params.counter + block, params.rounds)


def openssl_xor(params, data):
    """OpenSSL ChaCha20 (RFC 7539 layout: 32-bit counter, 96-bit nonce)."""
    key = struct.pack("<8I", *params.key)
    nonce = struct.pack("<I3I", params.counter, *params.nonce)
    enc = Cipher(algorithms.ChaCha20(key, nonce), mode=None).encryptor()
    return enc.update(bytes(data)) + enc.finalize()


def check_blocks(params, material, data, out):
    """First and last block against the scalar `cipher.keystream_block`."""
    n = len(out)
    for block in sorted({0, (n - 1) // BLOCK_BYTES}):
        lo, hi = block * BLOCK_BYTES, min((block + 1) * BLOCK_BYTES, n)
        ks = cipher.keystream_block(at_counter(params, block), material)
        want = ks[: hi - lo] if data is None else bytes(a ^ b for a, b in zip(data[lo:hi], ks))
        if bytes(out[lo:hi]) != want:
            return f"block {block} differs from the scalar keystream_block"
    return None


def check_whole(params, material, data, out, piece=1 << 22):
    """Every byte: OpenSSL for plain ChaCha20 when available, otherwise the
    package's `vector.keystream_bytes`, recomputed piecewise at counter
    offsets so that the random-access path is exercised too."""
    n = len(out)
    got = np.frombuffer(out, dtype=np.uint8)
    src = np.zeros(n, dtype=np.uint8) if data is None else np.frombuffer(data, dtype=np.uint8)
    if material is None and params.rounds == 20 and Cipher is not None:
        want = np.frombuffer(openssl_xor(params, src.tobytes()), dtype=np.uint8)
        if not np.array_equal(got, want):
            return f"byte {int(np.flatnonzero(got != want)[0])} differs from OpenSSL ChaCha20"
        return None
    for off in range(0, n, piece):
        end = min(off + piece, n)
        ks = vector.keystream_bytes(at_counter(params, off // BLOCK_BYTES), material, end - off)
        want = src[off:end] ^ np.frombuffer(ks, dtype=np.uint8)
        if not np.array_equal(got[off:end], want):
            bad = off + int(np.flatnonzero(got[off:end] != want)[0])
            return f"byte {bad} differs from the keystream_bytes recomputation"
    return None


def check_xor(params, material, data, out):
    if len(out) != len(data):
        return f"output is {len(out)} bytes, input {len(data)}"
    return check_blocks(params, material, data, out) or check_whole(params, material, data, out)


# battery rows and the public test call behind each: (row id, test, kwargs,
# complemented input, result index)
BATTERY_ROWS = (
    ("nist/frequency", "monobit", {}, False, 0),
    ("nist/block_frequency", "block_frequency", {"block_len": 128}, False, 0),
    ("nist/cumulative_sums_forward", "cumulative_sums", {"backward": False}, False, 0),
    ("nist/cumulative_sums_backward", "cumulative_sums", {"backward": True}, False, 0),
    ("nist/runs", "runs", {}, False, 0),
    ("nist/longest_run_of_ones", "longest_run_of_ones", {}, False, 0),
    ("nist/approximate_entropy", "approximate_entropy", {"m": 10}, False, 0),
    ("nist/serial_p1", "serial", {"m": 16}, False, 0),
    ("nist/serial_p2", "serial", {"m": 16}, False, 1),
    ("gmt/frequency", "monobit", {}, False, 0),
    ("gmt/block_frequency", "block_frequency", {"block_len": 10000}, False, 0),
    ("gmt/poker_m4", "poker", {"m": 4}, False, 0),
    ("gmt/poker_m8", "poker", {"m": 8}, False, 0),
    ("gmt/total_runs", "runs", {}, False, 0),
    ("gmt/run_distribution", "run_distribution", {}, False, 0),
    ("gmt/max_run_of_ones", "longest_run_of_ones", {}, False, 0),
    ("gmt/max_run_of_zeros", "longest_run_of_ones", {}, True, 0),
    ("gmt/binary_derivation_k3", "binary_derivation", {"k": 3}, False, 0),
    ("gmt/binary_derivation_k7", "binary_derivation", {"k": 7}, False, 0),
    ("gmt/autocorrelation_d1", "autocorrelation", {"shift": 1}, False, 0),
    ("gmt/autocorrelation_d2", "autocorrelation", {"shift": 2}, False, 0),
    ("gmt/autocorrelation_d8", "autocorrelation", {"shift": 8}, False, 0),
    ("gmt/autocorrelation_d16", "autocorrelation", {"shift": 16}, False, 0),
    ("gmt/cumulative_sums_forward", "cumulative_sums", {"backward": False}, False, 0),
    ("gmt/cumulative_sums_backward", "cumulative_sums", {"backward": True}, False, 0),
    ("gmt/approximate_entropy_m2", "approximate_entropy", {"m": 2}, False, 0),
    ("gmt/approximate_entropy_m5", "approximate_entropy", {"m": 5}, False, 0),
)
ALPHA = 0.01


def p_values(bits):
    """Row id -> P-value, from the public test functions called directly."""
    results = {}
    out = {}
    for row_id, test, kwargs, complement, index in BATTERY_ROWS:
        key = (test, tuple(sorted(kwargs.items())), complement)
        if key not in results:
            res = getattr(randtests, test)(bits ^ 1 if complement else bits, alpha=ALPHA, **kwargs)
            results[key] = res if isinstance(res, tuple) else (res,)
        out[row_id] = results[key][index].p_value
    return out


def p_digest(pvals):
    text = "\n".join(f"{row_id}={pvals[row_id]!r}" for row_id, *_ in BATTERY_ROWS)
    return hashlib.sha256(text.encode()).hexdigest()


def check_battery(bits, report, digest=None):
    """Every row applicable, every P-value in [0, 1], and the one-sequence
    report (pass count and histogram bin) consistent with the P-values of
    the test functions; for the shipped seed, the digest too."""
    lines = {line.row_id: line for line in report.lines}
    if set(lines) != {row[0] for row in BATTERY_ROWS}:
        return "battery rows differ from the expected NIST + GM/T plan"
    pvals = p_values(bits)
    for row_id, p in pvals.items():
        line = lines[row_id]
        if not line.applicable:
            return f"{row_id} not applicable: {line.note}"
        if not 0.0 <= p <= 1.0:
            return f"{row_id} P-value {p} outside [0, 1]"
        if line.total != 1 or line.pass_count != int(p >= ALPHA):
            return f"{row_id} pass count {line.pass_count} disagrees with P-value {p}"
        if sum(line.histogram) != 1 or line.histogram[min(int(p * 10), 9)] != 1:
            return f"{row_id} histogram disagrees with P-value {p}"
    if digest is not None and p_digest(pvals) != digest:
        return "P-value digest differs from the value pinned for the shipped seed"
    return None


def check_avalanche(rounds, report):
    if report.trials != SecurityEval.AVALANCHE_TRIALS or report.rounds != rounds:
        return "avalanche report has the wrong trials or rounds"
    if abs(report.aggregate - 0.5) > report.half_width:
        return f"avalanche aggregate {report.aggregate} outside 0.5 +/- {report.half_width}"
    return None


def check_diffprob(spec, mode, est, pinned_hits=None):
    if est.samples != SecurityEval.DIFF_SAMPLES or not 0 <= est.hits <= est.samples:
        return f"diffprob counted {est.hits} hits of {est.samples} samples"
    if est.probability != est.hits / est.samples:
        return "diffprob probability is not hits / samples"
    if pinned_hits is not None and est.hits != pinned_hits:
        return f"diffprob hits {est.hits} differ from {pinned_hits} pinned for the shipped seed"
    # top-bit trail over two rounds, modal probability about 2**-5.9; a
    # fixed mask shifts both sides alike, so the rate is that of plain pairs
    if spec.rounds == 2 and mode == "fixed" and not 0.005 < est.probability < 0.05:
        return f"two-round diffprob {est.probability} outside (0.005, 0.05)"
    return None


# ------------------------------------------------------------- workloads

class BulkEncrypt:
    name = "bulk-encrypt"
    PAYLOAD_BYTES = 32_000_000
    REFERENCE = (((1 << 18) + 64, 4),)  # DRAM-sized, like a 16 MiB engine chunk

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.payload = rng.bytes(self.PAYLOAD_BYTES)
        self.material = {
            lane: qrn.derive_session(qrn.DeterministicProvider(rng.bytes(32)), rounds) if qre else None
            for lane, rounds, qre in CONFIGS
        }

    def prepare(self, i):
        rng = np.random.default_rng([self.seed, 1, i])
        return [(lane, CipherParams.from_bytes(rng.bytes(32), rng.bytes(12), 0, rounds))
                for lane, rounds, _ in rotated(i)]

    def cycle(self, run, prep):
        for lane, params in prep:
            material = self.material[lane]
            run.step(run.op(lane), "xor_stream", cipher.xor_stream, params, material, self.payload,
                     verify=lambda out: check_xor(params, material, self.payload, out))

    def warm_up(self, run):
        # one configuration suffices: the others share every code path
        self.cycle(run, self.prepare(0)[:1])


class SmallMessages:
    name = "small-messages"
    REFERENCE = ((80, 150),)  # call-overhead-bound, like a 5 KiB message
    MESSAGES = 16
    MIN_BYTES = 64
    MAX_BYTES = 64 * 1024
    POOL_BYTES = 1 << 21

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        self.seed = seed
        self.pool_data = rng.bytes(self.POOL_BYTES)
        self.pool = qrn.QrnPool.create(workdir / "pool.qrn", self.pool_data, is_quantum=False)
        self.cursor = 0

    def prepare(self, i):
        rng = np.random.default_rng([self.seed, 2, i])
        # log-uniform, stratified: one size from each sixteenth of the log
        # range, in random order, so that every session spans 64 B - 64 KiB
        # and cycles are alike in total size
        edges = np.linspace(math.log(self.MIN_BYTES), math.log(self.MAX_BYTES),
                            self.MESSAGES + 1)
        sizes = rng.permutation(np.exp(rng.uniform(edges[:-1], edges[1:])).astype(int))
        messages = [rng.bytes(int(n)) for n in sizes]
        sessions = [(lane, rounds, qre, rng.bytes(32), rng.bytes(12))
                    for lane, rounds, qre in rotated(i)]
        return messages, sessions

    def check_material(self, rounds, material):
        """The session consumed exactly the next unused pool bytes."""
        need = qrn.material_bytes_needed(rounds)
        start, self.cursor = self.cursor, self.cursor + need
        want = qrn.session_parse(struct.pack("<HH", qrn.MATERIAL_VERSION, rounds)
                                 + self.pool_data[start:self.cursor])
        if material != want:
            return f"material is not pool bytes {start}..{self.cursor}"
        if self.pool.cursor_bytes != self.cursor:
            return f"pool cursor at {self.pool.cursor_bytes}, expected {self.cursor}"
        return None

    def cycle(self, run, prep):
        messages, sessions = prep
        for lane, rounds, qre, key, nonce in sessions:
            material = None
            if qre:
                material = run.step(run.op("session:" + lane), "derive_session",
                                    qrn.derive_session, self.pool, rounds,
                                    verify=lambda m: self.check_material(rounds, m))
            counter = 0
            for msg in messages:
                params = CipherParams.from_bytes(key, nonce, counter, rounds)
                run.step(run.op(lane), "xor_stream", cipher.xor_stream, params, material, msg,
                         verify=lambda out: check_xor(params, material, msg, out))
                counter += cipher.blocks_needed(len(msg))

    def warm_up(self, run):
        self.cycle(run, self.prepare(0))


class Corpus:
    """One configuration's corpus, drawn a sequence at a time."""

    def __init__(self, spec, material):
        self.spec = spec
        self.material = material
        self.next = generate.iter_sequences(spec, material).__next__
        self.index = 0

    def params(self, index):
        return CipherParams.from_bytes(generate.key_for_index(self.spec.seed, index), bytes(12),
                                       self.spec.counter, self.spec.rounds)

    def check(self, index, plain, seq):
        if len(seq) != self.spec.bytes_per_sequence:
            return f"sequence is {len(seq)} bytes, expected {self.spec.bytes_per_sequence}"
        params = self.params(index)
        material = None if plain else self.material
        err = check_blocks(params, material, None, seq)
        if err or (plain and params.rounds == 20 and Cipher is not None):
            return err or check_whole(params, material, None, seq)
        # the corpus comes from vector.keystream_bytes: recompute it through
        # the fused XOR path instead
        if cipher.xor_stream(params, material, bytes(len(seq))) != seq:
            return "sequence differs from xor_stream over zero bytes"
        return None


TOP = 0x80000000
# two-round differential built from the probability-one top-bit trail of a
# quarter round; over four rounds the same pair serves as a speed probe
DIFF_IN = (TOP, 0, 0, 0, 0, 0, 0, 0, TOP, 0, 0, 0, 0x80008000, 0, 0, 0)
DIFF_OUT = (0x88000000, 0, 0, 0, 0, 0x40404404, 0, 0, 0, 0, 0x00808088, 0, 0, 0, 0, 0x00800088)
DIFF_CASES = ((2, "fixed"), (2, "resampled"), (4, "fixed"), (4, "resampled"))

# pinned on the reference sequence and diffprob cases of the shipped seed
SHIPPED_SEED = 2507_18157
SHIPPED_P_DIGEST = "363d480e24dec2c9902a5d6b33c91c243b20e86dee69ec595c41844521a2f91c"
SHIPPED_DIFF_HITS = (1582, 0, 0, 0)


def diff_material(seed):
    """Fixed-mode session material for the 2- and 4-round cases."""
    return {r: qrn.derive_session(qrn.DeterministicProvider(seed), r) for r in (2, 4)}


class SecurityEval:
    name = "security-eval"
    REFERENCE = ((4160, 30), ((1 << 18) + 64, 2))  # cache-sized batches, 10**6-bit arrays
    BITS = 10**6
    AVALANCHE_TRIALS = 10_000
    DIFF_SAMPLES = 100_000

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.corpora = {}
        for lane, rounds, qre in CONFIGS:
            spec = generate.CorpusSpec(seed=rng.bytes(16), count=1 << 30, bits=self.BITS,
                                       rounds=rounds)
            material = (generate.material_from_seed(spec.seed, rounds) if qre
                        else QrnSessionMaterial.zero(rounds))
            self.corpora[lane] = Corpus(spec, material)
        self.diff_material = diff_material(rng.bytes(32))

    def prepare(self, i):
        rng = np.random.default_rng([self.seed, 3, i])
        segment = ("key", "nonce", "counter")[int(rng.integers(3))]
        bit = int(rng.integers(analysis.FLIP_SEGMENTS[segment][1]))
        counter = int(rng.integers(1 << 31))
        return (rotated(i), (segment, bit), counter, int(rng.integers(1 << 62)),
                DIFF_CASES[i % len(DIFF_CASES)], int(rng.integers(1 << 62)))

    def evaluate(self, run, lane, rounds, qre, target, counter, avalanche_seed):
        corpus = self.corpora[lane]
        op = run.op(lane)
        index, corpus.index = corpus.index, corpus.index + 1
        seq = run.step(op, "corpus", corpus.next,
                       verify=lambda s: corpus.check(index, not qre, s))
        bits = run.step(op, "battery", randtests.bits_from_bytes, seq)
        run.step(op, "battery", randtests.battery_run, [bits], suite="both", jobs=1,
                 verify=lambda rep: check_battery(bits, rep))
        params = CipherParams((0,) * 8, (0,) * 3, counter, rounds)
        run.step(op, "avalanche", analysis.avalanche_metric, params,
                 corpus.material if qre else None, target, self.AVALANCHE_TRIALS, avalanche_seed,
                 verify=lambda rep: check_avalanche(rounds, rep))

    def diffprob(self, run, case, rng_seed, materials, pinned=None):
        rounds, mode = case
        spec = analysis.DiffSpec(DIFF_IN, DIFF_OUT, rounds)
        material = materials[rounds] if mode == "fixed" else None
        run.step(run.op("diffprob"), "diffprob", analysis.empirical_diff_probability, spec,
                 self.DIFF_SAMPLES, mode, material, rng_seed,
                 verify=lambda est: check_diffprob(spec, mode, est, pinned))

    def cycle(self, run, prep):
        configs, target, counter, avalanche_seed, case, diff_seed = prep
        for lane, rounds, qre in configs:
            self.evaluate(run, lane, rounds, qre, target, counter, avalanche_seed)
        self.diffprob(run, case, diff_seed, self.diff_material)

    def warm_up(self, run):
        """The shipped-seed reference: a QRE-ChaCha8 sequence through the
        battery with its pinned P-value digest, and every diffprob case with
        its pinned hit count."""
        spec = generate.CorpusSpec(seed=b"perfbench-shipped", count=1, bits=self.BITS, rounds=8)
        seq = next(generate.iter_sequences(spec))
        bits = randtests.bits_from_bytes(seq)
        run.step(run.op("reference"), "battery", randtests.battery_run, [bits], suite="both",
                 jobs=1, verify=lambda rep: check_battery(bits, rep, SHIPPED_P_DIGEST))
        materials = diff_material(b"perfbench-shipped")
        for case, hits in zip(DIFF_CASES, SHIPPED_DIFF_HITS):
            self.diffprob(run, case, SHIPPED_SEED, materials, hits)
        params = CipherParams((0,) * 8, (0,) * 3, 0, 8)
        run.step(run.op("reference"), "avalanche", analysis.avalanche_metric, params,
                 self.corpora["qre8"].material, ("key", 0), self.AVALANCHE_TRIALS, SHIPPED_SEED,
                 verify=lambda rep: check_avalanche(8, rep))


WORKLOADS = {cls.name: cls for cls in (BulkEncrypt, SmallMessages, SecurityEval)}
