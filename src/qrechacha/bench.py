"""Encryption throughput harness.

Times xor_stream over in-memory payloads with a fresh random key per
repetition.  Key generation and QRN material derivation happen before the
clock starts, matching a deployment where masks are pre-stored; one
untimed warm-up repetition per size and config, all run before the first
timed one, absorbs cold-start noise and page faults, and the garbage
collector is off inside each timed call.  Absolute seconds are
machine-specific; comparisons should be read as ratios.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from . import vector
from .cipher import CipherParams, xor_stream
from .errors import InsufficientResults, ParamError
from .qrn import DeterministicProvider, derive_session

CIPHERS = ("chacha", "qre-chacha")
DEFAULT_SIZES_MB = (10, 20, 30, 40, 50)
MIN_REPS = 5


@dataclass
class BenchResult:
    cipher: str
    rounds: int
    payload_bytes: int
    repetitions: int
    times: list[float] = field(default_factory=list)

    @property
    def mean_seconds(self) -> float:
        return sum(self.times) / len(self.times)

    @property
    def mbps(self) -> float:
        return self.payload_bytes / self.mean_seconds / 1e6

    @property
    def ns_per_byte(self) -> float:
        return self.mean_seconds / self.payload_bytes * 1e9

    def to_dict(self) -> dict:
        return {
            "cipher": self.cipher,
            "rounds": self.rounds,
            "payload_bytes": self.payload_bytes,
            "repetitions": self.repetitions,
            "times": list(self.times),
            "mean_s": self.mean_seconds,
            "mbps": self.mbps,
            "ns_per_byte": self.ns_per_byte,
        }


def _random_payload(nbytes: int) -> bytes:
    try:
        return os.urandom(nbytes)
    except (OverflowError, MemoryError):
        raise ParamError(f"cannot allocate a payload of {nbytes / 1e6:g} MB") from None


def run_sweep(configs, sizes_mb=DEFAULT_SIZES_MB, reps: int = MIN_REPS) -> list[BenchResult]:
    """Bench every (cipher, rounds) config over every payload size.

    cipher "chacha" runs without any mask work; "qre-chacha" derives random
    session material once, outside the timed region.  Each config gets a
    fresh random key per repetition plus one untimed warm-up.  The payload
    for a given size is shared by all configs, and repetitions are
    interleaved round-robin across configs so background load spikes hit
    every configuration alike.

    Every warm-up runs before any timed call, largest size first.  glibc
    serves a large block from freshly mapped pages (one fault per 4 KiB
    page, about 3 us each on the machine this was tuned on) until freeing a
    block that large raises its mmap and trim thresholds.  Timed in size
    order instead, a 4 MB size paid about 50% in page faults that the 8 MB
    size after it did not: the 8 MB / 4 MB time ratio of a fresh process's
    first sweep read 1.26-1.68, against 1.91-2.21 in this order.
    """
    if reps < MIN_REPS:
        raise ParamError(f"benchmark needs >= {MIN_REPS} repetitions, got {reps}")
    for cipher, _ in configs:
        if cipher not in CIPHERS:
            raise ParamError(f"cipher must be one of {CIPHERS}, got {cipher!r}")
    sweep = []
    for size in sizes_mb:
        if not 1 <= size * 1_000_000 < math.inf:
            raise ParamError(f"payload size must be finite and at least 1 byte, got {size} MB")
        nbytes = int(size * 1_000_000)
        runs = []
        for cipher, rounds in configs:
            material = None
            if cipher == "qre-chacha":
                material = derive_session(DeterministicProvider(os.urandom(32)), rounds)
            nonce = os.urandom(12)
            params = [CipherParams.from_bytes(os.urandom(32), nonce, 0, rounds)
                      for _ in range(reps + 1)]
            runs.append((BenchResult(cipher, rounds, nbytes, reps), material, params))
        sweep.append((nbytes, runs))
    for nbytes, runs in sorted(sweep, key=lambda item: -item[0]):
        payload = _random_payload(nbytes)
        for result, material, params in runs:
            xor_stream(params[0], material, payload)  # warm-up, untimed
    results = []
    for nbytes, runs in sweep:
        payload = _random_payload(nbytes)
        for rep in range(1, reps + 1):
            for result, material, params in runs:
                gc.disable()
                try:
                    t0 = time.perf_counter()
                    xor_stream(params[rep], material, payload)
                    t1 = time.perf_counter()
                finally:
                    gc.enable()
                result.times.append(t1 - t0)
        results.extend(run[0] for run in runs)
    return results


def environment() -> dict:
    """What produced a report: package, numpy and Python versions and the
    keystream chunk width in blocks."""
    from . import __version__

    return {
        "qrechacha": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "chunk_blocks": vector.CHUNK_BLOCKS,
    }


@dataclass
class ComparisonReport:
    """Mean-time table (payload size -> config name -> result, as .table and
    .names in first-seen order) plus the full ratio matrix between configs,
    stamped with the environment that produced it."""

    results: list[BenchResult]
    env: dict = field(default_factory=environment, init=False)

    def __post_init__(self):
        if len(self.results) < 2:
            raise InsufficientResults("comparison needs at least two results")
        self.table, self.names = {}, []
        for r in self.results:
            name = f"{r.cipher}{r.rounds}"
            if name not in self.names:
                self.names.append(name)
            self.table.setdefault(r.payload_bytes, {}).setdefault(name, r)

    def ratio_matrix(self) -> dict[str, dict[str, float]]:
        """Mean-over-sizes time of each config divided by each other config."""
        means = {}
        for name in self.names:
            vals = [row[name].mean_seconds for row in self.table.values() if name in row]
            means[name] = sum(vals) / len(vals)
        return {a: {b: means[a] / means[b] for b in self.names} for a in self.names}

    def to_dict(self) -> dict:
        return {
            "kind": "bench",
            "env": dict(self.env),
            "clock": "perf_counter",
            "clock_resolution_s": time.get_clock_info("perf_counter").resolution,
            "warmup_reps": 1,
            "results": [r.to_dict() for r in self.results],
            "ratios": self.ratio_matrix(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        rows = ["cipher,rounds,bytes,reps,mean_s,mbps"]
        for r in self.results:
            rows.append(
                f"{r.cipher},{r.rounds},{r.payload_bytes},{r.repetitions},"
                f"{r.mean_seconds:.7f},{r.mbps:.3f}"
            )
        return "\n".join(rows) + "\n"

    def to_text(self) -> str:
        head = f"{'Payload':>12}" + "".join(f"{n:>16}" for n in self.names)
        env = "  ".join(f"{k} {v}" for k, v in self.env.items())
        out = [f"env: {env}", "Encryption time, seconds (mean of reps; warm-up excluded)", head]
        for size, cells in self.table.items():
            row = f"{size / 1e6:>9.0f} MB"
            for name in self.names:
                row += f"{cells[name].mean_seconds:>16.7f}" if name in cells else f"{'-':>16}"
            out.append(row)
        out.append("")
        out.append("time ratios (row / column, mean over sizes):")
        ratios = self.ratio_matrix()
        out.append(f"{'':>12}" + "".join(f"{n:>16}" for n in self.names))
        for a in self.names:
            out.append(f"{a:>12}" + "".join(f"{ratios[a][b]:>16.3f}" for b in self.names))
        return "\n".join(out)


def compare_report(results: list[BenchResult]) -> ComparisonReport:
    return ComparisonReport(list(results))
