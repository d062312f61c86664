"""Empirical security instrumentation.

Monte-Carlo proxies, not proofs: avalanche flip fractions for diffusion
and an empirical estimator of differential probabilities over a few
rounds, whose resampled mode draws only admissible injection masks.  All
estimators are pure functions of their RNG seed and embarrassingly
parallel over samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import vector
from .cipher import CipherParams, QrnSessionMaterial, _check_rounds, _check_words
from .errors import MaskCountMismatch, ParamError

FLIP_SEGMENTS = {"key": (4, 256), "nonce": (13, 96), "counter": (12, 32)}


def _generator(seed) -> np.random.Generator:
    """np.random.default_rng(seed), reporting a seed numpy rejects as ParamError."""
    try:
        return np.random.default_rng(seed)
    except (ValueError, TypeError) as exc:
        raise ParamError(f"bad rng seed {seed!r}: {exc}") from None


@dataclass
class AvalancheReport:
    """Flip statistics for one flipped input bit over random keys/nonces.

    per_bit[32*w + j] is the flip fraction of bit j (LSB first) of output
    word w; aggregate averages all 512 output bits.
    """

    rounds: int
    trials: int
    flip_target: tuple[str, int]
    per_bit: np.ndarray
    aggregate: float
    half_width: float

    def to_dict(self) -> dict:
        return {
            "kind": "avalanche",
            "rounds": self.rounds,
            "trials": self.trials,
            "flip_target": {"segment": self.flip_target[0], "bit": self.flip_target[1]},
            "aggregate": self.aggregate,
            "half_width": self.half_width,
            "per_bit": [float(v) for v in self.per_bit],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self) -> str:
        return (f"avalanche rounds={self.rounds} trials={self.trials} "
                f"flip={self.flip_target[0]}:{self.flip_target[1]}\n"
                f"aggregate flip fraction: {self.aggregate:.6f} "
                f"(ideal 0.5 +/- {self.half_width:.6f})")


def avalanche_metric(
    params: CipherParams,
    material: QrnSessionMaterial | None,
    flip_target: tuple[str, int],
    trials: int,
    rng=None,
) -> AvalancheReport:
    """Measure output-bit flip fractions when one input bit flips.

    Each trial draws a fresh random key and nonce (params supplies rounds
    and counter), flips the designated key/nonce/counter bit, and compares
    the two keystream blocks.  half_width is the three-sigma band
    3*sqrt(0.25/trials) around an ideal 0.5.  Material for another round
    count raises MaskCountMismatch.
    """
    if trials < 1000:
        raise ParamError(f"avalanche needs >= 1000 trials, got {trials}")
    segment, bit = flip_target
    if segment not in FLIP_SEGMENTS:
        raise ParamError(f"flip segment must be one of {sorted(FLIP_SEGMENTS)}")
    base_row, nbits = FLIP_SEGMENTS[segment]
    bit = int(bit)
    if not 0 <= bit < nbits:
        raise ParamError(f"{segment} bit index must be in [0, {nbits})")
    row = base_row + bit // 32
    flip = np.uint32(1 << (bit % 32))
    rng = _generator(rng)
    column, masks = vector.prepare(params, material)

    # histogram of the output difference bytes by (word, byte, value); the
    # bit table turns it into per-bit flip counts once, at the end
    bins = (1024 * np.arange(16)[:, None, None] + 256 * np.arange(4)).astype(np.intp)
    hist = np.zeros(16 * 4 * 256, dtype=np.int64)
    done = 0
    while done < trials:
        batch = min(4096, trials - done)
        # columns :batch are X0, batch: the same states with the bit flipped
        x = np.repeat(column, 2 * batch, axis=1)
        x[4:12, :batch] = rng.integers(0, 1 << 32, size=(8, batch), dtype=np.uint32)
        x[13:16, :batch] = rng.integers(0, 1 << 32, size=(3, batch), dtype=np.uint32)
        x[:, batch:] = x[:, :batch]
        x[row, batch:] ^= flip
        z = vector.feedforward(x, params.rounds, masks)
        diff = z[:, :batch] ^ z[:, batch:]
        diff = diff.astype("<u4", copy=False).view(np.uint8).reshape(16, batch, 4)
        hist += np.bincount((diff + bins).ravel(), minlength=hist.size)
        done += batch

    bit_table = (np.arange(256)[:, None] >> np.arange(8)) & 1  # [value, bit]
    flips = hist.reshape(16, 4, 256) @ bit_table  # [word, byte, bit]: bit 8*byte + bit
    per_bit = (flips / trials).reshape(512)
    return AvalancheReport(
        rounds=params.rounds,
        trials=trials,
        flip_target=(segment, bit),
        per_bit=per_bit,
        aggregate=float(per_bit.mean()),
        half_width=3.0 * math.sqrt(0.25 / trials),
    )


@dataclass(frozen=True)
class DiffSpec:
    """Input/output XOR difference pair over a reduced round count."""

    input_diff: tuple[int, ...]
    output_diff: tuple[int, ...]
    rounds: int

    def __post_init__(self):
        object.__setattr__(self, "input_diff", _check_words(self.input_diff, 16, "input_diff"))
        object.__setattr__(self, "output_diff", _check_words(self.output_diff, 16, "output_diff"))
        if not any(self.input_diff):
            raise ParamError("input_diff must be nonzero")
        object.__setattr__(self, "rounds", _check_rounds(self.rounds))


@dataclass
class DiffProbEstimate:
    probability: float
    hits: int
    samples: int
    half_width: float
    rounds: int
    qrn_mode: str

    def to_dict(self) -> dict:
        return {
            "kind": "diffprob",
            "probability": self.probability,
            "hits": self.hits,
            "samples": self.samples,
            "half_width": self.half_width,
            "rounds": self.rounds,
            "qrn_mode": self.qrn_mode,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self) -> str:
        return (f"diffprob rounds={self.rounds} mode={self.qrn_mode} samples={self.samples}\n"
                f"estimate: {self.probability:.3e} ({self.hits} hits, "
                f"+/- {self.half_width:.3e})")


def _admissible_mask_pairs(rng, dx, batch):
    """Draw per-sample mask pairs for one injection round, redrawing any
    sample whose mask difference collides with its state difference dx.
    A pair is admissible iff (ma_i ^ mb_i) != dx_i at every injected word
    i < 4, which is symmetric in the two sides."""
    ma = rng.integers(0, 1 << 32, size=(4, batch), dtype=np.uint32)
    mb = rng.integers(0, 1 << 32, size=(4, batch), dtype=np.uint32)
    while True:
        bad = ((ma ^ mb) == dx).any(axis=0)
        if not bad.any():
            return ma, mb
        idx = np.flatnonzero(bad)
        ma[:, idx] = rng.integers(0, 1 << 32, size=(4, idx.size), dtype=np.uint32)
        mb[:, idx] = rng.integers(0, 1 << 32, size=(4, idx.size), dtype=np.uint32)


def empirical_diff_probability(
    spec: DiffSpec,
    samples: int,
    qrn_mode: str = "fixed",
    material: QrnSessionMaterial | None = None,
    rng=None,
) -> DiffProbEstimate:
    """Fraction of random state pairs (X, X ^ input_diff) whose state
    difference after spec.rounds rounds equals output_diff.

    qrn_mode "fixed" runs both sides under one session material (None means
    zero masks, i.e. plain propagation).  "resampled" draws fresh,
    independent masks per sample and per side, rejecting draws whose mask
    difference equals the state difference at the injected words.  Fixed
    material for another round count raises MaskCountMismatch.
    """
    if qrn_mode not in ("fixed", "resampled"):
        raise ParamError(f"qrn_mode must be 'fixed' or 'resampled', got {qrn_mode!r}")
    if samples < 10_000:
        raise ParamError(f"estimator needs >= 10**4 samples, got {samples}")
    if spec.rounds > 4:
        raise ParamError("estimator is only meaningful for rounds <= 4")
    if qrn_mode == "fixed" and material is not None and material.rounds != spec.rounds:
        raise MaskCountMismatch(
            f"material covers {material.rounds} rounds but the spec uses {spec.rounds}"
        )
    rng = _generator(rng)
    in_diff = np.array(spec.input_diff, dtype=np.uint32)[:, None]
    out_diff = np.array(spec.output_diff, dtype=np.uint32)[:, None]
    fixed_masks = None
    if qrn_mode == "fixed" and material is not None:
        fixed_masks = np.asarray(material.round_masks, dtype=np.uint32)

    hits = 0
    done = 0
    while done < samples:
        batch = min(1 << 15, samples - done)
        xa = rng.integers(0, 1 << 32, size=(16, batch), dtype=np.uint32)
        xb = xa ^ in_diff
        # one double round at a time: resampled masks depend on the state
        # difference at the injection, so they are drawn just before it
        for i in range(spec.rounds // 2):
            ma = mb = None if fixed_masks is None else fixed_masks[i : i + 1]
            if qrn_mode == "resampled":
                ma, mb = _admissible_mask_pairs(rng, xa[0:4] ^ xb[0:4], batch)
                ma, mb = ma[None], mb[None]
            vector.run_rounds(xa, 2, ma)
            vector.run_rounds(xb, 2, mb)
        hits += int(((xa ^ xb) == out_diff).all(axis=0).sum())
        done += batch

    prob = hits / samples
    half = 3.0 * math.sqrt(max(prob * (1.0 - prob), 1.0 / samples) / samples)
    return DiffProbEstimate(prob, hits, samples, half, spec.rounds, qrn_mode)
