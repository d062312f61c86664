"""Scalar ChaCha / QRE-ChaCha core.

The state is a flat list of sixteen 32-bit words, row-major:

    x0  x1  x2  x3      constants (XORed with the constant mask)
    x4  x5  x6  x7      key words k0..k3
    x8  x9  x10 x11     key words k4..k7
    x12 x13 x14 x15     counter t0, nonce v0 v1 v2

Rounds are 0-indexed.  Even r is a column round and, for QRE-ChaCha, is
preceded by XORing a 4-word mask into x0..x3; odd r is a diagonal round.
With all-zero masks the output is bitwise plain ChaCha.  The keystream
block is the little-endian serialization of Z = X(0) + X(R), where X(0)
already carries the constant mask.

This module is the readable reference and the tests' oracle.  `vector`
provides the batch engine that produces identical bytes: one chunked
keystream generator behind `xor_stream`, `vector.keystream_bytes` and
corpus generation, and the round loop that the avalanche and
differential estimators run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import CounterOverflow, MaskCountMismatch, ParamError

MASK32 = 0xFFFFFFFF
MAX_COUNTER = MASK32
BLOCK_BYTES = 64
CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
ROUND_PRESETS = (8, 12, 20)

COLUMN_GROUPS = ((0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15))
DIAGONAL_GROUPS = ((0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14))


def rotl32(x: int, n: int) -> int:
    return ((x << n) & MASK32) | (x >> (32 - n))


def quarter_round(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The ARX quarter-round (rotation schedule 16/12/8/7).

    Bijective on the 128-bit input; see invert_quarter_round.
    """
    a = (a + b) & MASK32
    d = rotl32(d ^ a, 16)
    c = (c + d) & MASK32
    b = rotl32(b ^ c, 12)
    a = (a + b) & MASK32
    d = rotl32(d ^ a, 8)
    c = (c + d) & MASK32
    b = rotl32(b ^ c, 7)
    return a, b, c, d


def invert_quarter_round(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """Exact inverse of quarter_round (steps reversed, subtraction for addition)."""
    b = rotl32(b, 25) ^ c
    c = (c - d) & MASK32
    d = rotl32(d, 24) ^ a
    a = (a - b) & MASK32
    b = rotl32(b, 20) ^ c
    c = (c - d) & MASK32
    d = rotl32(d, 16) ^ a
    a = (a - b) & MASK32
    return a, b, c, d


def _grouped_round(state, groups):
    out = list(state)
    for a, b, c, d in groups:
        out[a], out[b], out[c], out[d] = quarter_round(out[a], out[b], out[c], out[d])
    return out


def column_round(state):
    """Quarter-round the four columns.  The groups are disjoint, so the four
    applications commute."""
    return _grouped_round(state, COLUMN_GROUPS)


def diagonal_round(state):
    """Quarter-round the four diagonals (also pairwise disjoint)."""
    return _grouped_round(state, DIAGONAL_GROUPS)


def inject_masks(state, mask):
    """XOR a 4-word mask into words 0..3; words 4..15 pass through.

    Involution: applying the same mask twice restores the state.
    """
    out = list(state)
    for i in range(4):
        out[i] = out[i] ^ (mask[i] & MASK32)
    return out


def _check_words(words, count: int, what: str) -> tuple[int, ...]:
    words = tuple(int(w) for w in words)
    if len(words) != count:
        raise ParamError(f"{what} must be {count} words, got {len(words)}")
    for w in words:
        if not 0 <= w <= MASK32:
            raise ParamError(f"{what} word out of 32-bit range: {w:#x}")
    return words


def _check_rounds(rounds: int) -> int:
    rounds = int(rounds)
    if rounds < 2 or rounds % 2:
        raise ParamError(f"rounds must be an even integer >= 2, got {rounds}")
    return rounds


@dataclass(frozen=True)
class CipherParams:
    """Key, nonce, starting block counter and round count for one stream."""

    key: tuple[int, ...]
    nonce: tuple[int, ...]
    counter: int = 0
    rounds: int = 20

    def __post_init__(self):
        object.__setattr__(self, "key", _check_words(self.key, 8, "key"))
        object.__setattr__(self, "nonce", _check_words(self.nonce, 3, "nonce"))
        object.__setattr__(self, "rounds", _check_rounds(self.rounds))
        if not 0 <= self.counter <= MAX_COUNTER:
            raise ParamError(f"counter must be in [0, 2**32), got {self.counter}")

    @classmethod
    def from_bytes(cls, key: bytes, nonce: bytes, counter: int = 0, rounds: int = 20):
        """Decode a 32-byte key and 12-byte nonce (little-endian words)."""
        if len(key) != 32:
            raise ParamError(f"key must be 32 bytes, got {len(key)}")
        if len(nonce) != 12:
            raise ParamError(f"nonce must be 12 bytes, got {len(nonce)}")
        return cls(struct.unpack("<8I", key), struct.unpack("<3I", nonce), counter, rounds)


@dataclass(frozen=True)
class Origin:
    """Where bytes entered the program, recorded once at that point: a pool's
    header flag, a deterministic (never quantum) stream, a material file's
    trailer or a corpus manifest.  Reports copy it; nothing else sets it."""

    identity: str
    is_quantum: bool


UNRECORDED = Origin("unspecified", False)


@dataclass(frozen=True)
class QrnSessionMaterial:
    """Constant mask plus one 4-word mask per injection (even-r) round.

    Key-equivalent secret: both endpoints need the same material, fixed for
    the whole session so that decryption and random access reproduce it.
    `origin` travels with the masks but takes no part in equality.
    """

    const_mask: tuple[int, ...]
    round_masks: tuple[tuple[int, ...], ...]
    origin: Origin = field(default=UNRECORDED, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "const_mask", _check_words(self.const_mask, 4, "const_mask"))
        masks = tuple(_check_words(m, 4, "round_mask") for m in self.round_masks)
        if not masks:
            raise ParamError("round_masks must not be empty")
        object.__setattr__(self, "round_masks", masks)

    @property
    def rounds(self) -> int:
        return 2 * len(self.round_masks)

    @classmethod
    def zero(cls, rounds: int) -> "QrnSessionMaterial":
        rounds = _check_rounds(rounds)
        return cls((0, 0, 0, 0), tuple((0, 0, 0, 0) for _ in range(rounds // 2)))

    def is_zero(self) -> bool:
        return not any(self.const_mask) and not any(any(m) for m in self.round_masks)


def resolve_material(params: CipherParams, material: QrnSessionMaterial | None):
    """Return (const_mask, round_masks_or_None), checking the mask count.

    material=None selects plain ChaCha (no injections at all).
    """
    if material is None:
        return (0, 0, 0, 0), None
    if material.rounds != params.rounds:
        raise MaskCountMismatch(
            f"material covers {material.rounds} rounds but params use {params.rounds}"
        )
    return material.const_mask, material.round_masks


def init_state(params: CipherParams, const_mask=(0, 0, 0, 0)) -> list[int]:
    """Build X(0): masked constants, key, counter, nonce."""
    const_mask = _check_words(const_mask, 4, "const_mask")
    state = [CONSTANTS[i] ^ const_mask[i] for i in range(4)]
    state.extend(params.key)
    state.append(params.counter)
    state.extend(params.nonce)
    return state


def run_rounds(state, rounds: int, round_masks=None) -> list[int]:
    """Advance a 16-word state through `rounds` rounds.

    round_masks, when given, must hold rounds/2 4-word masks; mask r//2 is
    XORed into x0..x3 right before the column round at even r.
    """
    x = list(state)
    for r in range(rounds):
        if r % 2 == 0:
            if round_masks is not None:
                x = inject_masks(x, round_masks[r // 2])
            x = column_round(x)
        else:
            x = diagonal_round(x)
    return x


def serialize_words(words) -> bytes:
    """Little-endian serialization; word i occupies bytes 4i..4i+3."""
    return struct.pack("<16I", *words)


def keystream_block(params: CipherParams, material: QrnSessionMaterial | None = None) -> bytes:
    """One 64-byte keystream block at params.counter.

    Feedforward adds the masked X(0), so the mask on the constants also
    shifts the output words.  material=None or all-zero material gives
    plain ChaCha bytes.
    """
    const_mask, round_masks = resolve_material(params, material)
    x0 = init_state(params, const_mask)
    xr = run_rounds(x0, params.rounds, round_masks)
    return serialize_words((a + b) & MASK32 for a, b in zip(x0, xr))


def blocks_needed(nbytes: int) -> int:
    return (nbytes + BLOCK_BYTES - 1) // BLOCK_BYTES


def check_counter_span(counter: int, nblocks: int) -> None:
    if nblocks and counter + nblocks - 1 > MAX_COUNTER:
        raise CounterOverflow(
            f"{nblocks} blocks from counter {counter} would pass 2**32 - 1"
        )


def xor_stream(params: CipherParams, material: QrnSessionMaterial | None, data: bytes) -> bytearray:
    """XOR data with the keystream starting at params.counter.

    Encryption and decryption are the same operation.  Counters increment
    once per 64-byte block and must not wrap.  Runs on the batch engine in
    `vector`, whose one keystream generator validates the material and the
    counter span and XORs chunk by chunk through an L2-sized state, so the
    round loop, not memory traffic, bounds bulk throughput.  Returns a
    bytearray (written exactly once); treat it as a read-only byte
    sequence or wrap in bytes() if immutability matters.
    Inputs larger than memory are XORed in pieces, each at the counter of
    its first block (see `cli.cmd_crypt`).
    """
    from . import vector

    return vector.xor_with_keystream(params, material, data)
