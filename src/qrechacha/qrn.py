"""Quantum-random-number sourcing and session material.

Bytes enter through two providers, each with `take(n) -> bytes` and an
`origin` (a `cipher.Origin` record) made where its bytes come from:

  * QrnPool               - file-backed entropy store with a persistent
                            cursor; its header flag says whether it is quantum
  * DeterministicProvider - seeded SHA-256 stream for tests, never quantum

`fetch_remote` reads a QRNG endpoint; `qrn fetch` stores the bytes in a pool
flagged quantum, the only way a pool gets that flag.  `derive_session`
stamps the provider's origin on the material, and a material file keeps the
flag in its trailer, so reports copy a recorded fact, never a user's claim.

Pool file layout (little-endian):
  bytes 0-3   magic "QRNP"
  bytes 4-5   version (currently 2)
  bytes 6-13  total payload bytes
  bytes 14-21 cursor (consumed bytes)
  bytes 22-23 flags; bit 0 (FLAG_QUANTUM) marks a quantum-sourced payload
  bytes 24-   payload
Version 1 files lack the flags field (payload from byte 22).  They never
recorded their source, so they open as non-quantum.

Material file layout (little-endian):
  bytes 0-1   material version (currently 1)
  bytes 2-3   rounds R
  bytes 4-    masks, 16 bytes (4 words) each: the constant mask, then one
              per injection round r = 0, 2, ..., R-2; `session_serialize`
              is exactly bytes 0 to here
  last 2      flags trailer, FLAG_QUANTUM as in the pool header
Files without the trailer read as non-quantum, like version 1 pools.

Pools and material files are created owner-only (0600): pool bytes become
masks and material is key-equivalent.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import struct
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import replace
from pathlib import Path

from .cipher import Origin, QrnSessionMaterial, _check_rounds
from .errors import (
    DecodeError,
    IoFailure,
    MalformedMaterial,
    NetworkFailure,
    ParamError,
    PoolExhausted,
    ShortResponse,
)

POOL_MAGIC = b"QRNP"
POOL_VERSION = 2
FLAG_QUANTUM = 1
_POOL_HEADER = struct.Struct("<4sHQQ")  # the part common to versions 1 and 2
_FLAGS = struct.Struct("<H")  # pool v2 after the common part; material trailer
_PAYLOAD_OFFSET = {1: _POOL_HEADER.size, 2: _POOL_HEADER.size + _FLAGS.size}
_CURSOR_OFFSET = 14

MATERIAL_VERSION = 1
MASK_BYTES = 16

ENDPOINT_ENV = "QRECHACHA_QRN_ENDPOINT"
MODE_ENV = "QRECHACHA_QRN_MODE"
# response bytes read per requested byte: hex mode needs two per byte plus
# whitespace; anything past that is never read
BODY_BYTES_PER_BYTE = 4


def material_bytes_needed(rounds: int) -> int:
    """Mask budget: 16 bytes for the constant mask + 16 per injection round."""
    return MASK_BYTES * (1 + _check_rounds(rounds) // 2)


def _write_secret(path, what: str, *parts: bytes) -> None:
    """Write parts in order to an owner-only (0600) file and sync it to disk."""
    try:
        with open(path, "wb", opener=lambda p, flags: os.open(p, flags, 0o600)) as fh:
            os.fchmod(fh.fileno(), 0o600)  # an existing file keeps its old mode otherwise
            fh.writelines(parts)
            fh.flush()
            os.fsync(fh.fileno())
    except OSError as exc:
        raise IoFailure(f"cannot write {what} {path}: {exc}") from exc


class QrnPool:
    """File-backed entropy pool with a never-rewinding consumption cursor.

    The new cursor is flushed to disk before bytes are handed to the caller,
    so a crash can waste one request's entropy but never re-issue bytes.
    Each take holds an exclusive flock on the pool file from reading the
    cursor to the fsync of its advance, so concurrent takers in other
    processes (or through other handles) never receive the same bytes.
    """

    def __init__(self, path):
        """Open an existing pool; its origin is quantum iff the header says so."""
        self.path = Path(path)
        self._read_header()

    @property
    def origin(self) -> Origin:
        return Origin(f"pool:{self.path.name}", self._quantum)

    @classmethod
    def create(cls, path, data: bytes, is_quantum: bool = False) -> "QrnPool":
        """Write a new owner-only pool holding data, recording is_quantum in
        its header."""
        if not data:
            raise ParamError("pool payload must be nonempty")
        header = _POOL_HEADER.pack(POOL_MAGIC, POOL_VERSION, len(data), 0)
        flags = _FLAGS.pack(FLAG_QUANTUM if is_quantum else 0)
        _write_secret(path, "pool", header, flags, data)
        return cls(path)

    def _read_header(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                head = fh.read(_PAYLOAD_OFFSET[POOL_VERSION])
        except OSError as exc:
            raise IoFailure(f"cannot read pool {self.path}: {exc}") from exc
        self._parse_header(head)

    def _parse_header(self, head: bytes) -> None:
        if len(head) < _POOL_HEADER.size:
            raise IoFailure(f"{self.path} is not a pool file (truncated header)")
        magic, version, total, cursor = _POOL_HEADER.unpack_from(head)
        if magic != POOL_MAGIC:
            raise IoFailure(f"{self.path} is not a pool file (bad magic {magic!r})")
        if version not in _PAYLOAD_OFFSET:
            raise IoFailure(f"unsupported pool version {version}")
        flags = 0
        if version >= 2:
            if len(head) < _PAYLOAD_OFFSET[version]:
                raise IoFailure(f"{self.path} is not a pool file (truncated header)")
            (flags,) = _FLAGS.unpack_from(head, _POOL_HEADER.size)
        if cursor > total:
            raise IoFailure(f"corrupt pool {self.path}: cursor {cursor} past total {total}")
        self.total_bytes = total
        self.cursor_bytes = cursor
        self._quantum = bool(flags & FLAG_QUANTUM)
        self._payload_offset = _PAYLOAD_OFFSET[version]

    @property
    def remaining(self) -> int:
        return self.total_bytes - self.cursor_bytes

    def take(self, nbytes: int) -> bytes:
        """Consume the next nbytes; the cursor advance hits disk first."""
        if nbytes < 0:
            raise ParamError("nbytes must be >= 0")
        try:
            with open(self.path, "r+b") as fh:
                # released when fh closes, after the fsync below
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                self._parse_header(fh.read(_PAYLOAD_OFFSET[POOL_VERSION]))
                if nbytes == 0:
                    return b""
                if self.cursor_bytes + nbytes > self.total_bytes:
                    raise PoolExhausted(
                        f"pool {self.path} has {self.remaining} bytes left, need {nbytes}"
                    )
                new_cursor = self.cursor_bytes + nbytes
                fh.seek(self._payload_offset + self.cursor_bytes)
                data = fh.read(nbytes)
                if len(data) != nbytes:
                    raise IoFailure(f"pool {self.path} payload shorter than header claims")
                fh.seek(_CURSOR_OFFSET)
                fh.write(struct.pack("<Q", new_cursor))
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise IoFailure(f"cannot update pool {self.path}: {exc}") from exc
        self.cursor_bytes = new_cursor
        return data


class DeterministicProvider:
    """Counter-mode SHA-256 byte stream; reproducible and never quantum.

    The stream depends only on the seed, not on how takes are sized.
    """

    def __init__(self, seed):
        if isinstance(seed, int):
            seed = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "little")
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        elif not isinstance(seed, (bytes, bytearray)):
            raise ParamError(f"seed must be bytes, str or int, got {type(seed).__name__}")
        self._seed = bytes(seed)
        self._counter = 0
        self._buf = b""
        self.origin = Origin("deterministic:" + hashlib.sha256(self._seed).hexdigest()[:12], False)

    def take(self, nbytes: int) -> bytes:
        if nbytes < 0:
            raise ParamError("nbytes must be >= 0")
        out = bytearray(self._buf)
        while len(out) < nbytes:
            out += hashlib.sha256(
                self._seed + self._counter.to_bytes(8, "little")
            ).digest()
            self._counter += 1
        self._buf = bytes(out[nbytes:])
        return bytes(out[:nbytes])


def fetch_remote(endpoint: str, nbytes: int, mode: str = "raw", timeout: float = 10.0) -> bytes:
    """Fetch exactly nbytes from a QRNG HTTP(S) endpoint.

    "{nbytes}" in the URL is substituted with the request size.  Only http
    and https URLs are accepted, and at most BODY_BYTES_PER_BYTE * nbytes
    response bytes are read.  mode "raw" takes the body as-is; "hex" strips
    whitespace and decodes an ASCII hex body.  Longer responses are
    truncated to nbytes; shorter ones raise ShortResponse.
    """
    if nbytes <= 0:
        raise ParamError("nbytes must be > 0")
    if mode not in ("raw", "hex"):
        raise ParamError(f"decode mode must be 'raw' or 'hex', got {mode!r}")
    url = endpoint.replace("{nbytes}", str(nbytes))
    try:
        scheme = urllib.parse.urlsplit(url).scheme
        if scheme not in ("http", "https"):
            raise ParamError(f"QRNG endpoint must be an http(s) URL, got scheme {scheme!r}")
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            body = resp.read(BODY_BYTES_PER_BYTE * nbytes)
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise NetworkFailure(f"QRNG fetch from {url} failed: {exc}") from exc
    if mode == "hex":
        try:
            data = bytes.fromhex(body.decode("ascii").strip())
        except (UnicodeDecodeError, ValueError) as exc:
            raise DecodeError(f"response from {url} is not hex: {exc}") from exc
    else:
        data = body
    if len(data) < nbytes:
        raise ShortResponse(f"asked {url} for {nbytes} bytes, got {len(data)}")
    return data[:nbytes]


def derive_session(source, rounds: int) -> QrnSessionMaterial:
    """Consume mask material in the fixed order both endpoints must share:
    16 bytes of constant mask, then 16 bytes per injection round for
    r = 0, 2, ..., R-2.  Each group decodes to 4 little-endian words.  The
    material carries the source's origin.
    """
    rounds = _check_rounds(rounds)
    data = source.take(material_bytes_needed(rounds))
    groups = [
        struct.unpack("<4I", data[off : off + MASK_BYTES])
        for off in range(0, len(data), MASK_BYTES)
    ]
    return QrnSessionMaterial(groups[0], tuple(groups[1:]), source.origin)


def session_serialize(material: QrnSessionMaterial) -> bytes:
    """2-byte version, 2-byte rounds, then masks in derivation order (LE words)."""
    words = list(material.const_mask)
    for mask in material.round_masks:
        words.extend(mask)
    return struct.pack("<HH", MATERIAL_VERSION, material.rounds) + struct.pack(
        f"<{len(words)}I", *words
    )


def session_parse(data: bytes) -> QrnSessionMaterial:
    if len(data) < 4:
        raise MalformedMaterial(f"material truncated: {len(data)} bytes")
    version, rounds = struct.unpack_from("<HH", data)
    if version != MATERIAL_VERSION:
        raise MalformedMaterial(f"unsupported material version {version}")
    if rounds < 2 or rounds % 2:
        raise MalformedMaterial(f"invalid rounds field {rounds}")
    expect = 4 + material_bytes_needed(rounds)
    if len(data) != expect:
        raise MalformedMaterial(f"material for {rounds} rounds needs {expect} bytes, got {len(data)}")
    nwords = 4 * (1 + rounds // 2)
    words = struct.unpack_from(f"<{nwords}I", data, 4)
    masks = tuple(words[4 + 4 * i : 8 + 4 * i] for i in range(rounds // 2))
    return QrnSessionMaterial(words[:4], masks)


def read_material(path) -> QrnSessionMaterial:
    """Material from a file; its origin is the path as given, quantum iff
    the flags trailer says so."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read material {path}: {exc}") from exc
    flags = 0
    # serialized material is 4 + 16k bytes long, so a trailer shows in the remainder
    if len(data) % MASK_BYTES == (4 + _FLAGS.size) % MASK_BYTES:
        (flags,) = _FLAGS.unpack_from(data, len(data) - _FLAGS.size)
        data = data[: -_FLAGS.size]
    return replace(session_parse(data), origin=Origin(str(path), bool(flags & FLAG_QUANTUM)))


def write_material(path, material: QrnSessionMaterial) -> None:
    """session_serialize bytes plus the flags trailer, owner-only."""
    flags = _FLAGS.pack(FLAG_QUANTUM if material.origin.is_quantum else 0)
    _write_secret(path, "material", session_serialize(material), flags)
