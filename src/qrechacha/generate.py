"""Reproducible keystream corpora for randomness evaluation.

A corpus is N keystream sequences of L bits, one fresh key per sequence,
zero nonce, shared session material.  Keys come from a recorded seed
(SHA-256 of seed || index), so a manifest with the seed replays the exact
corpus and `key_for_index` recomputes any key; keys are never written out.
The manifest also records the material's origin, which `test --input-dir`
copies into its report.  It is written last, through `files`, so it only
appears complete and after every sequence file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

from . import files
from .cipher import BLOCK_BYTES, CipherParams, Origin, QrnSessionMaterial
from .errors import IoFailure, ParamError
from .qrn import DeterministicProvider, derive_session, session_serialize
from .vector import keystream_bytes

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
SEED_DERIVED = Origin("seed-derived", False)


@dataclass(frozen=True)
class CorpusSpec:
    seed: bytes
    count: int
    bits: int
    rounds: int = 8
    counter: int = 0

    def __post_init__(self):
        if not self.seed:
            raise ParamError("corpus seed must be nonempty")
        if self.count < 1:
            raise ParamError("sequence count must be >= 1")
        if self.bits < 1:
            raise ParamError("bits per sequence must be >= 1")

    @property
    def bytes_per_sequence(self) -> int:
        return (self.bits + 7) // 8


def key_for_index(seed: bytes, index: int) -> bytes:
    return hashlib.sha256(seed + index.to_bytes(8, "little") + b":key").digest()


def material_from_seed(seed: bytes, rounds: int) -> QrnSessionMaterial:
    material = derive_session(DeterministicProvider(seed + b":material"), rounds)
    return replace(material, origin=SEED_DERIVED)


def iter_sequences(spec: CorpusSpec, material: QrnSessionMaterial | None = None):
    """Yield the packed keystream bytes of each sequence in order."""
    if material is None:
        material = material_from_seed(spec.seed, spec.rounds)
    nbytes = spec.bytes_per_sequence
    nonce = bytes(12)
    for i in range(spec.count):
        params = CipherParams.from_bytes(
            key_for_index(spec.seed, i), nonce, spec.counter, spec.rounds
        )
        yield keystream_bytes(params, material, nbytes)


def manifest_dict(spec: CorpusSpec, material: QrnSessionMaterial) -> dict:
    return {
        "version": MANIFEST_VERSION,
        "seed": spec.seed.hex(),
        "count": spec.count,
        "bits": spec.bits,
        "rounds": spec.rounds,
        "counter": spec.counter,
        "nonce": "00" * 12,
        "key_derivation": "sha256(seed || index_le64 || ':key')",
        "material": {
            "source": material.origin.identity,
            "sha256": hashlib.sha256(session_serialize(material)).hexdigest(),
            "is_quantum": material.origin.is_quantum,
        },
        "bit_order": "msb-first within each byte",
    }


def write_corpus(spec: CorpusSpec, outdir, material: QrnSessionMaterial | None = None) -> Path:
    """Write seq_NNNNN.bits files plus the manifest; returns the manifest path."""
    outdir = Path(outdir)
    if material is None:
        material = material_from_seed(spec.seed, spec.rounds)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for i, data in enumerate(iter_sequences(spec, material)):
            (outdir / f"seq_{i:05d}.bits").write_bytes(data)
    except OSError as exc:
        raise IoFailure(f"cannot write corpus under {outdir}: {exc}") from exc
    manifest_path = outdir / MANIFEST_NAME
    files.write(manifest_path, json.dumps(manifest_dict(spec, material), indent=2).encode())
    return manifest_path


def read_manifest(path) -> tuple[CorpusSpec, Origin]:
    """The spec that replays a manifest's corpus and its material's origin
    (quantum only if the manifest holds JSON true)."""
    try:
        manifest = json.loads(Path(path).read_text())
    except OSError as exc:
        raise IoFailure(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoFailure(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise IoFailure(f"manifest {path} is not a JSON object")
    if manifest.get("version") != MANIFEST_VERSION:
        raise IoFailure(f"unsupported manifest version in {path}")
    try:
        spec = CorpusSpec(
            seed=bytes.fromhex(manifest["seed"]),
            count=int(manifest["count"]),
            bits=int(manifest["bits"]),
            rounds=int(manifest["rounds"]),
            counter=int(manifest["counter"]),
        )
        material = manifest["material"]
        return spec, Origin(str(material["source"]), material["is_quantum"] is True)
    except (KeyError, TypeError, ValueError) as exc:
        raise IoFailure(f"manifest {path} is malformed: {exc!r}") from exc
