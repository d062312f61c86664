import json

import pytest

from qrechacha import DeterministicProvider, IoFailure, Origin, QrnPool, derive_session
from qrechacha.generate import CorpusSpec, iter_sequences, read_manifest, write_corpus

SPEC = CorpusSpec(seed=b"corpus-tests", count=3, bits=1001, rounds=8, counter=5)


def test_manifest_replays_the_written_corpus(tmp_path):
    manifest = write_corpus(SPEC, tmp_path)
    spec, origin = read_manifest(manifest)
    assert spec == SPEC
    assert origin == Origin("seed-derived", False)
    written = [p.read_bytes() for p in sorted(tmp_path.glob("seq_*.bits"))]
    assert len(written) == SPEC.count
    assert list(iter_sequences(spec)) == written


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("seed"),
    lambda doc: doc.update(seed="not hex"),
    lambda doc: doc.update(count="three"),
    lambda doc: doc.pop("material"),
    lambda doc: doc["material"].pop("is_quantum"),
], ids=["no-seed", "non-hex-seed", "non-integer-count", "no-material", "no-quantum-flag"])
def test_malformed_fields_are_io_failures(tmp_path, edit):
    manifest = write_corpus(SPEC, tmp_path)
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(IoFailure):
        read_manifest(manifest)


def test_manifest_that_is_not_an_object_is_io_failure(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[1, 2, 3]")
    with pytest.raises(IoFailure):
        read_manifest(manifest)


def test_manifest_copies_the_material_origin(tmp_path):
    pool = QrnPool.create(tmp_path / "q.qrnp", bytes(range(80)), is_quantum=True)
    cases = [
        (derive_session(pool, 8), Origin("pool:q.qrnp", True)),
        (derive_session(DeterministicProvider(b"d"), 8), DeterministicProvider(b"d").origin),
    ]
    for i, (material, want) in enumerate(cases):
        doc = json.loads(write_corpus(SPEC, tmp_path / str(i), material).read_text())
        assert doc["material"]["source"] == want.identity
        assert doc["material"]["is_quantum"] is want.is_quantum
        assert read_manifest(tmp_path / str(i) / "manifest.json")[1] == want


def test_only_json_true_reads_as_quantum(tmp_path):
    manifest = write_corpus(SPEC, tmp_path)
    doc = json.loads(manifest.read_text())
    for flag, want in ((True, True), ("true", False), (1, False)):
        doc["material"]["is_quantum"] = flag
        manifest.write_text(json.dumps(doc))
        assert read_manifest(manifest)[1].is_quantum is want
