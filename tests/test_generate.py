import json

import pytest

from qrechacha import IoFailure
from qrechacha.generate import CorpusSpec, iter_sequences, spec_from_manifest, write_corpus

SPEC = CorpusSpec(seed=b"corpus-tests", count=3, bits=1001, rounds=8, counter=5)


def test_manifest_replays_the_written_corpus(tmp_path):
    manifest = write_corpus(SPEC, tmp_path)
    spec = spec_from_manifest(manifest)
    assert spec == SPEC
    written = [p.read_bytes() for p in sorted(tmp_path.glob("seq_*.bits"))]
    assert len(written) == SPEC.count
    assert list(iter_sequences(spec)) == written


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("seed"),
    lambda doc: doc.update(seed="not hex"),
    lambda doc: doc.update(count="three"),
], ids=["no-seed", "non-hex-seed", "non-integer-count"])
def test_malformed_fields_are_io_failures(tmp_path, edit):
    manifest = write_corpus(SPEC, tmp_path)
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(IoFailure):
        spec_from_manifest(manifest)


def test_manifest_that_is_not_an_object_is_io_failure(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[1, 2, 3]")
    with pytest.raises(IoFailure):
        spec_from_manifest(manifest)
