import os
import stat
import threading

import pytest

from qrechacha import files
from qrechacha.cipher import QrnSessionMaterial
from qrechacha.errors import IoFailure, ParamError
from qrechacha.qrn import DeterministicProvider, QrnPool, derive_session, write_material


def _pool(path, seed=b"new"):
    QrnPool.create(path, DeterministicProvider(seed).take(256), is_quantum=True)


def _material(path, seed=b"new"):
    write_material(path, derive_session(DeterministicProvider(seed), 8))


SECRET_WRITERS = [_pool, _material]


def _failing_fsync(fd):
    raise OSError(5, "Input/output error")


@pytest.mark.parametrize("writer", SECRET_WRITERS)
def test_failed_sync_leaves_the_old_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "secret"
    writer(path, b"old")
    old = path.read_bytes()
    monkeypatch.setattr(os, "fsync", _failing_fsync)
    with pytest.raises(IoFailure):
        writer(path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["secret"]


@pytest.mark.parametrize("writer", SECRET_WRITERS)
@pytest.mark.parametrize("existing", [None, 0o644])
def test_secret_is_owner_only_before_its_first_sync(tmp_path, monkeypatch, writer, existing):
    path = tmp_path / "secret"
    if existing is not None:
        path.write_bytes(b"old")
        path.chmod(existing)
    synced = []  # (mode, is it already the file at path?) per fsync
    real_fsync = os.fsync

    def recording_fsync(fd):
        st = os.fstat(fd)
        synced.append((stat.S_IMODE(st.st_mode), path.exists() and os.path.samestat(st, path.stat())))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    old = os.umask(0o022)
    try:
        writer(path)
    finally:
        os.umask(old)
    assert synced == [(0o600, False)]
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_replaced_file_keeps_its_mode(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b"old")
    path.chmod(0o640)
    files.write(path, b"new ", b"bytes")
    assert path.read_bytes() == b"new bytes"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_fifo_is_written_through_and_keeps_its_mode(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo, 0o644)
    fifo.chmod(0o644)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        files.write(fifo, b"secret", mode=0o600)
    finally:
        reader.join(timeout=30)
    assert got == [b"secret"]
    assert stat.S_IMODE(fifo.stat().st_mode) == 0o644


def test_unwritable_directory_is_an_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        files.write(tmp_path / "absent" / "f", b"x")


def test_pool_is_never_sent_to_stdout():
    # a pool is reopened by its path once written
    with pytest.raises(ParamError):
        QrnPool.create("-", bytes(16))


def test_material_replaces_a_symlink_target(tmp_path):
    target = tmp_path / "target.bin"
    target.write_bytes(b"old")
    (tmp_path / "link.bin").symlink_to(target)
    write_material(tmp_path / "link.bin", QrnSessionMaterial.zero(8))
    assert (tmp_path / "link.bin").is_symlink()
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert len(target.read_bytes()) == 4 + 16 * 5 + 2
