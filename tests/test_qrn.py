import http.server
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import qrechacha
from qrechacha import (
    DecodeError,
    DeterministicProvider,
    IoFailure,
    MalformedMaterial,
    NetworkFailure,
    Origin,
    ParamError,
    PoolExhausted,
    QrnPool,
    QrnSessionMaterial,
    ShortResponse,
    derive_session,
    fetch_remote,
    material_bytes_needed,
    read_material,
    session_parse,
    session_serialize,
    write_material,
)
from qrechacha.qrn import BODY_BYTES_PER_BYTE


class TestPool:
    def test_create_roundtrip(self, tmp_path):
        data = bytes(range(256)) * 4
        pool = QrnPool.create(tmp_path / "p.qrnp", data)
        assert pool.total_bytes == 1024
        assert pool.cursor_bytes == 0
        reopened = QrnPool(tmp_path / "p.qrnp")
        assert reopened.total_bytes == 1024
        assert reopened.remaining == 1024

    def test_empty_payload_rejected(self, tmp_path):
        with pytest.raises(ParamError):
            QrnPool.create(tmp_path / "p.qrnp", b"")

    def test_file_format_bit_exact(self, tmp_path):
        payload = b"\xaa\xbb\xcc\xdd"
        for quantum, flags in ((False, 0), (True, 1)):
            QrnPool.create(tmp_path / "p.qrnp", payload, is_quantum=quantum)
            raw = (tmp_path / "p.qrnp").read_bytes()
            assert raw[0:4] == b"QRNP"
            assert raw[4:6] == (2).to_bytes(2, "little")
            assert raw[6:14] == (4).to_bytes(8, "little")
            assert raw[14:22] == (0).to_bytes(8, "little")
            assert raw[22:24] == flags.to_bytes(2, "little")
            assert raw[24:] == payload

    def test_handcrafted_file_parses(self, tmp_path):
        raw = b"QRNP" + struct.pack("<HQQ", 1, 10, 3) + bytes(range(10))
        (tmp_path / "h.qrnp").write_bytes(raw)
        pool = QrnPool(tmp_path / "h.qrnp")
        assert pool.total_bytes == 10
        assert pool.cursor_bytes == 3
        assert pool.take(2) == bytes([3, 4])
        # version 1 never recorded its source, so it cannot claim quantum
        assert pool.origin == Origin("pool:h.qrnp", False)

    def test_quantum_flag_persists(self, tmp_path):
        for quantum in (False, True):
            path = tmp_path / f"{quantum}.qrnp"
            assert QrnPool.create(path, bytes(64), is_quantum=quantum).origin.is_quantum is quantum
            pool = QrnPool(path)
            assert pool.origin == Origin(f"pool:{quantum}.qrnp", quantum)
            pool.take(16)  # re-reading the header keeps the flag
            assert pool.origin.is_quantum is quantum
        assert QrnPool.create(tmp_path / "d.qrnp", bytes(64)).origin.is_quantum is False

    def test_created_owner_only(self, tmp_path):
        old = os.umask(0o022)
        try:
            path = tmp_path / "p.qrnp"
            path.write_bytes(b"old")
            path.chmod(0o644)  # recreating over a readable file narrows it too
            QrnPool.create(path, bytes(64))
            assert path.stat().st_mode & 0o077 == 0
        finally:
            os.umask(old)

    def test_bad_version_headers(self, tmp_path):
        truncated_v2 = b"QRNP" + struct.pack("<HQQ", 2, 4, 0) + b"\x01"
        unknown = b"QRNP" + struct.pack("<HQQH", 3, 4, 0, 0) + bytes(4)
        for raw in (truncated_v2, unknown):
            (tmp_path / "b.qrnp").write_bytes(raw)
            with pytest.raises(IoFailure):
                QrnPool(tmp_path / "b.qrnp")

    def test_take_zero(self, tmp_path):
        pool = QrnPool.create(tmp_path / "p.qrnp", bytes(64))
        assert pool.take(0) == b""
        assert pool.cursor_bytes == 0

    def test_takes_are_adjacent_and_disjoint(self, tmp_path):
        data = bytes(range(64))
        pool = QrnPool.create(tmp_path / "p.qrnp", data)
        a = pool.take(16)
        b = pool.take(16)
        assert a == data[:16]
        assert b == data[16:32]
        assert pool.cursor_bytes == 32

    def test_cursor_persisted_before_release(self, tmp_path):
        pool = QrnPool.create(tmp_path / "p.qrnp", bytes(range(48)))
        pool.take(10)
        # a fresh handle sees the advanced cursor: consumed bytes never reissue
        again = QrnPool(tmp_path / "p.qrnp")
        assert again.cursor_bytes == 10
        assert again.take(10) == bytes(range(10, 20))

    def test_exhaustion_leaves_cursor(self, tmp_path):
        pool = QrnPool.create(tmp_path / "p.qrnp", bytes(32))
        pool.take(30)
        with pytest.raises(PoolExhausted):
            pool.take(3)
        assert pool.cursor_bytes == 30
        assert pool.take(2) == bytes(2)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad").write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(IoFailure):
            QrnPool(tmp_path / "bad")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            QrnPool(tmp_path / "absent")

    def test_concurrent_takes_are_disjoint(self, tmp_path):
        # two processes race 300 4-byte takes each on one pool; every take
        # must be a distinct 4-byte slot of the payload
        path = tmp_path / "p.qrnp"
        data = b"".join(i.to_bytes(4, "little") for i in range(600))
        QrnPool.create(path, data)
        src = str(Path(qrechacha.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        code = ("import sys; from qrechacha import QrnPool; pool = QrnPool(sys.argv[1]); "
                "print(' '.join(pool.take(4).hex() for _ in range(300)))")
        procs = [subprocess.Popen([sys.executable, "-c", code, str(path)], env=env,
                                  stdout=subprocess.PIPE, text=True) for _ in range(2)]
        takes = []
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            takes += out.split()
        assert sorted(bytes.fromhex(t) for t in takes) == \
            sorted(data[i : i + 4] for i in range(0, len(data), 4))
        assert QrnPool(path).remaining == 0


class TestDeterministicProvider:
    def test_reproducible_stream(self):
        a = DeterministicProvider(b"seed")
        b = DeterministicProvider(b"seed")
        assert a.take(10) + a.take(22) == b.take(32)

    def test_flags(self):
        p = DeterministicProvider(b"seed")
        assert p.origin.is_quantum is False
        assert p.origin.identity.startswith("deterministic:")

    def test_distinct_seeds_differ(self):
        assert DeterministicProvider(b"a").take(32) != DeterministicProvider(b"b").take(32)


class _StubHandler(http.server.BaseHTTPRequestHandler):
    body = b""

    def do_GET(self):
        self.send_response(200)
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/qrn"
    server.shutdown()
    server.server_close()


class TestFetchRemote:
    def test_hex_decode(self, stub_server):
        _StubHandler.body = (b"00112233445566778899aabbccddeeff")  # 32 hex chars
        assert fetch_remote(stub_server, 16, mode="hex") == bytes.fromhex(
            "00112233445566778899aabbccddeeff")

    def test_raw_truncates_long_response(self, stub_server):
        _StubHandler.body = bytes(range(64))
        assert fetch_remote(stub_server, 16, mode="raw") == bytes(range(16))

    def test_short_response(self, stub_server):
        _StubHandler.body = bytes(8)
        with pytest.raises(ShortResponse):
            fetch_remote(stub_server, 16, mode="raw")

    def test_bad_hex(self, stub_server):
        _StubHandler.body = b"not-hex-at-all!!"
        with pytest.raises(DecodeError):
            fetch_remote(stub_server, 4, mode="hex")

    def test_unreachable(self):
        with pytest.raises(NetworkFailure):
            fetch_remote("http://127.0.0.1:9/qrn", 4, timeout=0.5)

    def test_nbytes_substitution(self, stub_server):
        _StubHandler.body = bytes(32)
        assert len(fetch_remote(stub_server + "?n={nbytes}", 32)) == 32

    def test_only_http_schemes(self, tmp_path):
        (tmp_path / "local").write_bytes(bytes(64))
        for url in ((tmp_path / "local").as_uri(), "data:,abcdef", "ftp://127.0.0.1:9/qrn"):
            with pytest.raises(ParamError):
                fetch_remote(url, 3)

    def test_body_read_is_bounded(self, stub_server):
        # hex digits fill the read bound exactly; the garbage after them is
        # never read, so decoding succeeds
        _StubHandler.body = b"11" * (BODY_BYTES_PER_BYTE * 4 // 2) + b"zz" * 100_000
        assert fetch_remote(stub_server, 4, mode="hex") == b"\x11" * 4


class TestDeriveSession:
    def test_byte_budget(self):
        assert material_bytes_needed(8) == 80
        assert material_bytes_needed(20) == 176

    def test_consumption_order(self, tmp_path):
        data = bytes(range(80)) + bytes(176)
        pool = QrnPool.create(tmp_path / "p.qrnp", data)
        mat = derive_session(pool, 8)
        assert pool.cursor_bytes == 80
        assert mat.const_mask == struct.unpack("<4I", bytes(range(16)))
        for i, mask in enumerate(mat.round_masks):
            off = 16 * (i + 1)
            assert mask == struct.unpack("<4I", data[off : off + 16])

    def test_two_derivations_disjoint(self, tmp_path):
        pool = QrnPool.create(tmp_path / "p.qrnp", bytes(range(160)))
        a = derive_session(pool, 8)
        b = derive_session(pool, 8)
        assert a != b
        assert pool.cursor_bytes == 160

    def test_exhausted_pool(self, tmp_path):
        pool = QrnPool.create(tmp_path / "p.qrnp", bytes(79))
        with pytest.raises(PoolExhausted):
            derive_session(pool, 8)

    def test_odd_rounds_rejected(self):
        with pytest.raises(ParamError):
            derive_session(DeterministicProvider(b"s"), 7)

    def test_material_carries_the_source_origin(self, tmp_path):
        pool = QrnPool.create(tmp_path / "q.qrnp", bytes(range(80)), is_quantum=True)
        mat = derive_session(pool, 8)
        assert mat.origin == Origin("pool:q.qrnp", True)
        # the origin takes no part in equality, so the masks compare as before
        assert mat == session_parse(struct.pack("<HH", 1, 8) + bytes(range(80)))
        provider = DeterministicProvider(b"s")
        assert derive_session(provider, 8).origin == provider.origin


class TestSessionSerialization:
    def test_roundtrip_presets(self):
        provider = DeterministicProvider(b"mat")
        for rounds in (8, 12, 20):
            mat = derive_session(provider, rounds)
            assert session_parse(session_serialize(mat)) == mat

    def test_layout(self):
        mat = QrnSessionMaterial((1, 2, 3, 4), ((5, 6, 7, 8),))
        data = session_serialize(mat)
        assert data[:2] == (1).to_bytes(2, "little")
        assert data[2:4] == (2).to_bytes(2, "little")
        assert data[4:] == struct.pack("<8I", 1, 2, 3, 4, 5, 6, 7, 8)

    def test_truncated(self):
        mat = derive_session(DeterministicProvider(b"m"), 8)
        data = session_serialize(mat)
        with pytest.raises(MalformedMaterial):
            session_parse(data[:-1])
        with pytest.raises(MalformedMaterial):
            session_parse(data + b"\x00")
        with pytest.raises(MalformedMaterial):
            session_parse(b"\x01")

    def test_odd_rounds_field(self):
        bad = struct.pack("<HH", 1, 7) + bytes(16 * 4)
        with pytest.raises(MalformedMaterial):
            session_parse(bad)

    def test_bad_version(self):
        bad = struct.pack("<HH", 9, 8) + bytes(80)
        with pytest.raises(MalformedMaterial):
            session_parse(bad)


class TestMaterialFile:
    def test_layout_is_serialization_plus_flags_trailer(self, tmp_path):
        for quantum in (False, True):
            pool = QrnPool.create(tmp_path / "p.qrnp", bytes(range(80)), is_quantum=quantum)
            mat = derive_session(pool, 8)
            write_material(tmp_path / "m.bin", mat)
            raw = (tmp_path / "m.bin").read_bytes()
            assert raw == session_serialize(mat) + int(quantum).to_bytes(2, "little")
            back = read_material(tmp_path / "m.bin")
            assert back == mat
            assert back.origin == Origin(str(tmp_path / "m.bin"), quantum)

    def test_file_without_trailer_is_non_quantum(self, tmp_path):
        mat = derive_session(DeterministicProvider(b"m"), 8)
        (tmp_path / "old.bin").write_bytes(session_serialize(mat))
        back = read_material(tmp_path / "old.bin")
        assert back == mat
        assert back.origin.is_quantum is False

    def test_truncated_file_is_malformed(self, tmp_path):
        mat = derive_session(DeterministicProvider(b"m"), 8)
        write_material(tmp_path / "m.bin", mat)
        raw = (tmp_path / "m.bin").read_bytes()
        for cut in (1, 3):
            (tmp_path / "cut.bin").write_bytes(raw[:-cut])
            with pytest.raises(MalformedMaterial):
                read_material(tmp_path / "cut.bin")

    def test_written_owner_only(self, tmp_path):
        old = os.umask(0o022)
        try:
            write_material(tmp_path / "m.bin", QrnSessionMaterial.zero(8))
            assert (tmp_path / "m.bin").stat().st_mode & 0o077 == 0
        finally:
            os.umask(old)
