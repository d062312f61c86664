import http.server
import io
import json
import os
import stat
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import qrechacha
from qrechacha import CipherParams, vector, xor_stream
from qrechacha.cli import main
from qrechacha.qrn import DeterministicProvider, QrnPool
from qrechacha.randtests import battery_run, bits_from_bytes

SEED = "aa" * 32


@pytest.fixture
def keydir(tmp_path):
    (tmp_path / "k.bin").write_bytes(bytes(range(32)))
    (tmp_path / "n.bin").write_bytes(bytes(12))
    return tmp_path


def run_cli(*args):
    return main([str(a) for a in args])


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: text and bytes writes both fail."""

    def write(self, data):
        raise BrokenPipeError(32, "Broken pipe")

    @property
    def buffer(self):
        return self


class TestEncryptDecrypt:
    def test_round_trip_with_material(self, keydir):
        pool = keydir / "pool.qrnp"
        assert run_cli("qrn", "init", "--bytes", 4096, "--seed", "beef", "--out", pool) == 0
        material = keydir / "mat.bin"
        assert run_cli("material", "derive", "--pool", pool, "--rounds", 8,
                       "--out", material) == 0
        msg = os.urandom(100_000)
        (keydir / "plain").write_bytes(msg)
        assert run_cli("encrypt", "--rounds", 8, "--key", keydir / "k.bin",
                       "--nonce", keydir / "n.bin", "--material", material,
                       "--in", keydir / "plain", "--out", keydir / "ct") == 0
        assert (keydir / "ct").read_bytes() != msg
        assert run_cli("decrypt", "--rounds", 8, "--key", keydir / "k.bin",
                       "--nonce", keydir / "n.bin", "--material", material,
                       "--in", keydir / "ct", "--out", keydir / "pt") == 0
        assert (keydir / "pt").read_bytes() == msg

    def test_plain_chacha_without_material(self, keydir):
        (keydir / "plain").write_bytes(b"attack at dawn")
        assert run_cli("encrypt", "--key", keydir / "k.bin", "--nonce", keydir / "n.bin",
                       "--in", keydir / "plain", "--out", keydir / "ct") == 0
        assert run_cli("decrypt", "--key", keydir / "k.bin", "--nonce", keydir / "n.bin",
                       "--in", keydir / "ct", "--out", keydir / "pt") == 0
        assert (keydir / "pt").read_bytes() == b"attack at dawn"

    def test_missing_input_is_io_error(self, keydir):
        assert run_cli("encrypt", "--key", keydir / "k.bin", "--nonce", keydir / "n.bin",
                       "--in", keydir / "absent", "--out", keydir / "ct") == 3

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("encrypt", "--key")
        assert exc.value.code == 2


def _crypt_args(keydir, *extra):
    return ("encrypt", "--rounds", 8, "--key", keydir / "k.bin", "--nonce", keydir / "n.bin",
            *extra)


def _want(counter, data):
    params = CipherParams.from_bytes(bytes(range(32)), bytes(12), counter, 8)
    return bytes(xor_stream(params, None, data))


class TestStreamedCrypt:
    """encrypt/decrypt stream pieces of vector.CHUNK_BLOCKS blocks; a width
    of 3 blocks puts many piece edges inside small inputs."""

    @pytest.fixture(autouse=True)
    def narrow_pieces(self, monkeypatch):
        monkeypatch.setattr(vector, "CHUNK_BLOCKS", 3)

    @pytest.mark.parametrize("size", [0, 1, 191, 192, 193, 1000, 64 * 7])
    def test_pieces_equal_one_call(self, keydir, size):
        msg = os.urandom(size)
        (keydir / "plain").write_bytes(msg)
        assert run_cli(*_crypt_args(keydir, "--counter", 5, "--in", keydir / "plain",
                                    "--out", keydir / "ct")) == 0
        assert (keydir / "ct").read_bytes() == _want(5, msg)

    def test_in_place(self, keydir):
        msg = os.urandom(1000)
        (keydir / "f").write_bytes(msg)
        (keydir / "f").chmod(0o600)
        assert run_cli(*_crypt_args(keydir, "--in", keydir / "f", "--out", keydir / "f")) == 0
        assert (keydir / "f").read_bytes() == _want(0, msg)
        assert stat.S_IMODE((keydir / "f").stat().st_mode) == 0o600
        assert sorted(p.name for p in keydir.iterdir()) == ["f", "k.bin", "n.bin"]

    def test_symlinked_output_keeps_the_link(self, keydir):
        msg = os.urandom(1000)
        (keydir / "plain").write_bytes(msg)
        (keydir / "target").write_bytes(b"old")
        (keydir / "link").symlink_to(keydir / "target")
        assert run_cli(*_crypt_args(keydir, "--in", keydir / "plain", "--out", keydir / "link")) == 0
        assert (keydir / "link").is_symlink()
        assert (keydir / "target").read_bytes() == _want(0, msg)

    def test_fifo_output_is_written_through(self, keydir):
        msg = os.urandom(1000)
        (keydir / "plain").write_bytes(msg)
        fifo = keydir / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            assert run_cli(*_crypt_args(keydir, "--in", keydir / "plain", "--out", fifo)) == 0
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [_want(0, msg)]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)

    def test_stdin_to_stdout(self, keydir, monkeypatch):
        msg = os.urandom(1000)
        out = io.BytesIO()
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(msg)))
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(buffer=out))
        assert run_cli(*_crypt_args(keydir, "--counter", 9, "--in", "-", "--out", "-")) == 0
        assert out.getvalue() == _want(9, msg)

    def test_counter_overflow_leaves_no_output(self, keydir):
        (keydir / "plain").write_bytes(bytes(1000))
        (keydir / "old").write_bytes(b"kept")
        for out in ("ct", "old"):
            assert run_cli(*_crypt_args(keydir, "--counter", 2**32 - 10, "--in", keydir / "plain",
                                        "--out", keydir / out)) == 2
        assert (keydir / "old").read_bytes() == b"kept"
        assert sorted(p.name for p in keydir.iterdir()) == ["k.bin", "n.bin", "old", "plain"]

    def test_counter_overflow_from_a_pipe_removes_partial_output(self, keydir, monkeypatch):
        # the size of a pipe is unknown, so whole pieces are written before
        # the overflow shows; the temporary file must go with them
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(bytes(1000))))
        assert run_cli(*_crypt_args(keydir, "--counter", 2**32 - 10, "--in", "-",
                                    "--out", keydir / "ct")) == 2
        assert sorted(p.name for p in keydir.iterdir()) == ["k.bin", "n.bin"]

    def test_last_block_at_max_counter(self, keydir):
        msg = os.urandom(10 * 64)
        (keydir / "plain").write_bytes(msg)
        assert run_cli(*_crypt_args(keydir, "--counter", 2**32 - 10, "--in", keydir / "plain",
                                    "--out", keydir / "ct")) == 0
        assert (keydir / "ct").read_bytes() == _want(2**32 - 10, msg)


class TestKeystream:
    def test_single_sequence_size(self, tmp_path):
        out = tmp_path / "ks"
        assert run_cli("keystream", "--count", 1, "--bits", 512, "--rounds", 8,
                       "--seed", SEED, "--out-dir", out) == 0
        data = (out / "seq_00000.bits").read_bytes()
        assert len(data) == 64

    def test_manifest_replay_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("keystream", "--count", 3, "--bits", 1000, "--rounds", 8,
                           "--seed", SEED, "--out-dir", out) == 0
        for i in range(3):
            name = f"seq_{i:05d}.bits"
            assert (a / name).read_bytes() == (b / name).read_bytes()
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["seed"] == SEED
        assert manifest["count"] == 3
        assert "keys" not in manifest

    def test_debug_keys_flag_is_gone(self, tmp_path):
        # the manifest's seed and key_derivation already replay every key
        with pytest.raises(SystemExit) as exc:
            run_cli("keystream", "--count", 2, "--bits", 256, "--seed", SEED,
                    "--debug-keys", "--out-dir", tmp_path / "ks")
        assert exc.value.code == 2
        assert not (tmp_path / "ks").exists()

    @pytest.mark.parametrize("argv", [
        ("keystream", "--bits", 256, "--seed", SEED, "--quantum", "--out-dir", "ks"),
        ("test", "--sequences", 2, "--bits", 1000, "--seed", "00", "--quantum"),
        ("material", "derive", "--seed", "00", "--rounds", 8, "--non-quantum", "--out", "m.bin"),
    ])
    def test_quantum_flags_are_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


class TestQrnCommands:
    def test_init_and_status(self, tmp_path, capsys):
        pool_path = tmp_path / "p.qrnp"
        assert run_cli("qrn", "init", "--bytes", 1024, "--out", pool_path) == 0
        assert run_cli("qrn", "status", "--pool", pool_path) == 0
        out = capsys.readouterr().out
        assert "1024" in out
        assert QrnPool(pool_path).total_bytes == 1024

    def test_fetch_via_stub(self, tmp_path):
        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(200)
                self.end_headers()
                self.wfile.write(bytes(range(64)))

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            pool_path = tmp_path / "p.qrnp"
            url = f"http://127.0.0.1:{server.server_port}/qrn"
            assert run_cli("qrn", "fetch", "--endpoint", url, "--bytes", 64,
                           "--out", pool_path) == 0
            pool = QrnPool(pool_path)
            assert pool.total_bytes == 64
            assert pool.cursor_bytes == 0
        finally:
            server.shutdown()

    def test_test_pool_reopens_non_quantum(self, tmp_path, capsys):
        pool_path = tmp_path / "p.qrnp"
        assert run_cli("qrn", "init", "--bytes", 4000, "--seed", "aa", "--out", pool_path) == 0
        pool = QrnPool(pool_path)
        assert pool.origin.is_quantum is False
        report = battery_run([bits_from_bytes(pool.take(2000), 16_000)], suite="gmt",
                             origin=pool.origin)
        assert report.origin.is_quantum is False
        assert run_cli("material", "derive", "--pool", pool_path, "--rounds", 8,
                       "--out", tmp_path / "m.bin") == 0
        assert "(non-quantum)" in capsys.readouterr().out

    def test_secret_files_are_owner_only(self, tmp_path):
        old = os.umask(0o022)
        try:
            assert run_cli("qrn", "init", "--bytes", 1000, "--out", tmp_path / "p.qrnp") == 0
            assert run_cli("material", "derive", "--pool", tmp_path / "p.qrnp", "--rounds", 8,
                           "--out", tmp_path / "m.bin") == 0
        finally:
            os.umask(old)
        for name in ("p.qrnp", "m.bin"):
            assert (tmp_path / name).stat().st_mode & 0o077 == 0, name

    def test_pool_to_stdout_is_a_usage_error(self, capsys):
        assert run_cli("qrn", "init", "--bytes", 16, "--out", "-") == 2
        assert capsys.readouterr().out == ""

    def test_pool_exhausted_exit_code(self, tmp_path):
        pool_path = tmp_path / "p.qrnp"
        run_cli("qrn", "init", "--bytes", 16, "--out", pool_path)
        assert run_cli("material", "derive", "--pool", pool_path, "--rounds", 8,
                       "--out", tmp_path / "m.bin") == 4


# every row applicable at this size, and the battery passes
PASSING_BATTERY = ("--sequences", 10, "--bits", 20_000, "--suite", "gmt", "--seed", SEED)


class TestBattery:
    def test_generated_battery_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = run_cli("test", "--suite", "both", "--sequences", 10, "--bits", 300_000,
                       "--rounds", 8, "--seed", SEED, "--report", report)
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["kind"] == "battery"
        assert doc["sequences"] == 10
        assert doc["provider"]["is_quantum"] is False
        assert doc["passed"] is True
        assert len(doc["results"]) == 27

    def test_report_written_before_a_broken_pipe(self, tmp_path, monkeypatch, capsys):
        # `| head -1`: the reader leaving loses only text it did not want
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        report = tmp_path / "r.json"
        assert run_cli("test", *PASSING_BATTERY, "--report", report) == 0
        assert json.loads(report.read_text())["kind"] == "battery"
        assert capsys.readouterr().err == ""

    def test_failed_report_write_keeps_the_old_report(self, tmp_path, monkeypatch):
        report = tmp_path / "r.json"
        report.write_text("old")

        def failing_fsync(fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        assert run_cli("test", *PASSING_BATTERY, "--report", report) == 3
        assert report.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_failed_battery_keeps_exit_5_on_a_broken_pipe(self, tmp_path, monkeypatch, capsys):
        seqdir = tmp_path / "seqs"
        seqdir.mkdir()
        for i in range(10):
            (seqdir / f"seq_{i:05d}.bits").write_bytes(bytes(37_500))
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        report = tmp_path / "r.json"
        assert run_cli("test", "--suite", "gmt", "--bits", 300_000, "--input-dir", seqdir,
                       "--report", report) == 5
        assert json.loads(report.read_text())["passed"] is False
        assert "i/o error" not in capsys.readouterr().err

    def test_report_to_a_broken_pipe_is_an_io_failure(self, monkeypatch):
        # --report - is output that was asked for, so losing it is exit 3
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run_cli("test", *PASSING_BATTERY, "--report", "-") == 3

    def test_closed_stdout_of_a_real_process(self, tmp_path):
        # the text left in stdout's buffer must not fail again at exit
        src = str(Path(qrechacha.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qrechacha.cli", "test", *map(str, PASSING_BATTERY),
                 "--report", str(tmp_path / "r.json")],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert (tmp_path / "r.json").exists()

    def test_one_all_zero_sequence_fails(self, tmp_path, capsys):
        # one sequence puts the band's lower edge at 0.69 of a count: it
        # rounds to 1, so 0 of 1 passing fails the row
        seqdir = tmp_path / "seqs"
        seqdir.mkdir()
        (seqdir / "seq_00000.bits").write_bytes(bytes(2500))
        assert run_cli("test", "--suite", "gmt", "--bits", 20_000, "--input-dir", seqdir) == 5
        out = capsys.readouterr().out
        assert out.rstrip().splitlines()[-1].startswith("overall: FAIL (failed: gmt/frequency")

    def test_verdict_names_rows_not_run_apart_from_failed_rows(self, tmp_path, capsys):
        # serial m=16 cannot run at 20 000 bits: the verdict says so instead
        # of counting those rows among the failures; exit code and JSON keep
        # their meaning
        report = tmp_path / "r.json"
        assert run_cli("test", "--suite", "nist", "--sequences", 2, "--bits", 20_000,
                       "--seed", "00", "--report", report) == 5
        assert capsys.readouterr().out.rstrip().splitlines()[-1] == (
            "overall: FAIL (not applicable at 20000 bits: nist/serial_p1, nist/serial_p2)")
        doc = json.loads(report.read_text())
        assert doc["passed"] is False
        assert set(doc) == {"kind", "suite", "alpha", "alpha_uniformity", "sequences",
                            "bits_per_sequence", "provider", "passed", "results"}
        seqdir = tmp_path / "seqs"
        seqdir.mkdir()
        for i in range(10):
            (seqdir / f"seq_{i:05d}.bits").write_bytes(bytes(2500))
        assert run_cli("test", "--suite", "nist", "--bits", 20_000, "--input-dir", seqdir) == 5
        verdict = capsys.readouterr().out.rstrip().splitlines()[-1]
        assert verdict.startswith("overall: FAIL (failed: nist/frequency, ")
        assert verdict.endswith("; not applicable at 20000 bits: nist/serial_p1, nist/serial_p2)")

    def test_bits_help_gives_the_length_every_row_needs(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("test", "--help")
        text = " ".join(capsys.readouterr().out.split())
        assert "from 262145 bits for nist and both" in text
        assert "from 10240 for gmt" in text
        bits = np.random.default_rng(3).integers(0, 2, 262_145, dtype=np.uint8)
        for suite, shortest in (("nist", 262_145), ("both", 262_145), ("gmt", 10_240)):
            runs_all = lambda n: all(line.applicable for line in
                                     battery_run([bits[:n]], suite=suite).lines)
            assert runs_all(shortest) and not runs_all(shortest - 1), suite

    def test_constant_input_fails_with_exit_5(self, tmp_path):
        seqdir = tmp_path / "seqs"
        seqdir.mkdir()
        for i in range(10):
            (seqdir / f"seq_{i:05d}.bits").write_bytes(bytes(37_500))
        code = run_cli("test", "--suite", "gmt", "--bits", 300_000,
                       "--input-dir", seqdir)
        assert code == 5


class TestProvenance:
    """Whether output is quantum follows the recorded origin of its bytes."""

    ARGS = PASSING_BATTERY

    def battery_origin(self, tmp_path, *argv):
        report = tmp_path / "r.json"
        assert run_cli("test", *argv, "--report", report) == 0
        return json.loads(report.read_text())["provider"]

    def test_seed_derived_material_is_not_quantum(self, tmp_path):
        material = tmp_path / "m.bin"
        assert run_cli("material", "derive", "--seed", "00", "--rounds", 8,
                       "--out", material) == 0
        provider = self.battery_origin(tmp_path, *self.ARGS, "--material", material)
        assert provider == {"identity": str(material), "is_quantum": False}
        assert run_cli("keystream", "--bits", 256, "--seed", SEED, "--material", material,
                       "--out-dir", tmp_path / "ks") == 0
        manifest = json.loads((tmp_path / "ks" / "manifest.json").read_text())
        assert manifest["material"]["is_quantum"] is False

    def test_quantum_pool_material_stays_quantum(self, tmp_path):
        pool = tmp_path / "q.qrnp"
        QrnPool.create(pool, DeterministicProvider(b"q").take(1000), is_quantum=True)
        material = tmp_path / "m.bin"
        assert run_cli("material", "derive", "--pool", pool, "--rounds", 8,
                       "--out", material) == 0
        provider = self.battery_origin(tmp_path, *self.ARGS, "--material", material)
        assert provider == {"identity": str(material), "is_quantum": True}

        corpus = tmp_path / "ks"
        assert run_cli("keystream", "--count", 10, "--bits", 20_000, "--seed", SEED,
                       "--material", material, "--out-dir", corpus) == 0
        manifest = json.loads((corpus / "manifest.json").read_text())["material"]
        assert (manifest["source"], manifest["is_quantum"]) == (str(material), True)
        args = ("--bits", 20_000, "--suite", "gmt", "--input-dir", corpus)
        assert self.battery_origin(tmp_path, *args)["is_quantum"] is True
        (corpus / "manifest.json").unlink()
        assert self.battery_origin(tmp_path, *args) == {
            "identity": f"files:{corpus}", "is_quantum": False}


class TestAnalysisCommands:
    def test_avalanche(self, tmp_path):
        report = tmp_path / "av.json"
        assert run_cli("avalanche", "--rounds", 8, "--trials", 1000, "--flip", "key:7",
                       "--rng-seed", 3, "--report", report) == 0
        doc = json.loads(report.read_text())
        assert doc["kind"] == "avalanche"
        assert 0.4 < doc["aggregate"] < 0.6

    def test_diffprob(self, tmp_path):
        report = tmp_path / "dp.json"
        din = "80000000 " + "0 " * 7 + "80000000 " + "0 " * 3 + "80008000 0 0 0"
        dout = "88000000 0 0 0 0 40404404 0 0 0 0 808088 0 0 0 0 800088"
        assert run_cli("diffprob", "--rounds", 2, "--samples", 10_000,
                       "--input-diff", din, "--output-diff", dout,
                       "--rng-seed", 1, "--report", report) == 0
        doc = json.loads(report.read_text())
        assert doc["kind"] == "diffprob"
        assert doc["probability"] > 0

    @pytest.mark.parametrize("argv", [
        ("avalanche", "--trials", 1000, "--rng-seed", 3),
        ("diffprob", "--rounds", 2, "--samples", 10_000, "--input-diff", "80000000" + " 0" * 15,
         "--output-diff", "80000000" + " 0" * 15, "--rng-seed", 1),
    ])
    def test_txt_report_is_the_printed_text(self, tmp_path, capsys, argv):
        report = tmp_path / "x.txt"
        assert run_cli(*argv, "--report", report) == 0
        printed = capsys.readouterr().out
        assert report.read_text() == printed
        assert printed.startswith(argv[0] + " rounds=") and len(printed.splitlines()) == 2

    def test_diffprob_bad_diff_is_usage_error(self):
        assert run_cli("diffprob", "--rounds", 2, "--input-diff", "1 2 3",
                       "--output-diff", "0 " * 16) == 2


class TestBenchCommand:
    def test_tiny_sweep_csv(self, tmp_path):
        report = tmp_path / "bench.csv"
        assert run_cli("bench", "--sizes", "0.5,1", "--reps", 5,
                       "--ciphers", "chacha:8,chacha:20", "--report", report) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "cipher,rounds,bytes,reps,mean_s,mbps"
        assert len(lines) == 5


DIFF = " ".join(["80000000"] + ["0"] * 15)
BAD_DIFF = " ".join(["zz"] + ["0"] * 15)


class TestMalformedFlagValues:
    @pytest.mark.parametrize("argv", [
        ("keystream", "--bits", 512, "--seed", "nothex", "--out-dir", "{tmp}/ks"),
        ("test", "--sequences", 1, "--bits", 1000, "--seed", "zz"),
        ("qrn", "init", "--bytes", 16, "--seed", "xyz", "--out", "{tmp}/p.qrnp"),
        ("qrn", "init", "--bytes", -1, "--out", "{tmp}/p.qrnp"),
        ("material", "derive", "--seed", "0g", "--rounds", 8, "--out", "{tmp}/m.bin"),
        ("diffprob", "--rounds", 2, "--input-diff", BAD_DIFF, "--output-diff", DIFF),
        ("diffprob", "--rounds", 2, "--input-diff", DIFF, "--output-diff", BAD_DIFF),
        ("avalanche", "--trials", 1000, "--flip", "key:x"),
        ("bench", "--ciphers", "chacha:x", "--sizes", "0.001"),
        ("bench", "--sizes", "a"),
        ("bench", "--sizes", "nan"),
        ("bench", "--sizes", "inf"),
        ("test", "--sequences", 2, "--bits", 1000, "--seed", "00", "--alpha", 2),
        ("test", "--sequences", 2, "--bits", 1000, "--seed", "00", "--alpha", -1),
        ("avalanche", "--trials", 1000, "--rng-seed", -1),
        ("diffprob", "--rounds", 2, "--input-diff", DIFF, "--output-diff", DIFF, "--rng-seed", -1),
        ("test", "--sequences", 2, "--bits", 1000, "--seed", "00", "--jobs", 0),
        ("test", "--sequences", 2, "--bits", 1000, "--seed", "00", "--jobs", -1),
    ])
    def test_exit_code_2(self, tmp_path, argv):
        assert run_cli(*(str(a).format(tmp=tmp_path) for a in argv)) == 2

    def test_avalanche_material_for_other_rounds(self, tmp_path):
        material = tmp_path / "m20.bin"
        assert run_cli("material", "derive", "--seed", SEED, "--rounds", 20,
                       "--out", material) == 0
        assert run_cli("avalanche", "--rounds", 8, "--trials", 1000,
                       "--material", material) == 2

    def test_diffprob_material_for_other_rounds(self, tmp_path):
        material = tmp_path / "m4.bin"
        assert run_cli("material", "derive", "--seed", SEED, "--rounds", 4,
                       "--out", material) == 0
        assert run_cli("diffprob", "--rounds", 2, "--samples", 10_000, "--input-diff", DIFF,
                       "--output-diff", DIFF, "--material", material) == 2
