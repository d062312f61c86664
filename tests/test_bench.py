import json
import platform

import numpy as np
import pytest

from qrechacha import InsufficientResults, ParamError, compare_report, run_sweep
from qrechacha.bench import BenchResult

from gate_detail import paired_detail


def test_bench_result_fields():
    (res,) = run_sweep([("chacha", 8)], sizes_mb=(1,), reps=5)
    assert res.cipher == "chacha"
    assert res.rounds == 8
    assert res.payload_bytes == 1_000_000
    assert res.repetitions == 5
    assert len(res.times) == 5
    assert res.mean_seconds == pytest.approx(sum(res.times) / 5)
    assert res.mbps == pytest.approx(res.payload_bytes / res.mean_seconds / 1e6)
    assert res.ns_per_byte == pytest.approx(res.mean_seconds / res.payload_bytes * 1e9)


def test_timed_calls_run_without_gc(monkeypatch):
    import gc

    from qrechacha import bench

    seen = []
    monkeypatch.setattr(bench, "xor_stream", lambda *args: seen.append(gc.isenabled()))
    run_sweep([("chacha", 8)], sizes_mb=(0.001,), reps=5)
    assert seen == [True] + [False] * 5  # untimed warm-up, then the timed reps
    assert gc.isenabled()


def test_warm_ups_first_largest_size_first(monkeypatch):
    from qrechacha import bench

    seen = []
    monkeypatch.setattr(bench, "xor_stream", lambda p, m, data: seen.append((len(data), p)))
    run_sweep([("chacha", 8), ("chacha", 20)], sizes_mb=(0.001, 0.003, 0.002), reps=5)
    sizes = [n for n, _ in seen]
    assert sizes[:6] == [3000] * 2 + [2000] * 2 + [1000] * 2
    assert sizes[6:] == [1000] * 10 + [3000] * 10 + [2000] * 10
    assert len({id(p) for _, p in seen}) == len(seen)  # a fresh key for every call


def test_validation():
    with pytest.raises(ParamError):
        run_sweep([("rc4", 8)], sizes_mb=(0.001,))
    with pytest.raises(ParamError):
        run_sweep([("chacha", 8)], sizes_mb=(0.001,), reps=4)
    with pytest.raises(ParamError):
        run_sweep([("chacha", 8)], sizes_mb=(1,), reps=2)
    for size in (0, -1, float("nan"), float("inf"), 1e30):
        with pytest.raises(ParamError):
            run_sweep([("chacha", 8)], sizes_mb=(size,))


def test_qre_material_is_prederived():
    # timing a qre run must not blow up relative to chacha on tiny payloads
    (res,) = run_sweep([("qre-chacha", 8)], sizes_mb=(0.065536,), reps=5)
    assert len(res.times) == 5
    assert all(t > 0 for t in res.times)


def test_scaling_roughly_linear():
    a, b = run_sweep([("chacha", 8)], sizes_mb=(4, 8), reps=5)
    ratio = b.mean_seconds / a.mean_seconds
    # doubling payload ~ doubles time
    assert 1.5 <= ratio <= 2.5, f"mean ratio {ratio:.3f}; {paired_detail('4MB', a, '8MB', b)}"


def _stub_results():
    mk = lambda cipher, rounds, size, t: BenchResult(cipher, rounds, size, 5, [t] * 5)
    out = []
    for size in (10_000_000, 20_000_000):
        out.append(mk("qre-chacha", 8, size, size * 1e-8))
        out.append(mk("chacha", 8, size, size * 1e-8))
        out.append(mk("chacha", 20, size, 2 * size * 1e-8))
    return out


def test_compare_report_identical_results_ratio_one():
    results = _stub_results()
    ratios = compare_report(results).ratio_matrix()
    assert ratios["qre-chacha8"]["chacha8"] == pytest.approx(1.0)
    assert ratios["chacha20"]["chacha8"] == pytest.approx(2.0)
    assert ratios["chacha8"]["chacha8"] == pytest.approx(1.0)


def test_compare_report_requires_two_results():
    with pytest.raises(InsufficientResults):
        compare_report([])
    with pytest.raises(InsufficientResults):
        compare_report(_stub_results()[:1])


def test_csv_columns_pinned():
    csv = compare_report(_stub_results()).to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "cipher,rounds,bytes,reps,mean_s,mbps"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "qre-chacha" and first[1] == "8" and first[2] == "10000000"


def test_text_table_shape():
    text = compare_report(_stub_results()).to_text()
    assert "10 MB" in text and "20 MB" in text
    assert "qre-chacha8" in text and "chacha20" in text


def test_json_report():
    doc = json.loads(compare_report(_stub_results()).to_json())
    assert doc["kind"] == "bench"
    assert doc["warmup_reps"] == 1
    assert doc["clock"] == "perf_counter"
    assert doc["clock_resolution_s"] > 0
    assert len(doc["results"]) == 6


def test_env_stamp():
    from qrechacha import __version__, vector

    report = compare_report(_stub_results())
    env = json.loads(report.to_json())["env"]
    assert env == {"qrechacha": __version__, "numpy": np.__version__,
                   "python": platform.python_version(), "chunk_blocks": vector.CHUNK_BLOCKS}
    head = report.to_text().splitlines()[0]
    assert head == "env: " + "  ".join(f"{k} {v}" for k, v in env.items())
    assert "env" not in report.to_csv()
