import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from qrechacha import DeterministicProvider, ParamError
from qrechacha import ParamTooLarge, SequenceTooShort
from qrechacha.randtests import battery, battery_run, proportion_interval, uniformity_p_value
from qrechacha.randtests import tests as stattests
from qrechacha.randtests.battery import build_plan

RNG = np.random.default_rng(5150)
ORIGIN = DeterministicProvider(b"battery-tests").origin


def make_sequences(count, nbits, rng=RNG):
    return [rng.integers(0, 2, size=nbits, dtype=np.uint8) for _ in range(count)]


def test_interval_matches_reference_values():
    lo, hi = proportion_interval(0.01, 1000)
    assert abs(lo - 0.98056072) < 1e-6
    assert abs(hi - 0.99943928) < 1e-6
    lo100, hi100 = proportion_interval(0.01, 100)
    assert abs(lo100 - 0.96015038) < 1e-6
    assert hi100 == 1.0


@pytest.mark.parametrize("passed, total, ok", [
    (0, 1, False), (1, 1, True),
    (8, 10, False), (9, 10, True),
    (18, 20, True), (17, 20, False),
    (96, 100, True), (95, 100, False),
    (980, 1000, False), (981, 1000, True),
])
def test_pass_count_against_the_band_edge(passed, total, ok):
    # the lower edge rounds to the nearest count: 0.69 of 1, 8.96 of 10,
    # 18.47 of 20, 96.02 of 100, 980.56 of 1000
    line = battery.BatteryLine("r", "r", passed, total, passed / total,
                               proportion_interval(0.01, total), None, [])
    assert line.ok(0.0001) is ok


def test_uniformity_of_uniform_p_values():
    rng = np.random.default_rng(99)
    for _ in range(5):
        p = uniformity_p_value(rng.random(1000))
        assert p >= 1e-4


def test_uniformity_of_constant_p_values_fails():
    assert uniformity_p_value(np.full(100, 0.42)) < 1e-10


def test_plan_row_counts():
    nist = build_plan("nist")
    gmt = build_plan("gmt")
    both = build_plan("both")
    assert len(nist) == 9
    assert len(gmt) == 18
    assert len(both) == 27
    with pytest.raises(ParamError):
        build_plan("nonsense")


def test_battery_structure_and_pass_on_good_source():
    report = battery_run(make_sequences(20, 20_000), suite="gmt", origin=ORIGIN)
    assert report.sequences == 20
    assert report.bits_per_sequence == 20_000
    assert report.origin.is_quantum is False
    assert report.origin.identity.startswith("deterministic:")
    by_id = {line.row_id: line for line in report.lines}
    assert "gmt/poker_m4" in by_id
    for line in report.lines:
        if line.applicable:
            assert line.total == 20
            assert 0 <= line.pass_count <= 20
            assert line.proportion == line.pass_count / 20
            assert line.uniformity_p is None or 0 <= line.uniformity_p <= 1
            assert sum(line.histogram) == 20


def test_not_applicable_rows_are_reported_not_raised():
    # serial m=16 needs m < log2(n) - 2, impossible for 20k-bit sequences
    report = battery_run(make_sequences(12, 20_000), suite="nist", origin=ORIGIN)
    by_id = {line.row_id: line for line in report.lines}
    assert not by_id["nist/serial_p1"].applicable
    assert not by_id["nist/serial_p2"].applicable
    assert "m < log2(n)" in by_id["nist/serial_p1"].note
    assert by_id["nist/frequency"].applicable
    assert not report.passed  # NA rows count as failures


def test_degenerate_sequences_fail_monobit():
    seqs = [np.zeros(20_000, dtype=np.uint8) for _ in range(12)]
    report = battery_run(seqs, suite="gmt", origin=ORIGIN)
    by_id = {line.row_id: line for line in report.lines}
    assert by_id["gmt/frequency"].proportion == 0.0
    assert not report.passed


def test_mismatched_lengths_rejected():
    with pytest.raises(ParamError):
        battery_run([np.zeros(1000, dtype=np.uint8), np.zeros(999, dtype=np.uint8)],
                    suite="gmt", origin=ORIGIN)


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ParamError):
        battery_run(make_sequences(2, 1000), suite="gmt", jobs=jobs)


def test_mismatched_lengths_rejected_in_parallel():
    seqs = [np.zeros(1000, dtype=np.uint8)] * 6 + [np.zeros(999, dtype=np.uint8)]
    with pytest.raises(ParamError):
        battery_run(seqs, suite="gmt", origin=ORIGIN, jobs=2)


def test_parallel_jobs_agree_with_serial():
    # 20 001 bits: the packed bytes the workers get end in a partial byte;
    # 12 sequences: more than the 2 * jobs in flight, and enough for a
    # uniformity P-value on every row
    seqs = make_sequences(12, 20_001, np.random.default_rng(7))
    a = battery_run(seqs, suite="both", origin=ORIGIN, jobs=1)
    b = battery_run(seqs, suite="both", origin=ORIGIN, jobs=2)
    assert a.bits_per_sequence == b.bits_per_sequence == 20_001
    assert [line.row_id for line in a.lines] == [line.row_id for line in b.lines]
    assert a.lines == b.lines


def public_results(bits, plan, alpha=0.01):
    """What each plan row gives when its public test runs on a plain array."""
    out = []
    for entry in plan:
        fn = getattr(stattests, entry.func)
        try:
            res = fn(bits ^ 1 if entry.complement else bits, alpha=alpha, **entry.kwargs)
        except (SequenceTooShort, ParamTooLarge) as exc:
            out.append(str(exc))
            continue
        out.append((res if isinstance(res, tuple) else (res,))[entry.part].p_value)
    return out


@pytest.mark.parametrize("nbits, widest", [(1_000_000, 17), (200_000, 15), (1000, 7)])
def test_shared_memo_equals_public_tests(monkeypatch, nbits, widest):
    bits = np.random.default_rng(nbits).integers(0, 2, nbits, dtype=np.uint8)
    plan = build_plan("both")
    want = public_results(bits, plan)
    passes = []
    counts = stattests._pattern_counts
    monkeypatch.setattr(stattests, "_pattern_counts",
                        lambda b, m: passes.append(m) or counts(b, m))
    got = battery._run_sequence(bits, plan, 0.01)
    assert got == want
    assert passes == [widest]  # one window pass per sequence, folds for the rest


def test_megabit_p_values_pinned():
    # every P-value of the NIST + GM/T plan, exactly as the per-m window
    # loop computed them before the shared window pass; hashed in the shape
    # of one list per test call, serial P1 and P2 in one list
    digest = hashlib.shake_256(b"qrechacha battery pin").digest(125_000)
    bits = np.unpackbits(np.frombuffer(digest, dtype=np.uint8))
    plan = build_plan("both")
    got = []
    for entry, p in zip(plan, battery._run_sequence(bits, plan, 0.01)):
        if entry.part:
            got[-1].append(p)
        else:
            got.append([p])
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "7b02b52d602cccacc2c94881c808d48f9a2cda1576c2e3951be21c430fc53455")


def test_megabit_sequence_memory_peak():
    # one 10**6-bit sequence through both suites allocates at most 10 MB at
    # once: poker reads packed bytes and run distribution reads the shared
    # window counts, so no row builds n-sized int64 arrays (18.2 MB before)
    bits = np.random.default_rng(10).integers(0, 2, 1_000_000, dtype=np.uint8)
    plan = build_plan("both")
    tracemalloc.start()
    try:
        battery._run_sequence(bits, plan, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10_000_000, peak


def test_both_suites_equal_each_suite_alone():
    # rows the two suites share read one run of their call; every value
    # must equal what each suite computes on its own
    seqs = make_sequences(12, 20_001, np.random.default_rng(8))
    both = battery_run(seqs, suite="both", origin=ORIGIN)
    nist = battery_run(seqs, suite="nist", origin=ORIGIN)
    gmt = battery_run(seqs, suite="gmt", origin=ORIGIN)
    assert both.lines == nist.lines + gmt.lines


@pytest.mark.parametrize("suite, calls", [("nist", 8), ("gmt", 18), ("both", 21)])
def test_each_distinct_call_runs_once_per_sequence(monkeypatch, suite, calls):
    made = []
    for name in {entry.func for entry in build_plan("both")}:
        fn = getattr(stattests, name)
        monkeypatch.setattr(stattests, name,
                            lambda *a, _fn=fn, _name=name, **kw: made.append(_name) or _fn(*a, **kw))
    bits = np.random.default_rng(9).integers(0, 2, 1_000_000, dtype=np.uint8)
    report = battery_run([bits], suite=suite, origin=ORIGIN)
    assert all(line.applicable for line in report.lines)
    assert len(made) == calls


def test_report_emissions():
    report = battery_run(make_sequences(10, 20_000), suite="gmt", origin=ORIGIN)
    doc = json.loads(report.to_json())
    assert doc["kind"] == "battery"
    assert doc["provider"] == {"identity": ORIGIN.identity, "is_quantum": False}
    assert {"test_id", "pass_count", "total", "proportion", "interval", "uniformity_p"} <= set(
        doc["results"][0])
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("test_id,")
    assert len(csv.splitlines()) == len(report.lines) + 1
    text = report.to_text()
    assert "Pass Count" in text and "Uniformity" in text


CALIBRATION_CASES = [
    ("monobit", {}),
    ("block_frequency", {"block_len": 1000}),
    ("runs", {}),
    ("longest_run_of_ones", {}),
    ("cumulative_sums", {}),
    ("cumulative_sums", {"backward": True}),
    ("approximate_entropy", {"m": 2}),
    ("approximate_entropy", {"m": 5}),
    ("serial", {"m": 5}),
    ("poker", {"m": 4}),
    ("poker", {"m": 8}),
    ("binary_derivation", {"k": 3}),
    ("binary_derivation", {"k": 7}),
    ("autocorrelation", {"shift": 1}),
    ("autocorrelation", {"shift": 16}),
    ("run_distribution", {}),
]


def _calibration_run(n_sequences, nbits, seed):
    """Pass proportions from a high-quality PRNG must sit in the three-sigma
    band and per-test P-values must look uniform: a calibration check of the
    test statistics themselves."""
    from qrechacha.randtests import tests as stattests

    rng = np.random.default_rng(seed)
    lo, _ = proportion_interval(0.01, n_sequences)
    pvals = {i: [] for i in range(len(CALIBRATION_CASES))}
    for _ in range(n_sequences):
        bits = rng.integers(0, 2, size=nbits, dtype=np.uint8)
        for i, (name, kwargs) in enumerate(CALIBRATION_CASES):
            res = getattr(stattests, name)(bits, **kwargs)
            results = res if isinstance(res, tuple) else (res,)
            pvals[i].extend(r.p_value for r in results)
    for i, (name, kwargs) in enumerate(CALIBRATION_CASES):
        arr = np.asarray(pvals[i])
        proportion = float((arr >= 0.01).mean())
        assert proportion >= lo, (name, kwargs, proportion, lo)
        assert uniformity_p_value(arr) >= 1e-4, (name, kwargs)


def test_calibration_desk_scale():
    _calibration_run(500, 20_000, seed=1234)


@pytest.mark.skipif(
    not os.environ.get("QRECHACHA_FULL_CALIBRATION"),
    reason="long-running mode: set QRECHACHA_FULL_CALIBRATION=1",
)
def test_calibration_full_scale():
    _calibration_run(10_000, 20_000, seed=4321)
