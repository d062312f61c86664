"""One workload in one fresh process: set-up, then the timed loop.

Started by run.py as `python3 perfbench/worker.py <workload> <seed>
<seconds> <trace> <t0> <mode>`, where t0 is the parent's
`time.monotonic()` just before the process was started (CLOCK_MONOTONIC
is system-wide, so set-up time includes interpreter start and imports).
Mode "setup" stops after set-up; mode "measure" goes on to the timed loop.
Prints one JSON object as its last line.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SPANS = (
    "cipher.xor_stream",
    "vector.xor_with_keystream",
    "vector.keystream_bytes",
    "vector.run_rounds",
    "vector.feedforward",
    "generate.iter_sequences",
    "qrn.QrnPool.take",
    "qrn.derive_session",
    "randtests.battery_run",
    "randtests.bits_from_bytes",
    "randtests.as_bits",
    "randtests.monobit",
    "randtests.block_frequency",
    "randtests.runs",
    "randtests.longest_run_of_ones",
    "randtests.cumulative_sums",
    "randtests.approximate_entropy",
    "randtests.serial",
    "randtests.poker",
    "randtests.binary_derivation",
    "randtests.autocorrelation",
    "randtests.run_distribution",
    "analysis.avalanche_metric",
    "analysis.empirical_diff_probability",
)
TESTS = tuple(name.split(".", 1)[1] for name in SPANS if name.startswith("randtests.")
              and name.split(".", 1)[1] not in ("battery_run", "bits_from_bytes", "as_bits"))


def trace_targets(wl):
    """(owner, attribute, span name, size function) for every traced call.

    Where a module imported a function by name, its own binding is wrapped
    as well (generate.keystream_bytes, the two as_bits bindings).
    """
    from qrechacha import analysis, cipher, generate, qrn, randtests, vector
    from qrechacha.randtests import battery, tests

    def columns(args):
        return int(args[0].shape[1])

    targets = [
        (cipher, "xor_stream", "cipher.xor_stream", None),
        (vector, "xor_with_keystream", "vector.xor_with_keystream", None),
        (vector, "keystream_bytes", "vector.keystream_bytes", None),
        (generate, "keystream_bytes", "vector.keystream_bytes", None),
        (vector, "run_rounds", "vector.run_rounds", columns),
        (vector, "feedforward", "vector.feedforward", None),
        (qrn.QrnPool, "take", "qrn.QrnPool.take", None),
        (qrn, "derive_session", "qrn.derive_session", None),
        (randtests, "battery_run", "randtests.battery_run", None),
        (randtests, "bits_from_bytes", "randtests.bits_from_bytes", None),
        (tests, "as_bits", "randtests.as_bits", None),
        (battery, "as_bits", "randtests.as_bits", None),
        (analysis, "avalanche_metric", "analysis.avalanche_metric", None),
        (analysis, "empirical_diff_probability", "analysis.empirical_diff_probability", None),
    ]
    targets += [(tests, name, f"randtests.{name}", None) for name in TESTS]
    for corpus in getattr(wl, "corpora", {}).values():
        targets.append((corpus, "next", "generate.iter_sequences", None))
    return targets


def environment(seed):
    import numpy
    import scipy

    import qrechacha
    from qrechacha import vector

    try:
        import cryptography
        crypto = cryptography.__version__
    except ImportError:
        crypto = "absent"
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30).stdout.strip() or "unknown"
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30).stdout
        dirty = bool(status.strip())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "qrechacha": qrechacha.__version__,
        "git_rev": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "chunk_blocks": vector.CHUNK_BLOCKS,
        "cryptography": crypto,
        "seed": seed,
    }


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    values = sorted(values)
    return values[min(len(values) - 1, max(0, int(round(q / 100 * len(values))) - 1))]


def tail(values):
    """The highest of p99/p90 that has at least ten samples beyond it."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return q, percentile(values, q)
    return None, None


def ratios(cycles):
    """The paper's two cost comparisons as paired per-cycle ratios (median
    over cycles), with their common base: the ChaCha8 time of a cycle."""
    def lane_sum(ops, lane):
        return sum(op.seconds for op in ops if op.lane == lane)

    def paired(num):
        return statistics.median(lane_sum(ops, num) / lane_sum(ops, "chacha8") for ops in cycles)

    return {
        "ratio.qre8_over_chacha8": (paired("qre8"), "ratio"),
        "ratio.chacha20_over_chacha8": (paired("chacha20"), "ratio"),
        "ratio.chacha8_base_ms": (statistics.median(lane_sum(ops, "chacha8")
                                                    for ops in cycles) * 1e3, "ms"),
    }


def lane_times(cycles, lane, part=None):
    return [op.parts.get(part, 0.0) if part else op.seconds
            for ops in cycles for op in ops if op.lane == lane and op.error is None]


def end_to_end(cycles, lanes, ref_s):
    """Median latencies in units of the run's median reference-kernel time."""
    metrics = {}
    for lane in lanes:
        metrics[f"{lane}_p50_ref"] = (statistics.median(lane_times(cycles, lane)) / ref_s, "ref")
    metrics["cycle_p50_ref"] = (statistics.median(sum(op.seconds for op in ops)
                                                  for ops in cycles) / ref_s, "ref")
    return metrics


def report(wl, cycles, lanes, ref_s):
    """The workload's figures under the names the paper's comparisons use,
    each with its unit; printed and written with the result."""
    rep = {"ref_kernel_ms": (ref_s * 1e3, "ms")}
    for lane in lanes:
        times = lane_times(cycles, lane)
        q, t = tail(times)
        rep[f"{lane}.n"] = (len(times), "count")
        rep[f"{lane}.p50_ms"] = (statistics.median(times) * 1e3, "ms")
        if q:
            rep[f"{lane}.p{q}_ms"] = (t * 1e3, "ms")
    rep.update(ratios(cycles))
    if wl.name == "bulk-encrypt":
        for lane in lanes:
            mb = wl.PAYLOAD_BYTES / 1e6
            rep[f"{lane}_mbps"] = (mb / statistics.median(lane_times(cycles, lane)), "MB/s")
    elif wl.name == "small-messages":
        for lane in lanes:
            times = lane_times(cycles, lane)
            q, t = tail(times)
            rep[f"{lane}.msg_p50_us"] = (statistics.median(times) * 1e6, "us")
            if q:
                rep[f"{lane}.msg_p{q}_us"] = (t * 1e6, "us")
            rep[f"{lane}.msg_per_s"] = (len(times) / sum(times), "1/s")
            sessions = lane_times(cycles, "session:" + lane)
            if sessions:
                rep[f"{lane}.session_p50_us"] = (statistics.median(sessions) * 1e6, "us")
        for name in ("msg_p50_us", "msg_p99_us", "msg_per_s", "session_p50_us"):
            if f"qre20.{name}" in rep:
                rep[name] = rep[f"qre20.{name}"]
        rep["msg_samples"] = rep["qre20.n"]
    elif wl.name == "security-eval":
        for lane in lanes:
            rep[f"{lane}.corpus_ms_per_seq"] = (
                statistics.median(lane_times(cycles, lane, "corpus")) * 1e3, "ms")
        rep["corpus_ms_per_seq"] = rep["qre8.corpus_ms_per_seq"]
        battery = [t for lane in lanes for t in lane_times(cycles, lane, "battery")]
        rep["battery_ms_per_seq"] = (statistics.median(battery) * 1e3, "ms")
        aval = [t for lane in ("qre8", "chacha8") for t in lane_times(cycles, lane, "avalanche")]
        rep["avalanche_ktrials_per_s"] = (
            len(aval) * wl.AVALANCHE_TRIALS / sum(aval) / 1e3, "k/s")
        diff = lane_times(cycles, "diffprob")
        rep["diffprob_ksamples_per_s"] = (len(diff) * wl.DIFF_SAMPLES / sum(diff) / 1e3, "k/s")
    return rep


def per_layer(tracer, traced, untraced, wl):
    """Self-time shares and call counts per span over the traced cycles,
    plus reference and derived numbers."""
    total = sum(op.seconds for ops in traced for op in ops)
    summary = tracer.summary()
    metrics = {}
    top = 0.0
    for name, start, end, parent, _ in tracer.spans:
        if parent < 0:
            top += end - start
    for name in SPANS:
        calls, _, self_s, _ = summary.get(name, (0, 0.0, 0.0, 0))
        metrics[f"{name}.self_pct"] = (100.0 * self_s / total, "%")
        metrics[f"{name}.calls_per_cycle"] = (calls / len(traced), "count")
    metrics["other.self_pct"] = (100.0 * (total - top) / total, "%")
    rounds = summary.get("vector.run_rounds", (0, 0.0, 0.0, 0))
    metrics["vector.blocks_per_call"] = (rounds[3] / rounds[0] if rounds[0] else 0.0, "count")
    sequences = summary.get("randtests.battery_run", (0,))[0]
    test_calls = sum(summary.get(f"randtests.{t}", (0,))[0] for t in TESTS)
    metrics["randtests.test_calls_per_seq"] = (test_calls / sequences if sequences else 0.0,
                                               "count")
    cycle = [sum(op.seconds for op in ops) for ops in untraced]
    cycle_traced = [sum(op.seconds for op in ops) for ops in traced]
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(cycle_traced) / statistics.median(cycle) - 1.0), "%")
    metrics.update(ratios(untraced))
    metrics.update(references(wl.seed))
    return metrics


def references(seed):
    """OpenSSL ChaCha20 throughput (the ceiling) and the scalar block time."""
    import numpy as np

    import workloads
    from qrechacha import cipher, qrn

    rng = np.random.default_rng([seed, 9])
    params = cipher.CipherParams.from_bytes(rng.bytes(32), rng.bytes(12), 0, 20)
    out = {}
    if workloads.Cipher is not None:
        data = rng.bytes(16_000_000)
        buf = bytearray(len(data) + 64)
        key = rng.bytes(32)
        times = []
        for _ in range(5):
            enc = workloads.Cipher(workloads.algorithms.ChaCha20(key, bytes(16)), mode=None).encryptor()
            start = time.perf_counter()
            enc.update_into(data, buf)
            times.append(time.perf_counter() - start)
        out["ref.openssl_chacha20_mbps"] = (len(data) / 1e6 / statistics.median(times), "MB/s")
    else:
        out["ref.openssl_chacha20_mbps"] = (0.0, "MB/s")
    material = qrn.derive_session(qrn.DeterministicProvider(rng.bytes(32)), 20)
    times = []
    for _ in range(200):
        start = time.perf_counter()
        cipher.keystream_block(params, material)
        times.append(time.perf_counter() - start)
    out["cipher.keystream_block_us"] = (statistics.median(times) * 1e6, "us")
    return out


def measure(wl, seconds, trace):
    """Closed loop of cycles until the timed operations add up to
    `seconds`; in a traced run every other cycle is traced."""
    import workloads
    from tracing import Tracer

    tracer = Tracer(trace_targets(wl)) if trace else None
    reference = workloads.ReferenceKernel(wl.REFERENCE)
    reference()  # warm-up
    ref_times = []
    cycles = []  # (traced, ops, complete)
    timed = 0.0
    wall_start = time.monotonic()
    i = 1
    while i <= 2 or (timed < seconds and time.monotonic() - wall_start < 4 * seconds + 20):
        prep = wl.prepare(i)
        traced = trace and i % 2 == 0
        run = workloads.Runner(tracer if traced else None)
        gc.collect()
        ref_times.append(reference())
        if traced:
            tracer.install()
        complete = True
        try:
            wl.cycle(run, prep)
        except workloads.StepFailed:
            complete = False
        finally:
            if traced:
                tracer.remove()
        cycles.append((traced, run.ops, complete))
        timed += sum(op.seconds for op in run.ops)
        i += 1
    return tracer, cycles, statistics.median(ref_times)


def main(argv):
    name, seed, seconds, trace, t0, mode = argv
    seed, seconds, trace, t0 = int(seed), float(seconds), int(trace), float(t0)
    sys.path.insert(0, str(ROOT / "src"))
    import qrechacha

    if not Path(qrechacha.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qrechacha imported from {qrechacha.__file__}, not from {ROOT / 'src'}")
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.WORKLOADS[name](seed, Path(tmp))
        warm = workloads.Runner()
        try:
            wl.warm_up(warm)
        except workloads.StepFailed:
            pass
        gc.collect()
        setup_s = time.monotonic() - t0
        if mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return
        tracer, cycles, ref_s = measure(wl, seconds, trace)
    ops = warm.ops + [op for _, cycle_ops, _ in cycles for op in cycle_ops]
    errors = [f"{op.lane}: {op.error}" for op in ops if op.error]
    done = [cycle_ops for _, cycle_ops, complete in cycles if complete]
    untraced = [c for (traced, c, complete) in cycles if complete and not traced]
    traced = [c for (traced, c, complete) in cycles if complete and traced]
    result = {
        "setup_s": setup_s,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors[:10],
        "cycles": len(cycles),
        "env": environment(seed),
    }
    lanes = workloads.LANES
    if trace and traced and untraced:
        result["metrics"] = per_layer(tracer, traced, untraced, wl)
        result["report"] = report(wl, untraced, lanes, ref_s)
        for span, (calls, total, self_s, _) in sorted(tracer.summary().items()):
            result["report"][f"{span}.self_ms_per_cycle"] = (self_s / len(traced) * 1e3, "ms")
            result["report"][f"{span}.total_ms_per_cycle"] = (total / len(traced) * 1e3, "ms")
        spans = OUT / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    elif not trace and done:
        result["metrics"] = end_to_end(done, lanes, ref_s)
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        result["report"] = report(wl, done, lanes, ref_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
