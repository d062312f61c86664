"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

1. One flipped byte in the middle of one output is counted as exactly one
   failed operation, on every workload.
2. A short run of every workload, untraced and traced, ends with a result
   line carrying exactly the metrics BENCHMARK.json names, with their
   units, and no failed operation.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   the benchmark exits non-zero without printing a result.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def flip_first_output():
    """A corrupt hook for Runner: flips the middle byte of the first
    bytes-like output it sees, and leaves every later output alone."""
    state = {"done": False}

    def corrupt(out):
        if state["done"] or not isinstance(out, (bytes, bytearray)):
            return out
        state["done"] = True
        flipped = bytearray(out)
        flipped[len(flipped) // 2] ^= 0x01
        return flipped

    return corrupt


def check_flipped_byte():
    (HERE / "out").mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            wl = cls(3, Path(tmp))
            run = workloads.Runner(corrupt=flip_first_output())
            wl.cycle(run, wl.prepare(1))
        failed = [op for op in run.ops if op.error]
        if len(failed) != 1:
            raise AssertionError(f"{name}: flipped byte gave {len(failed)} failed operations")
        print(f"ok   {name}: flipped byte -> 1 failed of {len(run.ops)} ({failed[0].error})")


def check_smoke_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
                   "--seconds", "0.5", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
            if proc.returncode != 0:
                raise AssertionError(f"{name} trace {trace}: exit {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                raise AssertionError(f"{name} trace {trace}: result keys {sorted(res)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                diff = sorted(set(got) ^ set(want)) or sorted(k for k in got if got[k] != want[k])
                raise AssertionError(f"{name} trace {trace}: metrics differ at {diff}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                raise AssertionError(f"{name} trace {trace}: {res['failed']} of "
                                     f"{res['attempted']} failed")
            print(f"ok   {name} trace {trace}: {len(got)} metrics, {res['attempted']} ops")


def check_bare_directory():
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "bulk-encrypt", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError("benchmark ran without the package's sources")
    print(f"ok   bare directory: exit {proc.returncode}, no result")


if __name__ == "__main__":
    check_flipped_byte()
    check_smoke_runs()
    check_bare_directory()
    print("selftest passed")
