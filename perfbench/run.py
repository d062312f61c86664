"""Benchmark of the qrechacha toolkit, run from the root of a checkout.

    python3 perfbench/run.py --workload bulk-encrypt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload in turn, seed 1

The package is imported from `src/` of the checkout the benchmark sits in;
without it the run fails.  Each workload runs in fresh processes started
one after another: SETUPS - 1 that only set up, then one that sets up and
measures.  Set-up time (process start to the first timed operation) is the
median over all of them; peak RSS comes from the measuring process.

The seed alone makes every key, payload, message-size mix and corpus seed.
Timed operations are interleaved round-robin over four cipher
configurations (see workloads.py) until they add up to --seconds; each
output is checked outside the timed region, and operations are counted as
attempted and failed.

--trace 0 reports the end-to-end metrics: per configuration the median
latency of one operation of the workload and the median time of one whole
cycle, both in units of a reference kernel timed in the same run
(`<config>_p50_ref`, `cycle_p50_ref`; see workloads.ReferenceKernel), set-up
time and peak RSS.  --trace 1 traces every other cycle and reports, per
traced span of a package function, its share of the traced time and its
calls per cycle, with reference numbers and the tracing overhead.  Before the last line a report gives the workload's
figures under the names of the paper's comparisons (MB/s per
configuration, message p50/p99, battery ms per sequence, ...) and the
environment; the same goes to perfbench/out/.  The last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("bulk-encrypt", "small-messages", "security-eval")
SETUPS = 3
DEADLINE_S = 170  # a run must end within 180 s


def spawn(name, seed, seconds, trace, mode, deadline):
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(seconds),
           str(trace), repr(t0), mode]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} worker ({mode}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    setups = [] if trace else [spawn(name, seed, seconds, trace, "setup", deadline)["setup_s"]
                               for _ in range(SETUPS - 1)]
    res = spawn(name, seed, seconds, trace, "measure", deadline)
    setups.append(res["setup_s"])
    metrics = res.get("metrics", {})
    if not trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    result = {
        "correct": res["failed"] == 0 and "metrics" in res,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(f"# workload {name}  seed {seed}  seconds {seconds}  trace {trace}  "
          f"cycles {res['cycles']}")
    print("# env " + json.dumps(res["env"], sort_keys=True))
    print(f"# setup_s samples {[round(s, 4) for s in setups]}")
    for err in res["errors"]:
        print(f"# FAILED {err}")
    for key, (value, unit) in sorted(res.get("report", {}).items()):
        print(f"#   {key:<36} {value:>14.6g} {unit}")
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=name, seconds=seconds, trace=trace, env=res["env"],
                  setup_samples_s=setups, errors=res["errors"],
                  report={k: {"value": v, "unit": u} for k, (v, u) in res.get("report", {}).items()})
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qrechacha" / "__init__.py").is_file():
        sys.exit(f"no src/qrechacha under {ROOT}: run from a checkout of the repository")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))


if __name__ == "__main__":
    main()
