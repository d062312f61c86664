"""Two-level battery: per-sequence P-values, pass proportions, uniformity.

Level one runs every enabled test on every sequence at significance alpha.
Level two checks, per test row, that the pass proportion falls inside the
three-sigma interval (1-alpha) +/- 3*sqrt(alpha(1-alpha)/s) and that the
P-values are uniform (10-bin chi-square P >= alpha_uniformity).

Tests that cannot run at the given sequence length (pattern too long,
sequence too short) become not-applicable rows instead of errors.

The plan is one table of report rows, each naming the test call that
computes it.  Rows naming the same call (the frequency, runs, longest-run
and cumulative-sums rows both suites have, the two serial P-values) share
one run of it per sequence.  Each sequence is wrapped once in the tests'
per-sequence memo and every call reads it: the bits are validated once, one
packed-byte window pass at the widest window any applicable serial,
approximate-entropy or run-distribution row needs feeds all of them (17 bits
at n = 10**6, 15 at 2 * 10**5, 7 at 1000: run distribution's cutoff e plus
two), and both cumulative-sums directions share one partial-sum array.
The memo is dropped when the sequence is done.  With jobs > 1, sequences
travel to the workers as packed bytes, at most 2 * jobs at a time.
"""

from __future__ import annotations

import json
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..cipher import UNRECORDED, Origin
from ..errors import ParamError, ParamTooLarge, SequenceTooShort
from . import tests as stattests
from .bits import as_bits
from .special import igamc

SUITES = ("nist", "gmt", "both")
UNIFORMITY_BINS = 10


@dataclass(frozen=True)
class PlanEntry:
    """One report row: the test call (func, kwargs, complement) that computes
    it and which of that call's results it reads (`part`; serial returns two).
    Rows naming the same call share one run per sequence."""

    row_id: str
    label: str
    func: str
    kwargs: dict = field(default_factory=dict)
    complement: bool = False
    part: int = 0

    def window(self, n: int) -> int:
        """Widest cyclic window this row reads from n bits; 0 if it reads
        none or cannot run at n."""
        width = stattests._WINDOW_WIDTH.get(self.func)
        try:
            return width(n, **self.kwargs) if width else 0
        except (ParamTooLarge, SequenceTooShort):
            return 0


# NIST parameterizations follow the reference tool defaults; GM/T rows use
# the standard's parameter sets.
ROWS = (
    PlanEntry("nist/frequency", "Frequency", "monobit"),
    PlanEntry("nist/block_frequency", "Block Frequency (M=128)", "block_frequency",
              {"block_len": 128}),
    PlanEntry("nist/cumulative_sums_forward", "Cumulative Sums (Forward)", "cumulative_sums",
              {"backward": False}),
    PlanEntry("nist/cumulative_sums_backward", "Cumulative Sums (Backward)", "cumulative_sums",
              {"backward": True}),
    PlanEntry("nist/runs", "Runs", "runs"),
    PlanEntry("nist/longest_run_of_ones", "Longest Run of Ones", "longest_run_of_ones"),
    PlanEntry("nist/approximate_entropy", "Approximate Entropy (m=10)", "approximate_entropy",
              {"m": 10}),
    PlanEntry("nist/serial_p1", "Serial (m=16) P1", "serial", {"m": 16}),
    PlanEntry("nist/serial_p2", "Serial (m=16) P2", "serial", {"m": 16}, part=1),
    PlanEntry("gmt/frequency", "Single Bit Frequency", "monobit"),
    PlanEntry("gmt/block_frequency", "Block Frequency (m=10000)", "block_frequency",
              {"block_len": 10000}),
    PlanEntry("gmt/poker_m4", "Poker Test (m=4)", "poker", {"m": 4}),
    PlanEntry("gmt/poker_m8", "Poker Test (m=8)", "poker", {"m": 8}),
    PlanEntry("gmt/total_runs", "Total Runs", "runs"),
    PlanEntry("gmt/run_distribution", "Run Distribution", "run_distribution"),
    PlanEntry("gmt/max_run_of_ones", "Max Run of 1s", "longest_run_of_ones"),
    PlanEntry("gmt/max_run_of_zeros", "Max Run of 0s", "longest_run_of_ones", complement=True),
    PlanEntry("gmt/binary_derivation_k3", "Binary Derivation (k=3)", "binary_derivation",
              {"k": 3}),
    PlanEntry("gmt/binary_derivation_k7", "Binary Derivation (k=7)", "binary_derivation",
              {"k": 7}),
    PlanEntry("gmt/autocorrelation_d1", "Autocorrelation (d=1)", "autocorrelation", {"shift": 1}),
    PlanEntry("gmt/autocorrelation_d2", "Autocorrelation (d=2)", "autocorrelation", {"shift": 2}),
    PlanEntry("gmt/autocorrelation_d8", "Autocorrelation (d=8)", "autocorrelation", {"shift": 8}),
    PlanEntry("gmt/autocorrelation_d16", "Autocorrelation (d=16)", "autocorrelation",
              {"shift": 16}),
    PlanEntry("gmt/cumulative_sums_forward", "Cumulative Sums (Forward)", "cumulative_sums",
              {"backward": False}),
    PlanEntry("gmt/cumulative_sums_backward", "Cumulative Sums (Backward)", "cumulative_sums",
              {"backward": True}),
    PlanEntry("gmt/approximate_entropy_m2", "Approximate Entropy (m=2)", "approximate_entropy",
              {"m": 2}),
    PlanEntry("gmt/approximate_entropy_m5", "Approximate Entropy (m=5)", "approximate_entropy",
              {"m": 5}),
)


def build_plan(suite: str) -> list[PlanEntry]:
    if suite not in SUITES:
        raise ParamError(f"suite must be one of {SUITES}, got {suite!r}")
    return [entry for entry in ROWS if suite == "both" or entry.row_id.startswith(suite + "/")]


def proportion_interval(alpha: float, s: int) -> tuple[float, float]:
    """Three-sigma acceptance band for the pass proportion of s sequences."""
    half = 3.0 * (alpha * (1.0 - alpha) / s) ** 0.5
    return max(0.0, 1.0 - alpha - half), min(1.0, 1.0 - alpha + half)


def _histogram(p_values) -> np.ndarray:
    """Counts of P-values in UNIFORMITY_BINS equal bins of [0, 1]."""
    p_values = np.asarray(p_values, dtype=np.float64)
    bins = np.minimum((p_values * UNIFORMITY_BINS).astype(np.int64), UNIFORMITY_BINS - 1)
    return np.bincount(bins, minlength=UNIFORMITY_BINS)


def uniformity_p_value(p_values) -> float:
    """10-bin chi-square uniformity over per-sequence P-values."""
    freq = _histogram(p_values)
    expected = freq.sum() / UNIFORMITY_BINS
    chi = float(((freq - expected) ** 2 / expected).sum())
    return igamc((UNIFORMITY_BINS - 1) / 2.0, chi / 2.0)


@dataclass
class BatteryLine:
    row_id: str
    label: str
    pass_count: int
    total: int
    proportion: float
    interval: tuple[float, float]
    uniformity_p: float | None
    histogram: list[int]
    applicable: bool = True
    note: str = ""

    def ok(self, alpha_uniformity: float) -> bool:
        """Row verdict: pass count inside the three-sigma band (its lower
        edge rounded to the nearest achievable count, so 96/100 passes a
        0.9602 bound while 0/1 fails a 0.69 one) and P-values uniform."""
        if not self.applicable:
            return False
        if self.pass_count < round(self.interval[0] * self.total):
            return False
        return self.uniformity_p is None or self.uniformity_p >= alpha_uniformity

    def to_dict(self) -> dict:
        return {
            "test_id": self.row_id,
            "label": self.label,
            "pass_count": self.pass_count,
            "total": self.total,
            "proportion": self.proportion,
            "interval": list(self.interval),
            "uniformity_p": self.uniformity_p,
            "histogram": self.histogram,
            "applicable": self.applicable,
            "note": self.note,
        }


@dataclass
class BatteryReport:
    suite: str
    alpha: float
    alpha_uniformity: float
    sequences: int
    bits_per_sequence: int
    origin: Origin
    lines: list[BatteryLine]

    @property
    def passed(self) -> bool:
        return all(line.ok(self.alpha_uniformity) for line in self.lines)

    def to_dict(self) -> dict:
        return {
            "kind": "battery",
            "suite": self.suite,
            "alpha": self.alpha,
            "alpha_uniformity": self.alpha_uniformity,
            "sequences": self.sequences,
            "bits_per_sequence": self.bits_per_sequence,
            "provider": {
                "identity": self.origin.identity,
                "is_quantum": self.origin.is_quantum,
            },
            "passed": self.passed,
            "results": [line.to_dict() for line in self.lines],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        rows = ["test_id,label,pass_count,total,proportion,interval_lo,interval_hi,uniformity_p"]
        for ln in self.lines:
            uni = "" if ln.uniformity_p is None else f"{ln.uniformity_p:.6f}"
            rows.append(
                f"{ln.row_id},{ln.label},{ln.pass_count},{ln.total},"
                f"{ln.proportion:.6f},{ln.interval[0]:.6f},{ln.interval[1]:.6f},{uni}"
            )
        return "\n".join(rows) + "\n"

    def to_text(self) -> str:
        width = max(len(ln.label) for ln in self.lines) + 2
        out = [
            f"suite={self.suite}  sequences={self.sequences}  bits={self.bits_per_sequence}  "
            f"alpha={self.alpha}  alpha_uniformity={self.alpha_uniformity}",
            f"provider={self.origin.identity}  is_quantum={self.origin.is_quantum}",
            f"proportion interval: [{self.lines[0].interval[0]:.4f}, {self.lines[0].interval[1]:.4f}]"
            if self.lines else "",
            "",
            f"{'Test Item':<{width}}{'Pass Count':>12}{'Proportion':>12}{'Uniformity P':>14}  Verdict",
        ]
        for ln in self.lines:
            if not ln.applicable:
                out.append(f"{ln.label:<{width}}{'-':>12}{'-':>12}{'-':>14}  NOT APPLICABLE ({ln.note})")
                continue
            uni = "-" if ln.uniformity_p is None else f"{ln.uniformity_p:.6f}"
            verdict = "ok" if ln.ok(self.alpha_uniformity) else "FAIL"
            out.append(
                f"{ln.label:<{width}}{ln.pass_count:>12}{ln.proportion:>12.4f}{uni:>14}  {verdict}"
            )
        out.append("")
        out.append(f"overall: {self.verdict()}")
        return "\n".join(out)

    def verdict(self) -> str:
        """PASS, or FAIL naming the failed rows apart from the rows that
        could not run at this sequence length."""
        if self.passed:
            return "PASS"
        failed = [ln.row_id for ln in self.lines
                  if ln.applicable and not ln.ok(self.alpha_uniformity)]
        skipped = [ln.row_id for ln in self.lines if not ln.applicable]
        parts = []
        if failed:
            parts.append(f"failed: {', '.join(failed)}")
        if skipped:
            parts.append(f"not applicable at {self.bits_per_sequence} bits: {', '.join(skipped)}")
        return f"FAIL ({'; '.join(parts)})"


def _run_sequence(bits, plan, alpha):
    """One P-value per plan row on one validated sequence (a string for a
    row that cannot run at its length).  Each distinct call runs once."""
    seq = stattests._Sequence(bits, max(entry.window(bits.size) for entry in plan))
    calls = {}
    out = []
    for entry in plan:
        key = (entry.func, tuple(sorted(entry.kwargs.items())), entry.complement)
        if key not in calls:
            fn = getattr(stattests, entry.func)
            try:
                res = fn(seq.bits ^ 1 if entry.complement else seq, alpha=alpha, **entry.kwargs)
                calls[key] = res if isinstance(res, tuple) else (res,)
            except (SequenceTooShort, ParamTooLarge) as exc:
                calls[key] = str(exc)
        res = calls[key]
        out.append(res if isinstance(res, str) else res[entry.part].p_value)
    return out


def _run_packed(packed, nbits, plan, alpha):
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=nbits)
    return _run_sequence(bits, plan, alpha)


def battery_run(
    sequences,
    suite: str = "both",
    alpha: float = 0.01,
    alpha_uniformity: float = 1e-4,
    origin: Origin = UNRECORDED,
    jobs: int = 1,
) -> BatteryReport:
    """Run the chosen suite over an iterable of bit sequences.

    Sequences must all share one length; 10 or more are needed before the
    uniformity level means anything (fewer still compute, uniformity_p is
    reported as None).  Needs 0 < alpha < 1, 0 <= alpha_uniformity <= 1 and
    jobs >= 1.  The report copies origin, the record of where the sequences
    came from.
    """
    if not 0 < alpha < 1:
        raise ParamError(f"alpha must be in (0, 1), got {alpha}")
    if not 0 <= alpha_uniformity <= 1:
        raise ParamError(f"alpha_uniformity must be in [0, 1], got {alpha_uniformity}")
    if jobs < 1:
        raise ParamError(f"jobs must be >= 1, got {jobs}")
    plan = build_plan(suite)

    results: list[list] = []  # per sequence: one P-value or note per row
    nbits = None

    def same_length():
        nonlocal nbits
        for s in sequences:
            bits = as_bits(s)
            if nbits is None:
                nbits = bits.size
            elif bits.size != nbits:
                raise ParamError("all sequences must have the same length")
            yield bits

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            pending = deque()
            for bits in same_length():
                if len(pending) == 2 * jobs:
                    results.append(pending.popleft().result())
                pending.append(pool.submit(_run_packed, np.packbits(bits).tobytes(),
                                           bits.size, plan, alpha))
            while pending:
                results.append(pending.popleft().result())
    else:
        for bits in same_length():
            results.append(_run_sequence(bits, plan, alpha))

    if not results:
        raise ParamError("battery needs at least one sequence")
    count = len(results)

    interval = proportion_interval(alpha, count)
    lines = []
    # whether a row can run depends only on the length, which all sequences share
    for entry, column in zip(plan, zip(*results)):
        if isinstance(column[0], str):
            lines.append(BatteryLine(entry.row_id, entry.label, 0, count, 0.0, interval,
                                     None, [0] * UNIFORMITY_BINS, False, column[0]))
            continue
        rows = np.asarray(column, dtype=np.float64)
        passes = int((rows >= alpha).sum())
        uni = uniformity_p_value(rows) if count >= 10 else None
        lines.append(BatteryLine(entry.row_id, entry.label, passes, count, passes / count,
                                 interval, uni, _histogram(rows).tolist()))
    return BatteryReport(
        suite=suite,
        alpha=alpha,
        alpha_uniformity=alpha_uniformity,
        sequences=count,
        bits_per_sequence=int(nbits),
        origin=origin,
        lines=lines,
    )
