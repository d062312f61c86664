"""Failure detail for the timing gates, which read mean times only."""


def paired_detail(name_a, a, name_b, b) -> str:
    """Per-rep times of two BenchResults, their means, and the paired
    per-rep ratios b/a (rep i of each ran in the same round of the sweep)."""
    ratios = ", ".join(f"{tb / ta:.3f}" for ta, tb in zip(a.times, b.times))
    return f"{_reps(name_a, a)}; {_reps(name_b, b)}; per-rep {name_b}/{name_a} [{ratios}]"


def _reps(name, res) -> str:
    times = ", ".join(f"{1e3 * t:.1f}" for t in res.times)
    return f"{name} ms [{times}] mean {1e3 * res.mean_seconds:.1f}"
