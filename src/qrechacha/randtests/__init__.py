"""Statistical randomness testing: per-sequence tests and the two-level battery."""

from .battery import (
    BatteryLine,
    BatteryReport,
    battery_run,
    build_plan,
    proportion_interval,
    uniformity_p_value,
)
from .bits import as_bits, bits_from_bytes, bytes_from_bits
from .special import erfc, igamc
from .tests import (
    ALPHA_DEFAULT,
    TestResult,
    approximate_entropy,
    autocorrelation,
    binary_derivation,
    block_frequency,
    cumulative_sums,
    longest_run_of_ones,
    monobit,
    poker,
    run_distribution,
    runs,
    serial,
)
