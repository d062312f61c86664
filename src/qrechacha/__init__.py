"""ChaCha / QRE-ChaCha stream-cipher toolkit.

QRE-ChaCha extends ChaCha with secret mask material: the four state
constants are XORed with a 128-bit mask, and a further 128-bit mask is
XORed into the first state row before every column round.  The package
bundles the ciphers with quantum-random-number sourcing, a statistical
randomness battery (NIST SP 800-22 subset plus GM/T 0005-2021 tests),
avalanche and differential instrumentation, and a throughput benchmark.
"""

from .analysis import (
    AvalancheReport,
    DiffProbEstimate,
    DiffSpec,
    avalanche_metric,
    empirical_diff_probability,
)
from .bench import BenchResult, compare_report, run_sweep
from .cipher import (
    BLOCK_BYTES,
    CONSTANTS,
    CipherParams,
    MASK32,
    Origin,
    QrnSessionMaterial,
    ROUND_PRESETS,
    column_round,
    diagonal_round,
    init_state,
    inject_masks,
    invert_quarter_round,
    keystream_block,
    quarter_round,
    run_rounds,
    xor_stream,
)
from .errors import (
    CounterOverflow,
    DecodeError,
    DomainError,
    InsufficientResults,
    IoFailure,
    MalformedMaterial,
    MaskCountMismatch,
    NetworkFailure,
    ParamError,
    ParamTooLarge,
    PoolExhausted,
    QreChachaError,
    SequenceTooShort,
    ShortResponse,
    UsageError,
    VerificationFailure,
)
from .qrn import (
    DeterministicProvider,
    QrnPool,
    derive_session,
    fetch_remote,
    material_bytes_needed,
    read_material,
    session_parse,
    session_serialize,
    write_material,
)
from .randtests import TestResult, battery_run
from .vector import keystream_bytes

__version__ = "0.1.0"
