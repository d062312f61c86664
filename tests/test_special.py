import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrechacha

from qrechacha import DomainError
from qrechacha.randtests.special import erfc, igamc

from oracles import oracle_erfc, oracle_igamc


def test_erfc_basics():
    assert erfc(0.0) == 1.0
    assert abs(erfc(0.44721) - 0.527092578533) < 1e-9


def test_erfc_reflection():
    for x in (0.1, 0.5, 1.0, 2.5, 7.0):
        assert abs(erfc(-x) - (2.0 - erfc(x))) < 1e-12


def test_erfc_against_high_precision_oracle():
    for i in range(-40, 41):
        x = i / 4.0
        want = oracle_erfc(x)
        got = erfc(x)
        if want > 0:
            assert abs(got - want) / want < 1e-8
        else:
            assert got == 0.0


def test_erfc_domain():
    with pytest.raises(DomainError):
        erfc(float("nan"))
    with pytest.raises(DomainError):
        erfc(float("inf"))


def test_igamc_basics():
    assert igamc(1.0, 0.0) == 1.0
    assert igamc(0.25, 0.0) == 1.0
    assert abs(igamc(1.5, 0.5) - 0.801251956901) < 1e-9


def test_igamc_erfc_identity():
    for x in (0.01, 0.1, 0.3, 1.0, 2.0, 5.0, 9.0):
        assert abs(igamc(0.5, x) - erfc(math.sqrt(x))) < 1e-8


def test_igamc_against_high_precision_oracle():
    for a in (0.5, 1.0, 2.5, 10.0, 63.5, 127.5, 500.0):
        for x in (0.01, 0.5, a / 2, a, 2 * a):
            want = oracle_igamc(a, x)
            got = igamc(a, x)
            if want > 1e-300:
                assert abs(got - want) / want < 1e-8, (a, x)


def test_igamc_domain():
    for a, x in ((0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)):
        with pytest.raises(DomainError):
            igamc(a, x)


def test_scipy_special_is_imported_only_for_p_values():
    # encrypting and deriving material never load scipy.special; a battery
    # run afterwards still computes its P-values
    code = """
import sys
import numpy as np
from qrechacha import CipherParams, DeterministicProvider, derive_session, xor_stream
from qrechacha.randtests import battery_run
material = derive_session(DeterministicProvider(b"lazy"), 8)
xor_stream(CipherParams(tuple(range(8)), (1, 2, 3), 0, 8), material, bytes(2048))
assert "scipy.special" not in sys.modules, "loaded by xor_stream or derive_session"
bits = np.random.default_rng(1).integers(0, 2, size=(10, 20000), dtype=np.uint8)
report = battery_run(list(bits), suite="gmt")
assert "scipy.special" in sys.modules
print(report.passed)
"""
    src = str(Path(qrechacha.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip() == "True"
