"""Shared benchmark fixtures.

Every experiment of the paper's evaluation section has a bench module
here; expensive artefacts (the profiled attack, the attack-trace
corpus) are session-scoped so that the full suite stays in the
minutes range.

The ``REVEAL_SCALE`` environment variable scales the trace budgets:
1.0 (default) runs a reduced but statistically meaningful version of
the paper's 220,000-profile / 25,000-attack campaign; raise it for
tighter statistics.  ``REVEAL_WORKERS`` (default: serial) fans
profiling across a process pool and runs the attack campaign on the
orchestrator — results are bit-identical for any worker count.
"""

import os

import numpy as np
import pytest

from repro.attack.campaign import run_campaign
from repro.attack.orchestrator import run_orchestrated
from repro.attack.metrics import ConfusionMatrix
from repro.attack.pipeline import SingleTraceAttack
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice

PAPER_Q = 132120577


def scale() -> float:
    return float(os.environ.get("REVEAL_SCALE", "1.0"))


def scaled(count: int) -> int:
    return max(8, int(count * scale()))


def workers():
    """Process-pool size from ``REVEAL_WORKERS`` (None = serial)."""
    value = int(os.environ.get("REVEAL_WORKERS", "0"))
    return value if value > 1 else None


@pytest.fixture(scope="session")
def device():
    return GaussianSamplerDevice([PAPER_Q])


@pytest.fixture(scope="session")
def bench_acquisition(device):
    return TraceAcquisition(device, scope=Oscilloscope(noise_std=1.0), rng=0)


@pytest.fixture(scope="session")
def profiled_attack(bench_acquisition):
    """The profiled single-trace attack shared by the table benches."""
    attack = SingleTraceAttack(bench_acquisition, poi_count=24)
    attack.profile(
        num_traces=scaled(400),
        coeffs_per_trace=8,
        first_seed=100_000,
        workers=workers(),
    )
    return attack


@pytest.fixture(scope="session")
def attack_corpus(profiled_attack):
    """Attack-phase outcomes: (true value, sign, estimate, probabilities).

    The paper captures 25,000 attack traces; we default to
    ``scaled(150) * 8`` coefficients and report the budget used.  The
    corpus comes off the serial runner or, with ``REVEAL_WORKERS``, the
    orchestrator (per-seed noise streams either way), so it is
    identical for any ``REVEAL_WORKERS`` value.
    """
    kwargs = dict(trace_count=scaled(150), coeffs_per_trace=8, first_seed=1)
    if workers():
        report = run_orchestrated(profiled_attack, workers=workers(), **kwargs)
    else:
        report = run_campaign(profiled_attack, **kwargs)
    return report.outcomes


@pytest.fixture(scope="session")
def confusion(attack_corpus):
    matrix = ConfusionMatrix()
    for value, _, estimate, _ in attack_corpus:
        matrix.record(value, estimate)
    return matrix
