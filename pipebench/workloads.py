"""The three pipeline workloads, driven through the program's public API.

Every workload builds its inputs from the run's ``--seed`` alone and
runs a fixed number of closed-loop ops (one op in flight, the
benchmark the only client), so every output except the timings is an
exact repeat for a given seed and op count.  No engine, backend or
worker count is ever passed: the program's defaults decide them.

Every workload's set-up profiles its bench (``SingleTraceAttack.profile()``:
the sequential-noise ``TraceAcquisition.capture`` path,
``MomentAccumulator`` and the POI/template build); the traced run
replays that profile under the tracer, so those layers are measured as
the set-up cost they are.

- ``campaign``: one op is one job of a warm ``Orchestrator`` with its
  default workers: the only workload on the parallel runtime.
- ``seal-trace``: one op captures one 1024-coefficient e2 sampling
  (SEAL-128, q = 132120577), attacks it and turns its probability
  tables into hints and a bikz estimate.
- ``break-n8``: one op encrypts a message on a toy n = 8 BFV context
  with device-sampled noise, attacks the e2 trace, searches for the
  message and compares it with the true one.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

PAPER_Q = 132120577
COEFFS_PER_TRACE = 8
POI_COUNT = 24
SCOPE_NOISE = 1.0
#: break-n8 uses the clean probe station of the repo's toy message
#: recovery example (examples/full_attack_demo.py).
BREAK_SCOPE_NOISE = 0.5
PROFILE_FIRST_SEED = 100_000


#: break-n8's ring degree: ``BfvContext.toy(poly_degree=8)``.
BREAK_DEGREE = 8
#: Candidates ``search_message`` may test per ciphertext.  Its default
#: (50 000) turns the 4-10% of ops whose e2 holds a value without a
#: template into 2.5 s budget exhaustions, 200x a median op, so the run
#: time of a few hundred ops followed the seed's count of them.
SEARCH_BUDGET = 1000


@dataclass(frozen=True)
class Size:
    """Work per op.  The benchmark runs :data:`FULL`; its tests run
    :data:`TINY` so a smoke run of every workload takes seconds."""

    profile_traces: int = 200  # per set-up profile
    campaign_traces: int = 64  # per orchestrated job
    campaign_warm_jobs: int = 3  # full-size jobs that warm every worker
    seal_coeffs: int = 1024  # SEAL-128 ring degree
    #: Untimed ops a measured run does after set-up, per workload.
    warm_ops: Dict[str, int] = field(default_factory=lambda: {
        "campaign": 2, "seal-trace": 1, "break-n8": 40})


FULL = Size()
TINY = Size(
    profile_traces=24,
    campaign_traces=4,
    campaign_warm_jobs=1,
    seal_coeffs=64,
    warm_ops={"campaign": 1, "seal-trace": 1, "break-n8": 1},
)


@dataclass
class Outcome:
    """What one op produced; ``key`` must repeat exactly between runs."""

    coeffs: int  # coefficients through the op
    attempts: int = 1  # traces, profiles or ciphertexts the op attempted
    misses: int = 0  # attempts without a full result (typed error, miscount, no message)
    values: List[int] = field(default_factory=list)  # ground truth
    signs: List[int] = field(default_factory=list)
    estimates: List[int] = field(default_factory=list)
    tables: List[Dict[int, float]] = field(default_factory=list, repr=False)
    seg_failures: int = 0  # traces that did not segment into their coefficients
    bikz: Optional[float] = None
    detail: Tuple = ()  # workload-specific deterministic payload
    error: Optional[str] = None  # a wrong answer: fails the correctness gate
    #: schedule-dependent counters (orchestrator steals, ...), not compared
    stats: Dict[str, int] = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return self.misses == 0 and self.error is None

    def key(self) -> Tuple:
        tables = tuple(tuple(sorted(t.items())) for t in self.tables)
        return (self.coeffs, self.attempts, self.misses, tuple(self.values),
                tuple(self.signs), tuple(self.estimates), tables,
                self.seg_failures, self.bikz, self.detail, self.error)


def _seed_base(seed: int) -> int:
    """First device seed of a run: disjoint 10^6-wide blocks per seed,
    clear of the set-up profile's seeds, inside the 31-bit range."""
    return 1_000_000 * (1 + seed % 2000)


#: Warm-up ops use device seeds from the upper half of the run's block.
WARM_OFFSET = 500_000


def _make_bench(moduli, noise: float, rng: int, max_deviation=None):
    from repro.power.capture import TraceAcquisition
    from repro.power.scope import Oscilloscope
    from repro.riscv.device import GaussianSamplerDevice

    kwargs = {} if max_deviation is None else {"max_deviation": max_deviation}
    device = GaussianSamplerDevice(list(moduli), **kwargs)
    return TraceAcquisition(device, scope=Oscilloscope(noise_std=noise), rng=rng)


def _rebench(bench, rng: int):
    """A bench sharing ``bench``'s device, leakage and scope but with its
    own sequential noise stream, so an op's noise does not depend on
    which ops ran before it."""
    from repro.power.capture import TraceAcquisition

    return TraceAcquisition(bench.device, leakage=bench.leakage,
                            scope=bench.scope, rng=rng)


def _profiled(bench, traces: int):
    from repro.attack.pipeline import SingleTraceAttack

    attack = SingleTraceAttack(bench, poi_count=POI_COUNT)
    attack.profile(num_traces=traces, coeffs_per_trace=COEFFS_PER_TRACE,
                   first_seed=PROFILE_FIRST_SEED)
    return attack


def template_digest(attack) -> str:
    """SHA-256 of a profiled attack's templates and branch classifier."""
    return hashlib.sha256(pickle.dumps(
        (attack.templates, attack.branch_classifier), protocol=4)).hexdigest()


def seal_bikz(tables) -> float:
    """bikz of the SEAL-128 e2 instance after integrating one hint per
    attacked coefficient (at most 1024)."""
    from repro.hints.estimator import beta_for_dbdd
    from repro.hints.hintgen import apply_hints, hints_from_probability_tables
    from repro.hints.security import seal_128_dbdd, seal_128_parameters

    params = seal_128_parameters()
    hints = hints_from_probability_tables(list(tables)[: params.m])
    return float(beta_for_dbdd(apply_hints(seal_128_dbdd(), hints, params.n)))


def mean_block_bikz(tables: List[Dict[int, float]], block: int = 1024) -> float:
    """Mean :func:`seal_bikz` over consecutive 1024-coefficient blocks of
    attacked coefficients (one partial block if there are fewer)."""
    starts = range(0, max(len(tables) - block, 0) + 1, block)
    return float(np.mean([seal_bikz(tables[i:i + block]) for i in starts]))


def _attack_outcome(attack, captured) -> Outcome:
    """Attack one captured trace; a typed error or a slice miscount is
    an unsuccessful op, not a wrong answer."""
    from repro.errors import AttackError

    values = [int(v) for v in captured.values]
    try:
        result = attack.attack(captured)
    except AttackError as exc:
        return Outcome(coeffs=len(values), misses=1, values=values,
                       seg_failures=1, detail=(str(exc),))
    if len(result) != len(values):
        return Outcome(coeffs=len(values), misses=1, values=values,
                       seg_failures=1, detail=(f"{len(result)} slices",))
    return Outcome(coeffs=len(values), values=values,
                   signs=list(result.signs), estimates=list(result.estimates),
                   tables=list(result.probabilities))


class Workload:
    """One workload: ``setup`` (timed as ``setup_s``, and leaving the
    profiled attack in ``self.attack``), then ``op(i)`` for the timed
    ops; ``traced_op(i)`` is what the traced run executes."""

    name = ""

    def __init__(self, seed: int, size: Size = FULL) -> None:
        self.seed = int(seed)
        self.size = size
        self.base = _seed_base(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> Outcome:
        raise NotImplementedError

    def traced_op(self, index: int) -> Outcome:
        return self.op(index)

    def replay_profile(self) -> str:
        """Profile again exactly as ``setup`` did, on a fresh noise
        stream of the same bench; returns the template digest, which
        must equal ``template_digest(self.attack)``."""
        return template_digest(_profiled(_rebench(self.bench, rng=0),
                                         self.size.profile_traces))

    def warm_op(self, index: int) -> Outcome:
        """An untimed op on seeds no timed op uses."""
        return self.op(WARM_OFFSET // self.seeds_per_op() + index)

    def seeds_per_op(self) -> int:
        return 1

    def check(self, outcomes: List[Outcome]) -> List[str]:
        """Extra correctness gates after the timed ops; returns problems."""
        return []

    def bikz(self, outcomes: List[Outcome]) -> float:
        return mean_block_bikz([t for o in outcomes for t in o.tables])

    def extra_pids(self) -> List[int]:
        """Worker processes whose peak memory counts as the benchmark's."""
        return []

    def engine(self) -> str:
        from repro.riscv.device import effective_engine

        return effective_engine(None)

    def close(self) -> None:
        pass


def _report_outcome(report) -> Outcome:
    """All traces of a campaign report as one outcome."""
    values, signs, estimates, tables = [], [], [], []
    for value, sign, estimate, table in report.outcomes:
        values.append(int(value))
        signs.append(int(sign))
        estimates.append(int(estimate))
        tables.append(dict(table))
    traces = report.traces_attacked + report.traces_failed
    failures = tuple((int(s), str(m)) for s, m in report.failures)
    return Outcome(coeffs=COEFFS_PER_TRACE * traces, attempts=traces,
                   misses=len(failures), values=values, signs=signs,
                   estimates=estimates, tables=tables,
                   seg_failures=len(failures), detail=failures)


class CampaignWorkload(Workload):
    name = "campaign"

    def setup(self) -> None:
        from repro.attack.orchestrator import Orchestrator

        self.bench = _make_bench([PAPER_Q], SCOPE_NOISE, rng=0)
        self.attack = _profiled(self.bench, self.size.profile_traces)
        self.orchestrator = Orchestrator(self.attack)
        self.last_report = None
        # The first jobs after spawn run slow in every worker: warm them
        # with full-size jobs before the clock starts.
        for index in range(self.size.campaign_warm_jobs):
            self.warm_op(index)

    def seeds_per_op(self) -> int:
        return self.size.campaign_traces

    def _first_seed(self, index: int) -> int:
        return self.base + index * self.size.campaign_traces

    def op(self, index: int) -> Outcome:
        job = self.orchestrator.submit(
            self.size.campaign_traces,
            coeffs_per_trace=COEFFS_PER_TRACE,
            first_seed=self._first_seed(index),
        )
        self.last_report = job.result()
        outcome = _report_outcome(self.last_report)
        meta = self.last_report.orchestrator or {}
        outcome.stats = {k: int(meta.get(k, 0)) for k in ("steals", "grains", "messages")}
        return outcome

    def traced_op(self, index: int) -> Outcome:
        """The serial reference runner on the same seeds: one process,
        so every layer's time is visible to the tracer."""
        from repro.attack.campaign import run_campaign

        return _report_outcome(run_campaign(
            self.attack, trace_count=self.size.campaign_traces,
            coeffs_per_trace=COEFFS_PER_TRACE,
            first_seed=self._first_seed(index),
        ))

    def check(self, outcomes: List[Outcome]) -> List[str]:
        if outcomes and outcomes[0].key() != self.traced_op(0).key():
            return ["orchestrated job 0 differs from serial run_campaign"]
        return []

    def extra_pids(self) -> List[int]:
        return self.orchestrator.worker_pids()

    def engine(self) -> str:
        if self.last_report is not None:
            return self.last_report.engine
        return super().engine()

    def close(self) -> None:
        self.orchestrator.close()


class SealTraceWorkload(Workload):
    name = "seal-trace"

    def setup(self) -> None:
        self.bench = _make_bench([PAPER_Q], SCOPE_NOISE, rng=0)
        self.attack = _profiled(self.bench, self.size.profile_traces)

    def op(self, index: int) -> Outcome:
        (captured,) = self.bench.capture_batch(
            1, self.size.seal_coeffs, first_seed=self.base + index
        )
        outcome = _attack_outcome(self.attack, captured)
        if outcome.ok:
            outcome.bikz = seal_bikz(outcome.tables)
        return outcome

    def bikz(self, outcomes: List[Outcome]) -> float:
        return float(np.mean([o.bikz for o in outcomes if o.ok]))


class BreakWorkload(Workload):
    name = "break-n8"

    def setup(self) -> None:
        from repro.bfv.keygen import KeyGenerator
        from repro.bfv.params import BfvContext

        self.context = BfvContext.toy(poly_degree=BREAK_DEGREE)
        self.bench = _make_bench(
            [m.value for m in self.context.basis.moduli], BREAK_SCOPE_NOISE,
            rng=0, max_deviation=int(self.context.params.noise_max_deviation),
        )
        self.attack = _profiled(self.bench, self.size.profile_traces)
        self.public_key = KeyGenerator(self.context, rng=self.seed).public_key()

    def op(self, index: int) -> Outcome:
        from repro.attack import search
        from repro.bfv.device_encryptor import DeviceBackedEncryptor
        from repro.bfv.plaintext import Plaintext
        from repro.errors import AttackError

        ctx = self.context
        rng = np.random.default_rng([self.seed, index])
        message = Plaintext(rng.integers(0, ctx.t, ctx.n), ctx.t)
        victim = DeviceBackedEncryptor(
            ctx, self.public_key, _rebench(self.bench, self.base + index)
        )
        traced = victim.encrypt(message, rng=rng)
        outcome = _attack_outcome(self.attack, traced.e2_capture)
        if not outcome.ok:
            return outcome
        try:
            found = search.search_message(ctx, traced.ciphertext, self.public_key,
                                          outcome.tables,
                                          budget=SEARCH_BUDGET)
        except AttackError as exc:
            outcome.misses = 1
            outcome.detail = (str(exc),)
            return outcome
        outcome.detail = (found.candidates_tried,)
        if found.message != message:
            outcome.misses = 1
            outcome.error = "recovered plaintext differs from the message"
        return outcome


WORKLOADS = {
    cls.name: cls
    for cls in (CampaignWorkload, SealTraceWorkload, BreakWorkload)
}
