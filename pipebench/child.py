"""One benchmark process: set up a workload, then run its ops.

``run.py`` starts this script once per set-up sample and once for the
measured run; the line ``READY`` on stdout marks the end of set-up.
With ``--ops 0`` the process only sets up (one ``setup_s`` sample).
Otherwise it runs a few untimed warm ops, then the timed ops untraced,
and with ``--trace 1`` the same ops again under the tracer, followed by
a replay of the set-up profile; its last stdout line is then its JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Hook, Tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    FULL, WORKLOADS, Outcome, Size, Workload, template_digest)


def per_layer_names() -> List[str]:
    """Per-layer metric names, from the benchmark definition at the root."""
    definition = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return [m["name"] for m in json.loads(definition.read_text())["per_layer"]]


def pipeline_hooks() -> List[Hook]:
    """The public function behind every traced layer."""
    from repro.attack import search
    from repro.attack.branch import BranchClassifier
    from repro.attack.pipeline import SingleTraceAttack
    from repro.attack.poi import POI_METHODS_MOMENTS
    from repro.attack.recovery import MessageRecovery
    from repro.attack.segmentation import AnchorRefiner, Segmenter
    from repro.attack.template import MomentAccumulator, TemplateSet
    from repro.bfv.device_encryptor import DeviceBackedEncryptor
    from repro.power.leakage import LeakageModel
    from repro.power.scope import Oscilloscope
    from repro.ring.ntt import NttContext
    from repro.ring.rns import RnsBasis
    from repro.riscv.device import GaussianSamplerDevice

    return [
        Hook("riscv.run_s", GaussianSamplerDevice, "run",
             on_result=lambda t, run: t.count("riscv.cycles", run.cycle_count)),
        Hook("leakage.expand_s", LeakageModel, "expand",
             on_result=lambda t, out: t.count("leakage.samples", len(out[0]))),
        Hook("scope.capture_s", Oscilloscope, "capture"),
        Hook("scope.capture_s", Oscilloscope, "capture_keyed"),
        Hook("segmentation.learn_s", AnchorRefiner, "learn"),
        Hook("segmentation.slice_s", Segmenter, "aligned_slices"),
        Hook("template.accumulate_s", MomentAccumulator, "add"),
        Hook("template.build_s", POI_METHODS_MOMENTS, "sosd"),
        Hook("template.build_s", TemplateSet, "from_moments"),
        Hook("template.build_s", BranchClassifier, "from_moments"),
        Hook("template.classify_s", SingleTraceAttack, "attack_aligned"),
        Hook("search.self_s", search, "search_message"),
        Hook("recovery.plausible_s", MessageRecovery, "is_plausible",
             on_result=lambda t, _: t.count("search.candidates")),
        Hook("ring.ntt_s", NttContext, "forward"),
        Hook("ring.ntt_s", NttContext, "inverse"),
        Hook("ring.crt_s", RnsBasis, "compose_array"),
        Hook("bfv.encrypt_s", DeviceBackedEncryptor, "encrypt"),
        Hook("hints.estimate_s", workloads, "seal_bikz"),
    ]


def _timed(fn: Callable[[int], Outcome], ops: int):
    outcomes: List[Outcome] = []
    latencies: List[float] = []
    start = time.perf_counter()
    for index in range(ops):
        tick = time.perf_counter()
        outcomes.append(fn(index))
        latencies.append(time.perf_counter() - tick)
    return outcomes, latencies, time.perf_counter() - start


def _vm_hwm_kb(pid: str) -> int:
    """Peak resident set of a process (Linux ``VmHWM``), 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def accuracy(outcomes: List[Outcome]) -> Dict[str, float]:
    """Sign and value accuracy over every attacked coefficient."""
    from repro.attack.branch import sign_of

    total = sign_hits = value_hits = 0
    for outcome in outcomes:
        for value, sign, estimate in zip(outcome.values, outcome.signs,
                                         outcome.estimates):
            total += 1
            sign_hits += sign_of(value) == sign
            value_hits += estimate == value
    total = max(total, 1)
    return {"sign_accuracy": sign_hits / total, "value_accuracy": value_hits / total}


def outputs_digest(outcomes: List[Outcome], templates: str) -> str:
    """Digest of every op's outcome and of the set-up's templates."""
    keys = repr(([o.key() for o in outcomes], templates))
    return hashlib.sha256(keys.encode()).hexdigest()


def measure(
    name: str,
    seed: int,
    ops: int,
    trace: bool,
    size: Size = FULL,
    ready: Callable[[], None] = lambda: None,
) -> dict:
    """Set up ``name``, run its untimed warm ops, then ``ops`` timed ops
    and score them.

    Returns the metrics (end-to-end without ``setup_s``, or per-layer
    with ``trace``), the outputs that must repeat exactly, and the
    problems found by the correctness gates; ``{}`` if ``ops`` is 0.
    """
    from repro.backends import backend_id

    workload: Workload = WORKLOADS[name](seed, size)
    workload.setup()
    ready()
    try:
        if not ops:
            return {}
        for index in range(size.warm_ops[name]):
            workload.warm_op(index)
        outcomes, latencies, wall = _timed(workload.op, ops)
        problems = [f"op {i}: {o.error}" for i, o in enumerate(outcomes) if o.error]
        problems += workload.check(outcomes)

        attempts = sum(o.attempts for o in outcomes)
        misses = sum(o.misses for o in outcomes)
        deterministic = {
            "success_share": 1.0 - misses / max(attempts, 1),
            **accuracy(outcomes),
            "bikz": workload.bikz(outcomes),
        }
        templates = template_digest(workload.attack)
        result = {
            "ops": ops,
            "attempted": attempts,
            "failed": misses,
            "engine": workload.engine(),
            "backend": backend_id(),
            "numpy": np.__version__,
            "outputs": deterministic,
            "outputs_digest": outputs_digest(outcomes, templates),
            "problems": problems,
        }
        if len(latencies) >= 100:
            result["op_p90_s"] = statistics.quantiles(latencies, n=10)[-1]

        if not trace:
            pids = ["self"] + [str(p) for p in workload.extra_pids()]
            result["metrics"] = {
                "coeffs_per_s": sum(o.coeffs for o in outcomes) / wall,
                "op_p50_s": statistics.median(latencies),
                "peak_rss_mb": sum(_vm_hwm_kb(p) for p in pids) * 1024 / 1e6,
                **deterministic,
            }
            return result

        tracer = Tracer()
        with tracer.installed(pipeline_hooks()):
            traced, _, traced_wall = _timed(workload.traced_op, ops)
            start = time.perf_counter()
            replayed = workload.replay_profile()
            profile_wall = time.perf_counter() - start
        if [o.key() for o in traced] != [o.key() for o in outcomes]:
            problems.append("traced outcomes differ from untraced outcomes")
        if replayed != templates:
            problems.append("replayed set-up profile gave other templates")
        layers = dict.fromkeys(per_layer_names(), 0.0)
        for layer, seconds in tracer.self_s.items():
            layers[layer] += seconds
        for counter, amount in tracer.counts.items():
            layers[counter] += amount
        busy = sum(tracer.self_s.values())
        layers["segmentation.failures"] = sum(o.seg_failures for o in traced)
        for counter in ("steals", "grains", "messages"):
            layers[f"orchestrator.{counter}"] = sum(
                o.stats.get(counter, 0) for o in outcomes)
        workers = len(workload.extra_pids())
        if workers:
            layers["orchestrator.efficiency"] = busy / (workers * wall)
        layers["trace.overhead"] = traced_wall / wall - 1.0
        layers["trace.wall_s"] = traced_wall + profile_wall
        layers["other_s"] = layers["trace.wall_s"] - busy
        result["metrics"] = layers
        return result
    finally:
        workload.close()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def ready() -> None:
        print("READY", flush=True)

    result = measure(args.workload, args.seed, args.ops, bool(args.trace),
                     ready=ready)
    if result:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
