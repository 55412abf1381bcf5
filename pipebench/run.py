"""Paper-pipeline benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 pipebench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

The run is, in order: one set-up process whose time is not counted
(it fills the benchmark's own native-code cache and brings the host up
to speed), then the measured process, which runs a fixed number of closed-loop
ops derived from ``--seconds``, with ``SETUP_SAMPLES - 1`` processes
that only set up split before and after it (``setup_s`` is the median
over them and the measured process).  ``--trace 1`` reports per-layer
metrics from a second, traced pass over the same ops instead of the
end-to-end metrics, and takes no set-up samples.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; a human-readable record (machine, commit, engine,
backend, op counts, flags) goes to stderr and is appended to
``.bench_build/pipebench/records.jsonl``.  A failed correctness gate
prints ``"correct": false`` and exits 1.  See ``pipebench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("campaign", "seal-trace", "break-n8")
SETUP_SAMPLES = 3
#: Timed ops per second of ``--seconds``, sized on a 2-vCPU Xeon in its
#: slow phase (see README) so that the timed phase lasts about
#: ``--seconds`` there.  The op count depends on ``--seconds`` only,
#: never on the clock, so every output but the timings repeats exactly
#: for a given seed.
OPS_PER_SECOND = {"campaign": 3.5, "seal-trace": 0.9, "break-n8": 45.0}
MIN_OPS = 5
#: The whole run must end well inside the 180 s a run may take.
DEADLINE_S = 170.0
#: Environment variables that would pick an engine or backend: the
#: benchmark measures the program's defaults.
SELECTORS = ("REVEAL_ENGINE", "REVEAL_BACKEND", "REVEAL_DISABLE_COMPILED")


def op_count(workload: str, seconds: int) -> int:
    return max(MIN_OPS, round(OPS_PER_SECOND[workload] * seconds))


def child_env(root: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SELECTORS}
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p)
    env["REVEAL_NATIVE_CACHE"] = str(root / ".bench_build" / "reveal-native")
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(args: List[str], env: Dict[str, str], deadline: float) -> Tuple[float, str]:
    """Run ``child.py`` to completion; returns (seconds from start to its
    ``READY`` line, its last stdout line)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a benchmark process")
    start = time.perf_counter()
    # A session of its own, so a timeout also stops orchestrator workers.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
        start_new_session=True,
    )

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(remaining, kill)
    timer.start()
    ready: Optional[float] = None
    last = ""
    try:
        for line in proc.stdout:
            line = line.strip()
            if line == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line:
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
    if code != 0 or ready is None:
        raise ChildFailed(f"benchmark process {' '.join(args)} exited with {code}")
    return ready, last


def _digest(paths: List[Path], root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def source_digest(root: Path) -> str:
    """Digest of the program's sources."""
    return _digest([p for p in (root / "src").rglob("*") if p.is_file()
                    and p.suffix in (".py", ".c", ".h", ".S", ".s")], root)


def bench_digest() -> str:
    """Digest of the benchmark's own code, which makes the inputs and ops."""
    return _digest(list(HERE.glob("*.py")), ROOT)


def machine() -> Dict[str, object]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


def baseline_flags(engine: str, backend: str) -> List[str]:
    """Engine/backend differences from the recorded baseline, such as a
    silent compiled->threaded or native->reference fallback."""
    baseline = json.loads((HERE / "baseline.json").read_text())
    flags = []
    if engine != baseline["engine"]:
        flags.append(f"engine {engine} differs from baseline {baseline['engine']}")
    if backend.split("-", 1)[0] != baseline["backend"]:
        flags.append(f"backend {backend} differs from baseline {baseline['backend']}")
    return flags


def repeat_check(store: Path, key: str, source: str,
                 outputs: Dict[str, object]) -> Tuple[List[str], List[str]]:
    """Compare this run's deterministic outputs with earlier runs of the
    same ``key`` (workload, seed, op count, benchmark code), as
    ``(problems, flags)``.  A difference from a run of the same program
    ``source`` is a failed gate.  A difference from a run of other
    sources is a flag: the program change altered a result.  The
    outputs are recorded under ``source`` if they are its first."""
    known = json.loads(store.read_text()) if store.exists() else {}
    runs = known.setdefault(key, {})
    problems: List[str] = []
    flags: List[str] = []
    for other, earlier in sorted(runs.items()):
        if earlier != outputs:
            (problems if other == source else flags).append(
                f"outputs differ from an earlier run of {key} under source "
                f"{other}: {earlier} != {outputs}")
    if source not in runs:
        runs[source] = outputs
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return problems, flags


def result_line(section: str, metrics: Dict[str, float], problems: List[str],
                attempted: int, failed: int) -> dict:
    """The result object: every metric of ``section`` of BENCHMARK.json
    with its unit.  A metric not measured is a failed gate."""
    units = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())[section]}
    missing = [name for name in units if name not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; run "
              "from a full checkout", file=sys.stderr)
        return 2

    # Turn a termination request into an exception, so run_child's
    # cleanup stops the benchmark processes before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(ROOT)
    ops = op_count(args.workload, args.seconds)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        run_child(common, env, deadline)
        # Set-up samples before and after the measured process, so that
        # their median spans the run's own stretch of host speed.
        samples = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [run_child(common, env, deadline)[0]
                  for _ in range(samples // 2)]
        ready, last = run_child(
            [*common, "--ops", str(ops), "--trace", str(args.trace)], env, deadline)
        setups.append(ready)
        setups += [run_child(common, env, deadline)[0]
                   for _ in range(samples - samples // 2)]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(last)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    problems = list(result["problems"])
    build = ROOT / ".bench_build" / "pipebench"
    build.mkdir(parents=True, exist_ok=True)
    source = source_digest(ROOT)
    key = f"{args.workload}/seed={args.seed}/ops={ops}/bench={bench_digest()}"
    repeat_problems, flags = repeat_check(
        build / "outputs.json", key, source,
        {"outputs": result["outputs"], "digest": result["outputs_digest"]})
    problems += repeat_problems
    flags += baseline_flags(result["engine"], result["backend"])
    summary = result_line("per_layer" if args.trace else "end_to_end", metrics,
                          problems, result["attempted"], result["failed"])

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": ops, "attempted": result["attempted"], "failed": result["failed"],
        "engine": result["engine"], "backend": result["backend"],
        "numpy": result["numpy"], **machine(), "source": source,
        "time": time.time(),
        "setup_samples_s": setups, "metrics": metrics,
        "outputs": result["outputs"], "problems": problems, "flags": flags,
    }
    if "op_p90_s" in result:
        record["op_p90_s"] = result["op_p90_s"]
    with open(build / "records.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")

    print(f"{args.workload} seed={args.seed} ops={ops} engine={result['engine']} "
          f"backend={result['backend']} commit={record['commit'][:12]} "
          f"source={source} "
          f"nproc={record['nproc']} cpu={record['cpu']!r} "
          f"python={record['python']} numpy={result['numpy']}", file=sys.stderr)
    for name, metric in summary["metrics"].items():
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    if "op_p90_s" in result:
        print(f"  {'op_p90_s':<26} {result['op_p90_s']:>14.6g} s "
              f"({ops} ops)", file=sys.stderr)
    for flag in flags:
        print(f"FLAG: {flag}", file=sys.stderr)
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
