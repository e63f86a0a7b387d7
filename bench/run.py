"""The repository benchmark: end-to-end and per-layer metrics.

    python3 bench/run.py --workload design --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 2021              # every workload, in turn
    python3 bench/run.py --seed 2021 --smoke      # ~1/20 scale, < 30 s

Each measured pass runs ``bench/worker.py`` in a fresh interpreter with
``src`` on ``PYTHONPATH`` and every ``REPRO_*`` variable removed, so it
measures the defaults users get, from cold analysis caches.  Set-up
time is measured in fresh interpreters as well (``design``/``fig7``:
launch to the program modules imported; serve: launch to the first
``ping`` answered), several times per run, and reported as the median.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics instead: the workload runs
untraced for a quarter of the budget, then traced on the same inputs,
and the ratio of the time spent inside the program's calls in the two
passes is the tracing overhead.

Standard output carries the full result document as one JSON line and,
as its last line, the summary object ``{"correct", "attempted",
"failed", "metrics"}``.  A human-readable table goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "bench")
DEFAULT_SECONDS = 20
SMOKE_SCALE = 20
#: Hard limit on one workload's passes; the run fails rather than hangs.
WORKLOAD_TIMEOUT_S = 170
SETUP_PROBES = 5

#: End-to-end metrics: ``name -> unit``.  Every workload reports all.
#: Tail latency and throughput are reported in each run's ``diag``
#: section but not gated: on a shared 2-CPU host their run-to-run
#: spread exceeds 10 % of their median on at least one workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
}


class BenchError(RuntimeError):
    """The harness could not produce a result."""


def clean_env() -> Dict[str, str]:
    """The user's environment without program tuning knobs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SOURCE
    return env


def check_layout() -> None:
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        raise BenchError(f"no program sources at {SOURCE}; run from a full checkout")


def worker(
    workload: str, args: argparse.Namespace, work_dir: str, seconds: float, **extra: Any
) -> Dict[str, Any]:
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        repr(seconds),
        "--work-dir",
        work_dir,
    ]
    if args.smoke:
        command.append("--smoke")
    for key, value in extra.items():
        if value is not None:
            command += [f"--{key.replace('_', '-')}", str(value)]
    # The worker leads its own process group, so the servers and shard
    # workers it starts are stopped with it whatever way it ends.
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=clean_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} exceeded {WORKLOAD_TIMEOUT_S} s") from exc
    finally:
        stop_group(process)
    if process.returncode != 0 or not stdout.strip():
        raise BenchError(f"{workload} worker failed ({process.returncode}): {stderr[-3000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def stop_group(process: subprocess.Popen) -> None:
    """Kill what is left of a worker's process group and wait for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def setup_seconds(workload: str, probes: int) -> List[float]:
    """Launch-to-imported wall times of fresh interpreters."""
    statement = "; ".join(f"import {module}" for module in layers.entry_modules(workload))
    samples = []
    for _ in range(probes):
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", statement], cwd=ROOT, env=clean_env(), check=True)
        samples.append(time.perf_counter() - begin)
    return samples


def measure(workload: str, args: argparse.Namespace, work_dir: str) -> Dict[str, Any]:
    """The untraced pass: end-to-end metrics."""
    result = worker(workload, args, work_dir, args.budget)
    if workload not in layers.SERVE_WORKLOADS:
        samples = setup_seconds(workload, 2 if args.smoke else SETUP_PROBES)
        result["setup_s"] = statistics.median(samples)
        result.setdefault("diag", {})["setup_samples_s"] = samples
    metrics = dict(result["metrics"], setup_s=result["setup_s"], peak_rss_mb=result["peak_rss_mb"])
    result["summary"] = {
        name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()
    }
    return result


def trace(workload: str, args: argparse.Namespace, work_dir: str) -> Dict[str, Any]:
    """An untraced and a traced pass on the same inputs: per-layer metrics."""
    os.makedirs(os.path.join(BUILD_DIR, "trace"), exist_ok=True)
    trace_file = os.path.join(BUILD_DIR, "trace", f"{workload}.json")
    if workload in layers.SERVE_WORKLOADS:
        result = worker(workload, args, work_dir, args.budget, trace_file=trace_file)
        values = result.pop("layer_values")
    else:
        plain = worker(workload, args, work_dir, args.budget / 4)
        result = worker(
            workload, args, work_dir, args.budget, count=plain["units"], trace_file=trace_file
        )
        with open(trace_file, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        if result["digest"] != plain["digest"]:
            result["ops_failed"] += 1
            result.setdefault("errors", []).append("traced and untraced outputs differ")
        values = layers.layer_metrics(snapshot, result["busy_s"])
        values["trace.overhead"] = result["busy_s"] / plain["busy_s"]
        values["trace.spans"] = len(snapshot["spans"])
        values.update(_derived(workload, plain, snapshot))
        kept = ("status", "layers", "tagged", "counters", "absent")
        result["trace"] = {key: snapshot[key] for key in kept}
    result["trace_file"] = os.path.relpath(trace_file, ROOT)
    result["summary"] = layers.per_layer(values)
    return result


def _derived(workload: str, plain: Dict[str, Any], snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer values read from results rather than from spans."""
    if workload == "design":
        diag = plain["diag"]
        search = diag["search"]
        values = {f"synth.{key}": value for key, value in search.items()}
        values["synth.oracle_calls_per_design"] = search["oracle_calls"] / plain["units"]
        values["design.accept_ratio"] = diag["accept_ratio"]
        values["analysis.cache.hit_ratio"] = diag["cache_hit_ratio"]
        for h, p50 in diag["p50_ms_by_h"].items():
            values[f"design.h{h}.p50_rate"] = 1e3 / p50
        return values
    values = dict(snapshot["counters"])
    for system, entry in snapshot["tagged"].get("baselines.run_trial", {}).items():
        values[f"baselines.{system}.slots_per_s"] = entry["units"] / entry["total_s"]
    return values


def environment() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def run_workload(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    os.makedirs(BUILD_DIR, exist_ok=True)
    args.deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=BUILD_DIR)
    try:
        result = (trace if args.trace else measure)(workload, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["workload"] = workload
    result["seed"] = args.seed
    result["seconds"] = args.budget
    result["traced"] = bool(args.trace)
    return result


def report(result: Dict[str, Any]) -> None:
    print(
        f"{result['workload']}: ops={result['ops']} failed={result['ops_failed']} "
        f"wall={result['wall_s']:.1f}s",
        file=sys.stderr,
    )
    for name, entry in result["summary"].items():
        print(f"  {name:44s} {entry['value']:14.6g} {entry['unit']}", file=sys.stderr)
    for error in result.get("errors", []):
        print(f"  error: {error}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="~1/20 scale")
    parser.add_argument("--out", help="also write the full document here")
    args = parser.parse_args(argv)
    args.budget = args.seconds / SMOKE_SCALE if args.smoke else args.seconds
    # A terminated run unwinds through the finally blocks that stop workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        check_layout()
        workloads = [args.workload] if args.workload else list(layers.WORKLOADS)
        results = [run_workload(workload, args) for workload in workloads]
    except (BenchError, OSError, subprocess.CalledProcessError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    document = {"environment": environment(), "results": results}
    for result in results:
        report(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    failed = sum(result["ops_failed"] for result in results)
    if len(results) == 1:
        metrics = results[0]["summary"]
    else:
        metrics = {
            f"{result['workload']}.{name}": entry
            for result in results
            for name, entry in result["summary"].items()
        }
    print(json.dumps(document, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(result["ops"] for result in results),
                "failed": failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
