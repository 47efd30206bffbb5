"""The repository benchmark: repeated, fresh-process runs of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cycle_active --seed 1 \\
        --seconds 30 --trace 0

Each repetition runs ``workloads.py`` in a fresh interpreter (so peak
memory and process-global caches belong to that repetition alone) until
``--seconds`` have been spent, at least three times.  With ``--trace 0``
the last line of output is a JSON object carrying every end-to-end
metric (medians over the repetitions); with ``--trace 1`` untraced and
traced repetitions alternate and the JSON carries the per-layer metrics,
including the tracing overhead.  Every repetition's correctness checks
must pass and its sim digest must equal every other repetition's.
See ``perfbench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from tracer import LAYERS
from workloads import PARAMS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics (every workload reports each one) and their units.
END_TO_END = (("requests_per_s", "req/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("sim_rtt_p50_us", "us"),
              ("sim_rtt_p99_us", "us"),
              ("sim_wire_bytes_per_request", "B"),
              ("answered_share", "fraction"))

#: Workload-specific figures printed in the table (not in the JSON,
#: which carries only the metrics every workload reports).
EXTRA_UNITS = {"trials_per_s": "trials/s", "schedules_per_s": "schedules/s",
               "sim_availability": "fraction", "sim_recovery_us": "us",
               "failed_share": "fraction", "distinct_share": "fraction",
               "trials_with_outage": "count"}

MIN_REPS = 3
#: No repetition starts once this much time has passed, so a run ends
#: well within three minutes even on a slow host.
HARD_CAP_S = 150.0


class BenchError(Exception):
    """A repetition could not run; the benchmark prints no result."""


def run_child(workload: str, seed: int, trace: int, scratch: str,
              timeout_s: float) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its JSON result
    plus ``setup_s`` measured from just before the process started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # One fixed string-hash seed, so every repetition runs with the
    # same dict layouts.  Simulated results do not depend on it (the
    # sim digest is checked across repetitions).
    env["PYTHONHASHSEED"] = "0"
    rep_dir = os.path.join(scratch, f"rep{len(os.listdir(scratch))}")
    os.makedirs(rep_dir)
    command = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--scratch", rep_dir]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition exceeded "
                         f"{timeout_s:.0f}s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the
    # host, so the child's region start is comparable with ``spawned``.
    result["setup_s"] = result["t_start"] - spawned
    return result


def git_revision() -> Optional[str]:
    """HEAD of the checkout, read without running git (None outside a
    git work tree)."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of every ``src/repro`` source file: the code revision
    that holds in checkouts without git metadata."""
    hasher = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"),
                                 recursive=True)):
        hasher.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            hasher.update(handle.read())
    return hasher.hexdigest()[:16]


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """End-to-end metrics: medians of the timed quantities, and the
    (identical across repetitions) simulated ones."""
    first = reps[0]
    answered = max(first["answered"], 1)
    return {
        "requests_per_s": median([r["answered"] / r["wall_s"]
                                  for r in reps]),
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_kb"] / 1024.0 for r in reps]),
        "sim_rtt_p50_us": first["rtt_p50_us"],
        "sim_rtt_p99_us": first["rtt_p99_us"],
        "sim_wire_bytes_per_request": first["wire_bytes"] / answered,
        "answered_share": first["answered"] / max(first["sent"], 1),
    }


def per_layer(plain: List[Dict[str, Any]],
              traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics from the traced repetitions, plus counts and
    the overhead against the untraced ones."""
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        own = [r["self_s"][layer] for r in traced]
        if layer == "replication":
            own = [v + r["self_s"]["replication.dedup"]
                   for v, r in zip(own, traced)]
        metrics[f"{layer}.self_s"] = median(own)
        metrics[f"{layer}.calls"] = median([r["calls"][layer]
                                            for r in traced])
    first = traced[0]
    plain_wall = median([r["wall_s"] for r in plain])
    traced_wall = median([r["traced_wall_s"] for r in traced])
    metrics.update({
        "sim.events": first["events"],
        "sim.host_ns_per_event": plain_wall * 1e9 / max(first["events"], 1),
        "net.frames": first["frames"],
        "net.wire_bytes": first["wire_bytes"],
        "net.drops": first["drops"],
        "gcs.views_installed": first["counts"]["gcs.views_installed"],
        "replication.checkpoints":
            first["counts"]["replication.checkpoints"],
        "replication.dedup_entries_shipped":
            first["counts"]["replication.dedup_entries_shipped"],
        "replication.dedup_self_s": median(
            [r["self_s"]["replication.dedup"] for r in traced]),
        "faults.injected": first["counts"]["faults.injected"],
        "check.lin_configs": first["counts"]["check.lin_configs"],
        "check.distinct_share": first["extra"].get("distinct_share", 0.0),
        "trace.overhead_x": traced_wall / plain_wall,
        "trace.accounted_share": median(
            [sum(r["self_s"].values()) / r["traced_wall_s"]
             for r in traced]),
    })
    return metrics


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({
        "sim.events": "count", "sim.host_ns_per_event": "ns",
        "net.frames": "count", "net.wire_bytes": "B", "net.drops": "count",
        "gcs.views_installed": "count", "replication.checkpoints": "count",
        "replication.dedup_entries_shipped": "count",
        "replication.dedup_self_s": "s", "faults.injected": "count",
        "check.lin_configs": "count", "check.distinct_share": "fraction",
        "trace.overhead_x": "x", "trace.accounted_share": "fraction"})
    return units


def checks(reps: List[Dict[str, Any]], trace: int) -> Dict[str, bool]:
    """Correctness over all repetitions of the run."""
    verdict = {name: all(r["checks"][name] for r in reps)
               for name in reps[0]["checks"]}
    verdict["sim_digest_repeats"] = len({r["digest"] for r in reps}) == 1
    if trace:
        traced = [r for r in reps if r["trace"]]
        verdict["layers_account_for_wall"] = all(
            abs(sum(r["self_s"].values()) / r["traced_wall_s"] - 1) < 0.01
            and min(r["self_s"].values()) >= 0 for r in traced)
    return verdict


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    # Fill the bytecode cache once, before any timed process starts:
    # users do not pay compilation on every run.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(SRC, "repro")], cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=False)

    scratch = os.path.join(ROOT, ".perfbench_out", str(os.getpid()))
    os.makedirs(scratch)
    started = time.perf_counter()
    reps: List[Dict[str, Any]] = []
    modes = (0, 1) if args.trace else (0,)
    try:
        while True:
            for mode in modes:
                elapsed = time.perf_counter() - started
                reps.append(run_child(args.workload, args.seed, mode,
                                      scratch, max(1.0, 170.0 - elapsed)))
            elapsed = time.perf_counter() - started
            rounds = len(reps) // len(modes)
            per_round = elapsed / rounds
            if rounds >= (2 if args.trace else MIN_REPS) and (
                    elapsed + per_round > args.seconds
                    or elapsed + per_round > HARD_CAP_S):
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    verdict = checks(reps, args.trace)
    plain = [r for r in reps if not r["trace"]]
    first = reps[0]
    manifest = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "repetitions": len(reps),
        "git_revision": git_revision(), "source_digest": source_digest(),
        "params_digest": first["params_digest"],
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "calibration": first["calibration"],
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print("checks " + json.dumps(verdict, sort_keys=True))
    print(f"sim_digest {first['digest']}")

    if args.trace:
        metrics = per_layer(plain, [r for r in reps if r["trace"]])
        units = per_layer_units()
    else:
        metrics = end_to_end(plain)
        units = dict(END_TO_END)
        extras = {k: median([r["extra"][k] for r in plain])
                  if k.endswith("_per_s") else first["extra"][k]
                  for k in first["extra"]}
        print(f"{'metric':<30} {'value':>16}  unit")
        for name, value in list(metrics.items()) + sorted(extras.items()):
            unit = units.get(name) or EXTRA_UNITS[name]
            print(f"{name:<30} {value:>16.6g}  {unit}")
    print(json.dumps({
        "correct": all(verdict.values()),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
