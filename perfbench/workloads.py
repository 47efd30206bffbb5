"""One measured repetition of one benchmark workload.

Run by ``run.py`` in a fresh interpreter per repetition, so that peak
memory belongs to this workload alone and process-global state (the
campaign's snapshot cache, import caches, the dedup caches of earlier
runs) starts cold every time::

    PYTHONPATH=src python3 perfbench/workloads.py \\
        --workload cycle_active --seed 1 --trace 0 --scratch DIR

It drives only public entry points of ``repro`` and prints one JSON
object: the timed region's wall time, what the simulation did (from
:mod:`tracer`'s observer), the correctness checks, a digest of the
simulated outputs and, with ``--trace 1``, the per-layer self times.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Callable, Dict, List

import tracer

#: Fixed workload definitions.  The sizes are part of each workload's
#: definition and must not change between commits being compared.
PARAMS: Dict[str, Dict[str, Any]] = {
    "cycle_active": {
        "style": "active", "replicas": 3, "clients": 2,
        "requests_per_client": 1000, "request_bytes": 128,
        "reply_bytes": 128, "state_bytes": 1024, "servant_us": 15.0,
        "checkpoint_interval": 1, "warmup_us": 150_000.0},
    "cycle_warm_passive": {
        "style": "warm_passive", "replicas": 3, "clients": 2,
        "requests_per_client": 1000, "request_bytes": 128,
        "reply_bytes": 128, "state_bytes": 1024, "servant_us": 15.0,
        "checkpoint_interval": 1, "warmup_us": 150_000.0},
    "fault_campaign": {
        "styles": ["active", "warm_passive"], "replicas": 3,
        "fault_loads": ["process_crash", "crash_and_restart", "partition",
                        "flaky_link", "loss_burst"],
        "shard_counts": [1, 3], "clients": 2, "rate_per_s": 200.0,
        "duration_us": 1_000_000.0, "settle_us": 500_000.0,
        "telemetry": True, "journal": True, "slo": True, "check": False,
        "workers": 1},
    "explore": {
        "scenarios": ["canonical_scenario", "canonical_partition_scenario"],
        "budget_per_scenario": 60, "stop_on_violation": False},
}

#: Fault kinds that take the service down (mirrors the trial harness's
#: definition of an outage).
OUTAGE_KINDS = ("process_crash", "host_crash", "crash_restart")


class Region:
    """The timed region of one repetition."""

    def __init__(self, trace: "tracer.Tracer | None"):
        self.trace = trace
        self.t_start = 0.0
        self.wall_s = 0.0

    def start(self) -> None:
        tracer.OBSERVER.reset()
        if self.trace is not None:
            self.trace.begin()
        self.t_start = time.perf_counter()

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self.t_start
        if self.trace is not None:
            self.traced_ns = self.trace.end()


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of a sorted, non-empty list."""
    index = max(0, min(len(ordered) - 1,
                       int(-(-q * len(ordered) // 1)) - 1))
    return ordered[index]


def run_cycle(params: Dict[str, Any], seed: int, region: Region,
              _scratch: str) -> Dict[str, Any]:
    """The paper's request cycle: closed-loop clients, one style."""
    from repro.experiments.testbed import (
        Testbed,
        deploy_client,
        deploy_replica_group,
    )
    from repro.orb import BusyServant
    from repro.replication import (
        ClientReplicationConfig,
        ReplicationConfig,
        ReplicationStyle,
    )
    from repro.workload import ClosedLoopClient

    style = ReplicationStyle(params["style"])
    testbed = Testbed.paper_testbed(params["replicas"], params["clients"],
                                    seed=seed)
    config = ReplicationConfig(
        style=style, group="svc",
        checkpoint_interval_requests=params["checkpoint_interval"])

    def servant() -> BusyServant:
        return BusyServant(processing_us=params["servant_us"],
                           reply_bytes=params["reply_bytes"],
                           state_bytes=params["state_bytes"])

    deploy_replica_group(
        testbed, [f"s{i:02d}" for i in range(1, params["replicas"] + 1)],
        config, {"bench": servant})
    stacks = [deploy_client(testbed, f"w{i:02d}", ClientReplicationConfig(
        group="svc", expected_style=style))
        for i in range(1, params["clients"] + 1)]
    testbed.run(params["warmup_us"])
    loaders = [ClosedLoopClient(stack, params["requests_per_client"],
                                object_key="bench",
                                payload_bytes=params["request_bytes"])
               for stack in stacks]

    region.start()
    start_us = testbed.now
    for loader in loaders:
        loader.start()
    while not all(loader.done for loader in loaders) \
            and testbed.now - start_us < 600_000_000.0:
        testbed.run(50_000.0)
    region.stop()

    n = params["requests_per_client"]
    return {
        "attempted": tracer.OBSERVER.sent,
        "failed": tracer.OBSERVER.sent - tracer.OBSERVER.answered,
        "checks": {
            "every_request_completes": all(
                loader.done and loader.stats.completed == n
                for loader in loaders),
            "observer_matches_clients": tracer.OBSERVER.answered == sum(
                loader.stats.completed for loader in loaders),
        },
        "digest_parts": [],
        "extra": {"failed_share": 1.0 - tracer.OBSERVER.answered
                  / max(tracer.OBSERVER.sent, 1)},
    }


def run_campaign_workload(params: Dict[str, Any], seed: int,
                          region: Region, scratch: str) -> Dict[str, Any]:
    """A serial fault campaign with journal, telemetry and SLO on."""
    from repro.campaign import CampaignSpec, ResultsStore, run_campaign

    spec = CampaignSpec(
        name="perfbench", styles=list(params["styles"]),
        replica_counts=[params["replicas"]], checkpoint_intervals=[1],
        fault_loads=list(params["fault_loads"]),
        shard_counts=list(params["shard_counts"]), seeds=[seed],
        n_clients=params["clients"], duration_us=params["duration_us"],
        rate_per_s=params["rate_per_s"], settle_us=params["settle_us"],
        base_seed=seed)
    n_trials = spec.n_trials()
    journal_dir = os.path.join(scratch, "journals")
    store = ResultsStore(os.path.join(scratch, "results.jsonl"))

    region.start()
    summary = run_campaign(spec, store, workers=params["workers"],
                           telemetry=params["telemetry"],
                           journal_dir=journal_dir, slo=params["slo"],
                           check=params["check"])
    region.stop()

    records = summary.records
    metrics = [r.metrics for r in records]
    sent = sum(m.get("sent", 0) for m in metrics)
    completed = sum(m.get("completed", 0) for m in metrics)
    outage = [m for m in metrics
              if any(f["kind"] in OUTAGE_KINDS for f in m.get("faults", ()))]
    journals = []
    for name in sorted(os.listdir(journal_dir)) \
            if os.path.isdir(journal_dir) else ():
        with open(os.path.join(journal_dir, name), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        journals.append(f"{name}:{digest}")
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "checks": {
            "every_trial_ran": summary.ran == n_trials == len(records),
            "every_trial_ok": summary.failed == 0
            and all(r.ok for r in records),
            "journal_per_trial": len(journals) == n_trials,
            "observer_matches_trials": (tracer.OBSERVER.sent == sent
                                        and tracer.OBSERVER.answered
                                        == completed),
        },
        "digest_parts": [r.to_line() for r in records] + journals,
        "extra": {
            "trials_per_s": len(records) / region.wall_s,
            "failed_share": (sent - completed) / max(sent, 1),
            "sim_availability": sum(m.get("availability", 0.0)
                                    for m in metrics) / max(len(metrics), 1),
            "sim_recovery_us": (sum(m["mean_recovery_us"] for m in outage)
                                / len(outage)) if outage else 0.0,
            "trials_with_outage": len(outage),
        },
    }


def run_explore(params: Dict[str, Any], seed: int, region: Region,
                _scratch: str) -> Dict[str, Any]:
    """Schedule exploration of the two canonical check scenarios.

    ``explore`` builds and warms each scenario itself, so the timed
    region opens at the first verified schedule (its progress
    callback); set-up time therefore includes that first schedule.
    """
    import repro.check as check

    budget = params["budget_per_scenario"]

    def progress(_index: int, _report: Any) -> None:
        if region.t_start == 0.0:
            region.start()

    results = [check.explore(getattr(check, name)(seed=seed), budget=budget,
                             base_walk_seed=seed * budget,
                             stop_on_violation=params["stop_on_violation"],
                             progress=progress)
               for name in params["scenarios"]]
    region.stop()

    run = sum(r.schedules_run for r in results)
    violating = sum(len(r.violating) for r in results)
    distinct = sum(r.distinct_schedules for r in results)
    return {
        "attempted": run, "failed": violating,
        "checks": {
            "every_schedule_ran": run == budget * len(params["scenarios"]),
            "zero_violations": violating == 0,
        },
        "digest_parts": [f"{rep.walk_seed}:{rep.digest}"
                         for r in results for rep in r.reports],
        "extra": {
            "schedules_per_s": (run - 1) / region.wall_s,
            "failed_share": violating / max(run, 1),
            "distinct_share": distinct / max(run, 1),
        },
    }


WORKLOADS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "cycle_active": run_cycle,
    "cycle_warm_passive": run_cycle,
    "fault_campaign": run_campaign_workload,
    "explore": run_explore,
}


def params_digest(workload: str) -> str:
    """Digest of a workload's fixed parameters (for the run manifest)."""
    text = json.dumps(PARAMS[workload], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    from repro.sim import default_calibration

    tracer.install_observer()
    trace = tracer.install_tracer() if args.trace else None
    region = Region(trace)
    outcome = WORKLOADS[args.workload](PARAMS[args.workload], args.seed,
                                       region, args.scratch)

    obs = tracer.OBSERVER
    rtts = sorted(obs.rtts_us)
    hasher = hashlib.sha256()
    for part in (f"rtts:{','.join(repr(v) for v in rtts)}",
                 f"events:{obs.events}", f"frames:{obs.frames}",
                 f"wire:{obs.wire_bytes}", f"drops:{obs.drops}",
                 f"sent:{obs.sent}", *outcome.pop("digest_parts")):
        hasher.update(part.encode())
        hasher.update(b"\n")
    result: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "t_start": region.t_start, "wall_s": region.wall_s,
        "sent": obs.sent, "answered": obs.answered,
        "rtt_samples": len(rtts),
        "rtt_p50_us": _quantile(rtts, 0.50) if rtts else 0.0,
        "rtt_p99_us": _quantile(rtts, 0.99) if rtts else 0.0,
        "events": obs.events, "frames": obs.frames,
        "wire_bytes": obs.wire_bytes, "drops": obs.drops,
        "digest": hasher.hexdigest(),
        "params_digest": params_digest(args.workload),
        "calibration": dataclasses.asdict(default_calibration().network),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **outcome,
    }
    if trace is not None:
        result["traced_wall_s"] = region.traced_ns / 1e9
        result["self_s"] = {k: v / 1e9 for k, v in trace.self_ns.items()}
        result["calls"] = dict(trace.calls)
        result["counts"] = dict(trace.counts)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
