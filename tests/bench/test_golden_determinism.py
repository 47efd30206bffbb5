"""Golden-digest regression: the fast path is behavior-invariant.

The hot-path work (kernel fast scheduling, heap compaction, GCS
routing caches, loopback loss skip, the persistent campaign pool) is
only admissible if it never changes simulation results.  These tests
pin that: the same seed must produce byte-identical journal and
telemetry exports whether the optimized kernel or the naive
:class:`ReferenceSimulator` drives the run, and whether a campaign
runs serially or across the worker pool; explorer walks and a fault
trial must also keep the digests pinned below.
"""

import hashlib
from dataclasses import replace

from repro.campaign import CampaignSpec, ResultsStore, run_campaign
from repro.check import canonical_scenario, explore
from repro.experiments import testbed as testbed_module
from repro.experiments.scenarios import run_replicated_load
from repro.experiments.trial import run_fault_trial
from repro.journal.io import events_to_jsonl
from repro.replication import ReplicationStyle
from repro.sim import Simulator
from repro.sim.reference import ReferenceSimulator
from repro.telemetry import chrome_trace_json


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_run(monkeypatch, sim_cls, style):
    """One journaled + traced load run on the given kernel class."""
    monkeypatch.setattr(testbed_module, "Simulator", sim_cls)
    result = run_replicated_load(
        style, n_replicas=3, n_clients=2, n_requests=25,
        seed=5, telemetry=True, journal=True)
    assert result.completed == 50
    journal = events_to_jsonl(result.journal.events)
    telemetry = chrome_trace_json(result.telemetry.spans)
    assert journal and telemetry
    return _digest(journal), _digest(telemetry)


def test_fast_kernel_matches_reference_active(monkeypatch):
    reference = _golden_run(monkeypatch, ReferenceSimulator,
                            ReplicationStyle.ACTIVE)
    fast = _golden_run(monkeypatch, Simulator, ReplicationStyle.ACTIVE)
    assert fast == reference


def test_fast_kernel_matches_reference_warm_passive(monkeypatch):
    reference = _golden_run(monkeypatch, ReferenceSimulator,
                            ReplicationStyle.WARM_PASSIVE)
    fast = _golden_run(monkeypatch, Simulator,
                       ReplicationStyle.WARM_PASSIVE)
    assert fast == reference


def test_kernel_level_trace_identical():
    """Same seed, same stochastic workload: the two kernels dispatch
    the exact same (time, value) sequence."""
    def drive(sim):
        out = []

        def tick(n):
            out.append((sim.now, sim.rng.random()))
            if n:
                handle = sim.schedule_fast(50.0, tick, 0)
                handle.cancel()
                sim.schedule_fast(sim.rng.uniform(1, 9), tick, n - 1)

        sim.schedule(0.0, tick, 400)
        sim.run()
        return out

    assert drive(Simulator(seed=13)) == drive(ReferenceSimulator(seed=13))


def _campaign_spec():
    return CampaignSpec(
        name="golden", styles=["active", "warm_passive"],
        replica_counts=[2], fault_loads=["none", "process_crash"],
        seeds=[0], n_clients=1, duration_us=200_000.0,
        rate_per_s=100.0, settle_us=400_000.0)


def _campaign_digests(tmp_path, tag, workers):
    journal_dir = tmp_path / f"{tag}-journal"
    store = ResultsStore(str(tmp_path / f"{tag}.jsonl"))
    summary = run_campaign(_campaign_spec(), store, workers=workers,
                           journal_dir=str(journal_dir))
    assert summary.failed == 0
    digests = {"results": _digest(open(store.path).read())}
    for path in sorted(journal_dir.iterdir()):
        digests[path.name] = _digest(path.read_text())
    assert len(digests) > 1  # the journals were actually captured
    return digests


def test_campaign_journals_identical_across_worker_counts(tmp_path):
    serial = _campaign_digests(tmp_path, "serial", 1)
    pooled = _campaign_digests(tmp_path, "pooled", 3)
    assert pooled == serial


#: Walk digests of ``explore`` over the shrunk canonical scenario
#: (4 requests, 1 s horizon, 0.5 s settle) with ``budget=3``, in walk
#: order.
PINNED_WALK_DIGESTS = [
    "d3ac707cba169728cf41a7bcd1232b37c9ae40318ca9acb300008369bef2830e",
    "cf7d0ae33a43c635663348552ce49f3f192af7e23d0db2998895fa893791e095",
    "842e5e682f7d0439a7023488199f8ba78378dadfd52f4ef9e0aaabd4a930d92c",
]

#: sha256 of the journal JSONL of a seeded warm-passive fault trial.
PINNED_TRIAL_JOURNAL = (
    "a80bd9a76713fb5e4e0b598da702d20de8e94e3e8e26ffccc202f0c06104c563")


def test_walk_digests_equal_pinned_values():
    """Explorer walks digest to values pinned across commits: any
    change to what a schedule simulates (warm-up order, policy arming,
    mutation patching) shows up here, not only as a mismatch between
    two paths of one revision."""
    scenario = replace(canonical_scenario(), n_requests=4,
                       horizon_us=1_000_000.0, settle_us=500_000.0)
    result = explore(scenario, budget=3, stop_on_violation=False)
    assert [r.digest for r in result.reports] == PINNED_WALK_DIGESTS


def test_fault_trial_journal_equals_pinned_digest():
    """Every run of a seeded fault trial journals byte-identically, to
    a digest pinned across commits — the property campaign resume and
    serial==parallel workers rely on."""
    for _ in range(2):  # every run, not just the first
        trial = run_fault_trial(ReplicationStyle.WARM_PASSIVE, 2, 1,
                                duration_us=150_000.0, rate_per_s=100.0,
                                seed=3, journal=True)
        journal = events_to_jsonl(trial.journal_events)
        assert _digest(journal) == PINNED_TRIAL_JOURNAL
