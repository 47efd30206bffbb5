"""The completed-reply log behind checkpoints' ``seen`` field.

A replicator keeps its completed ``(request id, reply)`` entries in one
append-only log, and each checkpoint ships them as an O(1)
:class:`SeenSlice` of that log.  A backup that applied the previous
slice of the same log, and whose cache has not changed since, inserts
only the entries past that slice's end.  These tests pin that the
shortcut never shows: after every apply, the receiver's cache
(contents and order) equals a full re-insert of the whole shipped set,
and every shipped slice equals its sender's completed entries at the
moment it was taken.
"""

from collections import OrderedDict

import pytest

from repro.cluster import run_cluster_rebalance_check
from repro.experiments.testbed import (
    Testbed,
    deploy_client,
    deploy_replica,
    deploy_replica_group,
)
from repro.orb import CounterServant, GiopRequest
from repro.replication import (
    ClientReplicationConfig,
    ReplicationConfig,
    ReplicationStyle,
    RepRequest,
    server,
)
from repro.replication.messages import SeenSlice
from repro.replication.server import ServerReplicator
from tests.replication.helpers import FAILOVER_US, build_rig, call, fire


def _reference_insert(cache, entries):
    """The plain algorithm: re-insert every entry at the end, evicting
    the oldest past the limit.  Returns the resulting items."""
    for rid, cached in entries:
        cache[rid] = cached
        cache.move_to_end(rid)
        while len(cache) > server.SEEN_CACHE_LIMIT:
            cache.popitem(last=False)
    return list(cache.items())


def _completed(replicator):
    return tuple((rid, cached) for rid, cached in replicator._seen.items()
                 if cached is not None)


class SeenAudit:
    """Checks every slice taken and every seen set applied or absorbed."""

    def __init__(self, monkeypatch):
        #: One (replicator, entries shipped, entries inserted) per apply.
        self.applies = []
        self.absorbs = 0
        self._taken = {}
        take = ServerReplicator._completed_slice
        apply = ServerReplicator._apply_seen
        absorb = ServerReplicator.absorb_seen

        def checked_take(replicator):
            view = take(replicator)
            entries = tuple(view)
            assert entries == _completed(replicator)
            # Holding the view keeps its id unique for the lookup below.
            self._taken[id(view)] = (view, entries)
            return view

        def checked_apply(replicator, seen):
            shipped = tuple(seen)
            if isinstance(seen, SeenSlice):
                assert shipped == self._taken[id(seen)][1]
            expected = _reference_insert(OrderedDict(replicator._seen),
                                         shipped)
            before = replicator._seen_version
            apply(replicator, seen)
            assert list(replicator._seen.items()) == expected
            self.applies.append((replicator, len(shipped),
                                 replicator._seen_version - before))

        def checked_absorb(replicator, entries):
            entries = tuple(entries)
            expected = _reference_insert(OrderedDict(replicator._seen),
                                         entries)
            absorb(replicator, entries)
            assert list(replicator._seen.items()) == expected
            self.absorbs += 1

        monkeypatch.setattr(ServerReplicator, "_completed_slice",
                            checked_take)
        monkeypatch.setattr(ServerReplicator, "_apply_seen", checked_apply)
        monkeypatch.setattr(ServerReplicator, "absorb_seen", checked_absorb)

    def shortcuts(self, replicator=None) -> int:
        """Applies that inserted fewer entries than were shipped."""
        return sum(1 for who, shipped, inserted in self.applies
                   if inserted < shipped
                   and replicator in (None, who))

    def full_inserts(self, replicator) -> int:
        """Non-empty applies that re-inserted every shipped entry."""
        return sum(1 for who, shipped, inserted in self.applies
                   if who is replicator and shipped and inserted == shipped)


@pytest.fixture
def audit(monkeypatch):
    return SeenAudit(monkeypatch)


def _load(testbed, clients, per_client, run_us=1_000_000):
    """Fire ``per_client`` increments from every client; all answered."""
    replies = [fire(client, "add", 1)
               for client in clients for _ in range(per_client)]
    testbed.run(run_us)
    assert all(replies)


def _config(style):
    return ReplicationConfig(style=style, group="svc",
                             checkpoint_interval_requests=1)


def test_warm_passive_failover(audit):
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE,
                                           n_clients=2)
    _load(testbed, clients, 6)
    assert audit.shortcuts(replicas[1].replicator) > 0
    before = len(audit.applies)
    replicas[0].crash()
    testbed.run(FAILOVER_US)
    _load(testbed, clients, 6)
    # The new primary's slices reach the remaining backup, which
    # catches up incrementally from the second one on.
    assert audit.shortcuts(replicas[2].replicator) > 0
    assert len(audit.applies) > before
    assert replicas[1].servants["counter"].value == 24
    assert replicas[2].servants["counter"].value == 24


def test_crash_and_restart_joiner(audit):
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    _load(testbed, clients, 5)
    replicas[1].crash()
    testbed.run(FAILOVER_US)
    joiner = deploy_replica(testbed, "s02",
                            _config(ReplicationStyle.WARM_PASSIVE),
                            {"counter": CounterServant},
                            process_name="svc-r2b")
    testbed.run(500_000)
    assert joiner.replicator.synced
    _load(testbed, clients, 5)
    assert audit.full_inserts(joiner.replicator) > 0
    assert audit.shortcuts(joiner.replicator) > 0
    assert _completed(joiner.replicator) \
        == _completed(replicas[0].replicator)
    assert joiner.servants["counter"].value == 10


def test_hybrid_active_head_takes_the_full_path(audit):
    testbed = Testbed.paper_testbed(3, 1)
    config = ReplicationConfig(style=ReplicationStyle.HYBRID, group="svc",
                               checkpoint_interval_requests=1,
                               active_head=2)
    replicas = deploy_replica_group(testbed, ["s01", "s02", "s03"], config,
                                    {"counter": CounterServant})
    client = deploy_client(testbed, "w01", ClientReplicationConfig(
        group="svc", expected_style=ReplicationStyle.HYBRID))
    testbed.run(100_000)
    for _ in range(6):
        call(testbed, client, "add", 1, timeout_us=50_000)
    active, warm = replicas[1].replicator, replicas[2].replicator
    assert active.requests_processed == 6
    assert warm.requests_processed == 0
    # The second head member executes each request itself before the
    # next checkpoint arrives, so its cache has changed every time and
    # it re-inserts every shipped entry.
    assert audit.full_inserts(active) == 6
    assert audit.shortcuts(active) == 0
    assert audit.shortcuts(warm) == 5


def test_semi_active_joiner(audit):
    testbed, replicas, clients = build_rig(ReplicationStyle.SEMI_ACTIVE)
    _load(testbed, clients, 4)
    replicas[2].crash()
    testbed.run(FAILOVER_US)
    joiner = deploy_replica(testbed, "s03",
                            _config(ReplicationStyle.SEMI_ACTIVE),
                            {"counter": CounterServant},
                            process_name="svc-r3b")
    testbed.run(500_000)
    assert joiner.replicator.synced
    assert audit.full_inserts(joiner.replicator) == 1
    _load(testbed, clients, 4)
    assert joiner.servants["counter"].value == 8


def test_shard_migration_absorbs_the_shipped_set(audit):
    out = run_cluster_rebalance_check()
    assert out.ok, out.violations
    assert out.migrations_committed == 2
    # Each destination replica absorbs the shipped set.
    assert audit.absorbs >= out.migrations_committed


def test_eviction_advances_the_log_start(audit, monkeypatch):
    monkeypatch.setattr(server, "SEEN_CACHE_LIMIT", 8)
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    primary = replicas[0].replicator
    starts, logs = set(), set()
    for _ in range(40):
        call(testbed, clients[0], "add", 1, timeout_us=50_000)
        starts.add(primary._done_start)
        logs.add(id(primary._done_log))
    testbed.run(500_000)
    assert len(primary._seen) == 8
    assert max(starts) > 0
    # Compaction swaps in a fresh list; backups then re-insert fully
    # once and resume the shortcut on the new log.
    assert len(logs) > 1
    assert len(primary._done_log) < 2 * 8
    backup = replicas[1].replicator
    assert audit.full_inserts(backup) > 1
    assert audit.shortcuts(backup) > 1
    assert list(backup._seen.items())[-8:] == list(primary._seen.items())


def test_entries_evicted_between_checkpoints_are_not_shipped(audit,
                                                            monkeypatch):
    monkeypatch.setattr(server, "SEEN_CACHE_LIMIT", 8)
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    primary, backup = replicas[0].replicator, replicas[1].replicator
    for _ in range(2):
        call(testbed, clients[0], "add", 1, timeout_us=50_000)
    first = (primary._done_log, primary._done_start, len(primary._done_log))
    # Nine completions before the next checkpoint: the next slice
    # starts past the end of the one the backup applied last.
    primary.set_checkpoint_interval(9)
    for _ in range(9):
        call(testbed, clients[0], "add", 1, timeout_us=50_000)
    testbed.run(100_000)
    assert primary._done_log is first[0]
    assert primary._done_start > first[2]
    last = [(shipped, inserted) for who, shipped, inserted in audit.applies
            if who is backup][-1]
    # Only the shipped entries go in, not the ones evicted between.
    assert last == (8, 8)
    assert list(backup._seen.items()) == list(primary._seen.items())


def test_a_taken_slice_never_changes(monkeypatch):
    monkeypatch.setattr(server, "SEEN_CACHE_LIMIT", 4)
    testbed, replicas, _ = build_rig(ReplicationStyle.WARM_PASSIVE,
                                     n_replicas=1)
    replicator = replicas[0].replicator

    def complete(rid):
        replicator._remember(rid, None)
        replicator._remember(rid, f"reply-{rid}")

    for i in range(3):
        complete(f"r{i}")
    first = replicator._completed_slice()
    frozen = tuple(first)
    assert len(first) == 3
    for i in range(3, 7):
        complete(f"r{i}")
    second = replicator._completed_slice()
    assert second.log is first.log and second.start > first.start
    assert tuple(second) == _completed(replicator)
    # Moving or un-completing a completed entry rebuilds the log as a
    # new list, so earlier slices keep their entries.
    replicator._remember("r5", "reply-again")
    replicator._remember("r6", None)
    third = replicator._completed_slice()
    assert third.log is not first.log
    assert tuple(third) == _completed(replicator) \
        == (("r3", "reply-r3"), ("r4", "reply-r4"), ("r5", "reply-again"))
    assert tuple(first) == frozen
    assert replicator.completed_seen() == tuple(third)


def test_joiner_synced_from_a_periodic_checkpoint_keeps_older_replies():
    """A joiner may mark itself synced from a periodic checkpoint, so
    every checkpoint must carry the whole completed set, not the
    entries since the last one.  After the primary dies, a retry of a
    request acknowledged before the join must get the cached reply
    and must not execute again."""
    testbed = Testbed.paper_testbed(2, 1)
    config = _config(ReplicationStyle.WARM_PASSIVE)
    primary = deploy_replica(testbed, "s01", config,
                             {"counter": CounterServant},
                             process_name="svc-r1")
    client = deploy_client(testbed, "w01", ClientReplicationConfig(
        group="svc", expected_style=ReplicationStyle.WARM_PASSIVE))
    testbed.run(100_000)
    acked = RepRequest(
        request=GiopRequest(request_id="acked-before-join",
                            object_key="counter", operation="add",
                            payload=5, payload_bytes=32),
        client=client.gcs.member)
    client.gcs.send_direct(primary.replicator.member, acked,
                           acked.wire_bytes)
    testbed.run(200_000)
    assert primary.servants["counter"].value == 5
    call(testbed, client, "add", 1)

    # Drop the joiner's state-transfer requests so that only a
    # periodic checkpoint can sync it.
    sync_requests = []
    primary.replicator._on_sync_request = sync_requests.append
    joiner = deploy_replica(testbed, "s02", config,
                            {"counter": CounterServant},
                            process_name="svc-r2")
    testbed.run(200_000)
    assert sync_requests and not joiner.replicator.synced
    assert call(testbed, client, "add", 1).payload == 7
    assert joiner.replicator.synced
    assert joiner.servants["counter"].value == 7

    primary.crash()
    testbed.run(FAILOVER_US)
    assert joiner.replicator.is_primary
    client.gcs.send_direct(joiner.replicator.member, acked,
                           acked.wire_bytes)
    testbed.run(200_000)
    assert joiner.replicator.duplicates_suppressed == 1
    assert joiner.replicator.requests_processed == 0
    assert joiner.servants["counter"].value == 7
