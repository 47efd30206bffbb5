"""Outside-in observation and per-layer tracing of the ``repro`` simulator.

Nothing here edits the program.  Both pieces patch *public* functions
and methods of ``repro`` from outside, after import:

- :class:`Observer` (installed on every run, traced or not) counts what
  the simulation did: client requests sent and answered, each answered
  request's modelled round trip, and the events, frames and wire bytes
  of every ``Testbed.run`` window.  It costs one small call per client
  request and per ``Testbed.run``.
- :class:`Tracer` (installed only with ``--trace 1``) bills host time to
  layers.  Every callback the kernel dispatches is billed to the layer
  that owns it, every frame handler to the layer that bound the port,
  and spans nest at the public cross-layer calls patched by
  :func:`install_tracer`.  A layer's self time is its spans' time minus
  the time of the spans nested in them; the benchmark's own code is
  the ``bench`` layer, so the self times of all layers add up to the
  traced wall time.

Neither changes simulated behaviour: wrappers never schedule events,
consume randomness or touch simulated time, and the benchmark checks
that the traced run's sim digest equals the untraced one.
"""

from __future__ import annotations

import functools
import importlib
import types
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Billing buckets.  The first fourteen are the layers the workloads reach;
#: ``experiments`` and ``faults`` are the testbed harness and the fault
#: injector, ``other`` is any other ``repro`` package, and ``bench`` is
#: the benchmark's own code (the root of every traced run).
LAYERS = ("sim", "net", "gcs", "orb", "interpose", "replication",
          "workload", "journal", "telemetry", "cluster", "slo", "check",
          "campaign", "snapshot", "experiments", "faults", "other",
          "bench")

#: Sub-bucket of ``replication``: the duplicate-suppression cache
#: shipped with every checkpoint (``completed_seen``/``absorb_seen``).
DEDUP = "replication.dedup"

_BUCKETS = LAYERS + (DEDUP,)

_MODULE_LAYER: Dict[str, str] = {}


def layer_of_module(module: Optional[str]) -> str:
    """Billing bucket of a module name (cached)."""
    layer = _MODULE_LAYER.get(module)  # type: ignore[arg-type]
    if layer is None:
        parts = (module or "").split(".")
        if parts[0] != "repro" or len(parts) < 2:
            layer = "bench" if parts[0] in ("workloads", "tracer",
                                            "__main__") else "other"
        elif parts[1] == "sim" and len(parts) > 2 \
                and parts[2] == "snapshot":
            layer = "snapshot"
        elif parts[1] in LAYERS:
            layer = parts[1]
        else:
            layer = "other"
        _MODULE_LAYER[module] = layer  # type: ignore[index]
    return layer


# ----------------------------------------------------------------------
# Observation (every run)
# ----------------------------------------------------------------------

class Observer:
    """Counts of what the simulation did, gathered at public boundaries."""

    def __init__(self) -> None:
        self.sent = 0
        self.answered = 0
        self.rtts_us: List[float] = []
        self.events = 0
        self.frames = 0
        self.wire_bytes = 0
        self.drops = 0

    def reset(self) -> None:
        """Forget everything counted so far (start of the timed region)."""
        self.__init__()  # type: ignore[misc]


#: The observer the patched functions report to.  A module global, not
#: an attribute of the probes, so that simulator snapshots (which copy
#: every object reachable from the event heap) never copy it.
OBSERVER = Observer()


class _ReplyProbe:
    """Stands in for an ``OrbClient.invoke`` reply callback and records
    the modelled round trip before calling it."""

    __slots__ = ("fn", "sim", "sent_at")

    def __init__(self, fn: Callable, sim: Any, sent_at: float):
        self.fn = fn
        self.sim = sim
        self.sent_at = sent_at

    def __call__(self, reply: Any) -> Any:
        OBSERVER.answered += 1
        OBSERVER.rtts_us.append(self.sim.now - self.sent_at)
        return self.fn(reply)


def install_observer() -> Observer:
    """Patch ``OrbClient.invoke`` and ``Testbed.run``; returns the
    observer they report to."""
    from repro.experiments.testbed import Testbed
    from repro.orb.client import OrbClient

    invoke = OrbClient.invoke

    @functools.wraps(invoke)
    def observed_invoke(self, object_key, operation, payload,
                        payload_bytes, on_reply, *args, **kwargs):
        request_id = invoke(self, object_key, operation, payload,
                            payload_bytes,
                            _ReplyProbe(on_reply, self.sim, self.sim.now),
                            *args, **kwargs)
        OBSERVER.sent += 1
        return request_id

    run = Testbed.run

    @functools.wraps(run)
    def observed_run(self, duration_us):
        stats = self.network.stats
        events = self.sim.events_dispatched
        frames, wire, drops = (stats.total_frames, stats.total_bytes,
                               stats.dropped_frames)
        try:
            return run(self, duration_us)
        finally:
            OBSERVER.events += self.sim.events_dispatched - events
            OBSERVER.frames += stats.total_frames - frames
            OBSERVER.wire_bytes += stats.total_bytes - wire
            OBSERVER.drops += stats.dropped_frames - drops

    OrbClient.invoke = observed_invoke
    Testbed.run = observed_run
    return OBSERVER


# ----------------------------------------------------------------------
# Tracing (``--trace 1`` only)
# ----------------------------------------------------------------------

class Tracer:
    """Span stack and per-bucket self time / call counts."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = dict.fromkeys(_BUCKETS, 0)
        self.calls: Dict[str, int] = dict.fromkeys(_BUCKETS, 0)
        self.counts: Dict[str, int] = {
            "gcs.views_installed": 0, "replication.checkpoints": 0,
            "replication.dedup_entries_shipped": 0, "faults.injected": 0,
            "check.lin_configs": 0}
        self.layer = "bench"
        self.start = 0
        self.child = 0
        self.stack: List[Tuple[str, int, int]] = []

    def begin(self) -> None:
        """Start of the timed region: forget everything billed so far.

        May be called from inside open spans (``explore`` opens the
        region from its progress callback); their time before this
        instant is dropped too."""
        for bucket in self.self_ns:
            self.self_ns[bucket] = self.calls[bucket] = 0
        for key in self.counts:
            self.counts[key] = 0
        now = perf_counter_ns()
        self.stack = [(layer, now, 0) for layer, _, _ in self.stack]
        self.start = now
        self.child = 0

    def end(self) -> int:
        """Close the root span; returns the traced wall time in ns."""
        if self.stack or self.layer != "bench":
            raise RuntimeError("unbalanced spans at end of traced run")
        wall = perf_counter_ns() - self.start
        self.self_ns["bench"] += wall - self.child
        self.calls["bench"] += 1
        return wall


#: The active tracer (a module global for the same reason as OBSERVER).
TRACER: Optional[Tracer] = None


def _span(layer: str, fn: Callable, args: tuple,
          kwargs: Optional[dict] = None) -> Any:
    """Call ``fn`` inside a span of ``layer``; calls that stay inside
    the current layer open no span."""
    t = TRACER
    if t is None or layer == t.layer:
        return fn(*args, **kwargs) if kwargs else fn(*args)
    t.stack.append((t.layer, t.start, t.child))
    t.layer = layer
    t.child = 0
    t.start = perf_counter_ns()
    try:
        return fn(*args, **kwargs) if kwargs else fn(*args)
    finally:
        # t.start, not a local: Tracer.begin may move it forward.
        duration = perf_counter_ns() - t.start
        t.self_ns[layer] += duration - t.child
        t.calls[layer] += 1
        t.layer, t.start, t.child = t.stack.pop()
        t.child += duration


class _Billed:
    """A callback billed to the layer that owns it.  Slotted, and
    free of references to the tracer, so snapshot forks copy it like
    any other callback."""

    __slots__ = ("fn", "layer")

    def __init__(self, fn: Callable, layer: str):
        self.fn = fn
        self.layer = layer

    def __call__(self, *args: Any) -> Any:
        return _span(self.layer, self.fn, args)


_CLASS_LAYER: Dict[type, str] = {}


def owner_layer(callback: Any) -> str:
    """The layer a callable belongs to: the class of a bound method's
    object, the defining module of a function."""
    kind = type(callback)
    if kind is _Billed:
        return callback.layer
    if kind is types.MethodType:
        owner = type(callback.__self__)
        layer = _CLASS_LAYER.get(owner)
        if layer is None:
            layer = _CLASS_LAYER[owner] = layer_of_module(owner.__module__)
        return layer
    if kind is types.FunctionType:
        return layer_of_module(callback.__module__)
    if kind is functools.partial:
        return owner_layer(callback.func)
    return layer_of_module(kind.__module__)


def _bill(callback: Any) -> Any:
    if type(callback) is _Billed or not callable(callback):
        return callback
    return _Billed(callback, owner_layer(callback))


def _wrap(owner: Any, name: str, layer: str,
          bill: Tuple[Tuple[str, int], ...] = (),
          after: Optional[Callable[[tuple, dict, Any], None]] = None
          ) -> None:
    """Replace ``owner.name`` (a method, class/static method or
    module function) by a span of ``layer``.  Arguments named in
    ``bill`` (``(keyword, position)`` pairs) are callbacks, billed to
    their own layer when called; ``after`` sees each call's arguments
    and result (for counts)."""
    raw = (owner.__dict__.get(name) if isinstance(owner, type)
           else getattr(owner, name, None))
    if raw is None:
        return
    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
        else None
    fn = raw.__func__ if kind is not None else raw

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        for keyword, position in bill:
            if keyword in kwargs:
                kwargs[keyword] = _bill(kwargs[keyword])
            elif position < len(args):
                args = (args[:position] + (_bill(args[position]),)
                        + args[position + 1:])
        result = _span(layer, fn, args, kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(owner, name, kind(wrapper) if kind is not None else wrapper)


def _count(key: str, amount: Callable[[tuple, dict, Any], int]
           ) -> Callable[[tuple, dict, Any], None]:
    def after(args: tuple, kwargs: dict, result: Any) -> None:
        TRACER.counts[key] += amount(args, kwargs, result)
    return after


def _wrap_public(owner: type, layer: str) -> None:
    """Span every public method defined on ``owner`` itself."""
    for name, value in list(vars(owner).items()):
        if not name.startswith("_") and isinstance(
                value, (types.FunctionType, classmethod, staticmethod)):
            _wrap(owner, name, layer)


def _wrap_schedule(simulator: type) -> None:
    """Bill every kernel-dispatched callback to the layer that owns it."""
    for name in ("schedule", "schedule_at", "schedule_fast",
                 "schedule_at_fast"):
        original = simulator.__dict__[name]

        def wrapper(self, when, callback, *args, _original=original):
            return _original(self, when, _bill(callback), *args)

        functools.update_wrapper(wrapper, original)
        setattr(simulator, name, wrapper)


def _one(*_args: Any) -> int:
    return 1


def install_tracer() -> Tracer:
    """Patch the span points of every layer; returns the tracer."""
    global TRACER

    def mod(name: str) -> Any:
        try:
            return importlib.import_module(name)
        except ImportError:       # a layer that no longer exists
            return None

    sim_kernel = mod("repro.sim.kernel")
    sim_host = mod("repro.sim.host")
    sim_actor = mod("repro.sim.actor")
    snapshot = mod("repro.sim.snapshot")
    net = mod("repro.net.network")
    daemon = mod("repro.gcs.daemon")
    gcs_client = mod("repro.gcs.client")
    orb_client = mod("repro.orb.client")
    orb_server = mod("repro.orb.server")
    orb_transport = mod("repro.orb.transport")
    servant = mod("repro.orb.servant")
    interpose = mod("repro.interpose.interceptor")
    rep_server = mod("repro.replication.server")
    rep_client = mod("repro.replication.client")
    rep_messages = mod("repro.replication.messages")
    workload = mod("repro.workload.clients")
    journal = mod("repro.journal.events")
    journal_io = mod("repro.journal.io")
    spans = mod("repro.telemetry.spans")
    metrics = mod("repro.telemetry.metrics")
    analysis = mod("repro.telemetry.analysis")
    cluster = mod("repro.cluster")
    router = mod("repro.cluster.router")
    slo = mod("repro.slo")
    explorer = mod("repro.check.explorer")
    check = mod("repro.check")
    runner = mod("repro.campaign.runner")
    injector = mod("repro.faults.injector")
    testbed = mod("repro.experiments.testbed")

    # Kernel: the dispatch loop is the root of all simulated work.
    _wrap_schedule(sim_kernel.Simulator)
    _wrap(sim_kernel.Simulator, "run", "sim")
    _wrap(sim_host.Host, "bind", "sim", bill=(("handler", 2),))
    _wrap(sim_actor.Actor, "set_timer", "sim", bill=(("callback", 3),))
    _wrap(sim_actor.Actor, "set_periodic_timer", "sim",
          bill=(("callback", 3),))
    if snapshot is not None:
        _wrap(snapshot.SimSnapshot, "capture", "snapshot")
        _wrap(snapshot.SimSnapshot, "fork", "snapshot")

    _wrap(net.Network, "transmit", "net")

    for name in ("client_multicast", "client_send_direct", "client_join",
                 "client_leave", "client_watch"):
        _wrap(daemon.GcsDaemon, name, "gcs")
    for name in ("multicast", "send_direct", "deliver_message",
                 "deliver_direct"):
        _wrap(gcs_client.GcsClient, name, "gcs")
    _wrap(gcs_client.GcsClient, "deliver_view", "gcs",
          after=_count("gcs.views_installed", _one))

    _wrap(orb_client.OrbClient, "invoke", "orb",
          bill=(("on_reply", 5),))
    for cls, layer in ((orb_transport.TcpClientTransport, "orb"),
                       (interpose.InterceptedClientTransport, "interpose"),
                       (rep_client.ClientReplicator, "replication"),
                       (getattr(router, "ShardRouter", None), "cluster")):
        if cls is not None:
            _wrap(cls, "send_request", layer, bill=(("on_reply", 2),))
    for cls, layer in ((orb_transport.TcpServerTransport, "orb"),
                       (interpose.InterceptedServerTransport, "interpose"),
                       (rep_server.ServerReplicator, "replication")):
        _wrap(cls, "start", layer, bill=(("on_request", 1),))
    for cls in vars(servant).values():
        if isinstance(cls, type) and issubclass(cls, servant.Servant):
            for name in ("dispatch", "get_state", "set_state"):
                _wrap(cls, name, "orb")
    _wrap(orb_server.OrbServer, "capture_state", "orb")
    _wrap(orb_server.OrbServer, "restore_state", "orb")

    # Group listeners: how GCS deliveries enter the layers above it.
    for module in (rep_server, rep_client, router, mod("repro.cluster.admin"),
                   mod("repro.cluster.coordinator"),
                   mod("repro.adaptation.manager")):
        if module is None:
            continue
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for name in ("on_message", "on_view"):
                    _wrap(cls, name, layer_of_module(module.__name__))
    _wrap(rep_server.ServerReplicator, "request_switch", "replication")
    _wrap(rep_server.ServerReplicator, "completed_seen", DEDUP,
          after=_count("replication.dedup_entries_shipped",
                       lambda _a, _k, result: len(result)))
    _wrap(rep_server.ServerReplicator, "absorb_seen", DEDUP)
    _wrap(rep_messages.Checkpoint, "__init__", "replication",
          after=_count("replication.checkpoints", _one))

    for cls in (workload.ClosedLoopClient, workload.OpenLoopClient,
                workload.ThinkTimeClient):
        _wrap(cls, "start", "workload")

    _wrap(journal.Journal, "record", "journal")
    for name in ("journal_digest", "write_jsonl", "events_to_jsonl"):
        _wrap(journal_io, name, "journal")
    for cls in (spans.Telemetry, *(c for c in vars(metrics).values()
                                   if isinstance(c, type)
                                   and c.__module__ == metrics.__name__)):
        _wrap_public(cls, "telemetry")
    _wrap(analysis, "telemetry_summary", "telemetry")

    if cluster is not None:
        _wrap(cluster, "run_cluster_trial", "cluster")
    if slo is not None:
        for name in ("evaluate_slos", "match_fault_alerts"):
            _wrap(slo, name, "slo")

    def lin_configs(_args: tuple, _kwargs: dict, result: Any) -> int:
        return int(getattr(result, "configurations_explored", 0))

    _wrap(check, "explore", "check")
    _wrap(explorer, "verify_outcome", "check")
    _wrap(explorer, "check_linearizability", "check",
          after=_count("check.lin_configs", lin_configs))
    _wrap(explorer, "check_invariants", "check")
    for name in ("check_linearizability", "check_invariants"):
        _wrap(check, name, "check",
              after=(_count("check.lin_configs", lin_configs)
                     if name == "check_linearizability" else None))

    _wrap(mod("repro.campaign"), "run_campaign", "campaign")
    _wrap(runner, "execute_trial", "campaign")
    for name, value in list(vars(injector.FaultInjector).items()):
        if not name.startswith("_") and callable(value):
            _wrap(injector.FaultInjector, name, "faults")
    _wrap(injector.FaultInjector, "_record", "faults",
          after=_count("faults.injected", _one))

    for name in ("__init__", "spawn", "connect"):
        _wrap(testbed.Testbed, name, "experiments")
    _wrap(testbed.Testbed, "run", "experiments")

    TRACER = Tracer()
    return TRACER

