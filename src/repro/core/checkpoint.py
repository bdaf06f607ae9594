"""Full-state checkpoint/restore for SMA machines and clusters.

This generalizes the ``stall_snapshot``/``_replay_fast`` replay
contract — which captures only the counters a fully-idle cycle increments
— to the *entire* mutable state of a machine: processor register files
and PCs, queue contents (including reserved-but-unfilled slots), live
stream descriptors, the banked memory's bank timers and in-flight
completion heap, the functional memory image, and the optional metrics
layer's buckets and samplers.

Snapshots are **JSON-clean** dictionaries so they can be written to disk
(``repro checkpoint save``) and diffed; :func:`digest` hashes the
canonical JSON form, giving a deterministic ``state_digest`` that two
runs can compare for bit-identical state.

Design constraints honored here:

* **In-place restore.**  Several components cache references into each
  other's containers for the fast step paths
  (``SMAMachine._load_slots``, ``QueueFile._sample_pairs``,
  ``AccessProcessor._bank_free``, metric-registry getters).  Restore
  therefore mutates every container in place (``deque.clear``/
  ``extend``, ``list[:] = ``, ``dict.clear``/``update``) and never
  rebinds an attribute that anything else may hold.
* **Completions are symbolic.**  Each entry of the banked memory's heap
  names the queue and the slot token its load fills, and a slot cannot
  be serialized by identity, so each entry is encoded as ``(queue
  locator, slot position)`` and re-materialized against the restored
  queue contents.
* **Fingerprinted.**  A snapshot embeds a hash of the programs and
  configuration it was taken from; restoring onto a machine built from
  anything else raises :class:`repro.errors.CheckpointError` instead of
  silently corrupting state.

Snapshots may only be taken between runs (or between manual
``step_cycle`` calls) — never from inside a running scheduler loop,
where the queues may be in lazy-sampling mode.
"""

from __future__ import annotations

import hashlib
import heapq
import json

import numpy as np

from ..errors import CheckpointError
from .descriptors import StreamDescriptor, StreamKind

FORMAT_VERSION = 1


# -- canonical form / digest ------------------------------------------------

def canonical_json(snapshot: dict) -> str:
    """Canonical serialization: sorted keys, no whitespace."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def digest(snapshot: dict) -> str:
    """sha256 over the canonical JSON form of a snapshot."""
    return hashlib.sha256(canonical_json(snapshot).encode()).hexdigest()


def _program_text(program) -> str:
    return "\n".join(repr(instr) for instr in program)


def machine_fingerprint(machine) -> str:
    """Hash of everything a snapshot is *relative to*: both programs and
    the full configuration.  Stored in the snapshot and re-checked on
    restore."""
    h = hashlib.sha256()
    h.update(_program_text(machine.ap.program).encode())
    h.update(b"\0")
    h.update(_program_text(machine.ep.program).encode())
    h.update(b"\0")
    h.update(repr(machine.config).encode())
    return h.hexdigest()


def cluster_fingerprint(cluster) -> str:
    h = hashlib.sha256()
    for node in cluster.nodes:
        h.update(machine_fingerprint(node).encode())
        h.update(b"\0")
    return h.hexdigest()


# -- component encoders -----------------------------------------------------

#: scalar stat fields captured per processor-stats type (``stall_cycles``
#: is handled structurally).  Explicit lists, keyed by the stats class
#: name: a field rename or a new counter must be registered here, and a
#: mismatch raises :class:`CheckpointError` instead of silently restoring
#: stale/zero counts (the old code probed ``lod_events`` via ``hasattr``,
#: which a rename would have turned into a silent drop).
_PROCESSOR_STAT_FIELDS = {
    "APStats": ("instructions", "lod_events"),
    "EPStats": ("instructions",),
}


def _stat_fields(stats) -> tuple[str, ...]:
    name = type(stats).__name__
    try:
        return _PROCESSOR_STAT_FIELDS[name]
    except KeyError:
        raise CheckpointError(
            f"unknown processor stats type {name!r}; register its fields "
            "in checkpoint._PROCESSOR_STAT_FIELDS"
        ) from None


def _processor_state(proc) -> dict:
    stats = proc.stats
    data = {
        "registers": list(proc.registers),
        "pc": proc.pc,
        "halted": proc.halted,
        "stalled_on": proc._stalled_on,
        "stall_cycles": dict(stats.stall_cycles),
    }
    for name in _stat_fields(stats):
        try:
            data[name] = getattr(stats, name)
        except AttributeError:
            raise CheckpointError(
                f"{type(stats).__name__} lost registered stat field "
                f"{name!r}; update checkpoint._PROCESSOR_STAT_FIELDS"
            ) from None
    return data


def _restore_processor(proc, data: dict) -> None:
    proc.registers[:] = data["registers"]
    proc.pc = data["pc"]
    proc.halted = data["halted"]
    proc._stalled_on = data["stalled_on"]
    stats = proc.stats
    stats.stall_cycles.clear()
    stats.stall_cycles.update(data["stall_cycles"])
    for name in _stat_fields(stats):
        if name not in data:
            raise CheckpointError(
                f"snapshot is missing processor stat field {name!r} for "
                f"{type(stats).__name__}"
            )
        if not hasattr(stats, name):
            raise CheckpointError(
                f"{type(stats).__name__} lost registered stat field "
                f"{name!r}; update checkpoint._PROCESSOR_STAT_FIELDS"
            )
        setattr(stats, name, data[name])


def _engine_state(engine, qindex: dict) -> dict:
    def _qref(queue):
        return None if queue is None else qindex[id(queue)]

    stats = engine.stats
    return {
        "rr": engine._rr,
        "streams": [
            {
                "kind": desc.kind.value,
                "base": desc.base,
                "count": desc.count,
                "stride": desc.stride,
                "issued": desc.issued,
                "target": _qref(desc.target),
                "data_queue": _qref(desc.data_queue),
                "index_queue": _qref(desc.index_queue),
            }
            for desc in engine._streams
        ],
        "stats": {
            "streams_started": stats.streams_started,
            "requests_issued": stats.requests_issued,
            "blocked_cycles": stats.blocked_cycles,
            "max_live_streams": stats.max_live_streams,
        },
    }


def _restore_engine(engine, data: dict, qlist) -> None:
    def _queue(ref):
        return None if ref is None else qlist[ref]

    streams = []
    for entry in data["streams"]:
        desc = StreamDescriptor(
            kind=StreamKind(entry["kind"]),
            base=entry["base"],
            count=entry["count"],
            stride=entry["stride"],
            target=_queue(entry["target"]),
            data_queue=_queue(entry["data_queue"]),
            index_queue=_queue(entry["index_queue"]),
        )
        desc.issued = entry["issued"]
        streams.append(desc)
    engine._streams[:] = streams
    engine._rr = data["rr"]
    stats, src = engine.stats, data["stats"]
    stats.streams_started = src["streams_started"]
    stats.requests_issued = src["requests_issued"]
    stats.blocked_cycles = src["blocked_cycles"]
    stats.max_live_streams = src["max_live_streams"]


def _store_unit_state(store_unit) -> dict:
    stats = store_unit.stats
    return {
        "stores_issued": stats.stores_issued,
        "data_wait_cycles": stats.data_wait_cycles,
        "memory_wait_cycles": stats.memory_wait_cycles,
    }


def _restore_store_unit(store_unit, data: dict) -> None:
    stats = store_unit.stats
    stats.stores_issued = data["stores_issued"]
    stats.data_wait_cycles = data["data_wait_cycles"]
    stats.memory_wait_cycles = data["memory_wait_cycles"]


def _memory_state(memory) -> dict:
    """Sparse image of the functional store (it is mostly zeros)."""
    nonzero = np.flatnonzero(memory._words)
    return {
        "size": memory.size,
        "nonzero": [
            [int(a), float(memory._words[a])] for a in nonzero
        ],
    }


def _restore_memory(memory, data: dict) -> None:
    if memory.size != data["size"]:
        raise CheckpointError(
            f"memory size mismatch: snapshot has {data['size']}, "
            f"machine has {memory.size}"
        )
    memory._words[:] = 0.0
    for addr, value in data["nonzero"]:
        memory._words[addr] = value


def _banked_state(banked, qlocate) -> dict:
    """Encode the banked memory's timing state.  ``qlocate(queue)``
    returns the JSON-clean locator of a queue (an index for a machine,
    a ``[node, index]`` pair for a cluster)."""
    completions = []
    for time, seq, queue, slot, result in banked._completions:
        for pos, candidate in enumerate(queue._slots):
            if candidate is slot:
                break
        else:
            raise CheckpointError(
                "in-flight completion targets a slot no longer in its queue"
            )
        completions.append([
            time, seq, qlocate(queue), pos,
            None if result is None else float(result),
        ])
    stats = banked.stats
    data = {
        "bank_free_at": list(banked._bank_free_at),
        "seq": banked._seq,
        "issues_at": list(banked._issues_at),
        "completions": completions,
        "stats": {
            "reads": stats.reads,
            "writes": stats.writes,
            "bank_conflicts": stats.bank_conflicts,
            "port_rejects": stats.port_rejects,
            "busy_bank_cycles": stats.busy_bank_cycles,
            "completions": stats.completions,
            "per_bank_accesses": list(stats.per_bank_accesses),
        },
    }
    if banked.fault_injection:
        data["faults"] = {
            "injected_rejects": banked.injected_rejects,
            "dropped_completions": banked.dropped_completions,
            "drop_budget": banked._drop_budget,
        }
    return data


def _restore_banked(banked, data: dict, qresolve) -> None:
    """``qresolve(locator)`` is the inverse of ``qlocate`` above; queue
    contents must already have been restored (slot positions refer to
    the restored deques)."""
    banked._bank_free_at[:] = data["bank_free_at"]
    banked._seq = data["seq"]
    banked._issues_at = tuple(data["issues_at"])
    entries = []
    for time, seq, locator, pos, result in data["completions"]:
        queue = qresolve(locator)
        try:
            slot = queue._slots[pos]
        except IndexError:
            raise CheckpointError(
                f"completion slot {pos} missing from queue {queue.name}"
            ) from None
        if slot.filled:
            raise CheckpointError(
                f"completion targets an already-filled slot in {queue.name}"
            )
        entries.append((time, seq, queue, slot, result))
    banked._completions[:] = entries
    heapq.heapify(banked._completions)
    stats, src = banked.stats, data["stats"]
    stats.reads = src["reads"]
    stats.writes = src["writes"]
    stats.bank_conflicts = src["bank_conflicts"]
    stats.port_rejects = src["port_rejects"]
    stats.busy_bank_cycles = src["busy_bank_cycles"]
    stats.completions = src["completions"]
    stats.per_bank_accesses[:] = src["per_bank_accesses"]
    faults = data.get("faults")
    if faults is not None:
        if not banked.fault_injection:
            raise CheckpointError(
                "snapshot was taken with fault injection enabled but the "
                "target machine's memory is fault-free"
            )
        banked.injected_rejects = faults["injected_rejects"]
        banked.dropped_completions = faults["dropped_completions"]
        banked._drop_budget = faults["drop_budget"]
    elif banked.fault_injection:
        raise CheckpointError(
            "snapshot was taken without fault injection but the target "
            "machine injects faults"
        )


def _metrics_state(metrics) -> dict:
    return {
        "buckets": dict(metrics.buckets),
        "last_bucket": metrics._last_bucket,
        "prev": [
            metrics._prev_ap,
            metrics._prev_ep,
            metrics._prev_store,
            metrics._prev_blocked,
            metrics._prev_full,
        ],
        "samplers": [
            {
                "name": s.name,
                "samples": s.samples,
                "total": s.total,
                "maximum": s.maximum,
            }
            for s in metrics.registry.samplers
        ],
    }


def _restore_metrics(metrics, data: dict) -> None:
    metrics.buckets.clear()
    metrics.buckets.update(data["buckets"])
    metrics._last_bucket = data["last_bucket"]
    (
        metrics._prev_ap,
        metrics._prev_ep,
        metrics._prev_store,
        metrics._prev_blocked,
        metrics._prev_full,
    ) = data["prev"]
    by_name = {s.name: s for s in metrics.registry.samplers}
    for entry in data["samplers"]:
        sampler = by_name.get(entry["name"])
        if sampler is None:
            raise CheckpointError(
                f"snapshot has sampler {entry['name']!r} the target "
                "machine does not"
            )
        sampler.samples = entry["samples"]
        sampler.total = entry["total"]
        sampler.maximum = entry["maximum"]


# -- machine-level snapshot / restore ---------------------------------------

def _require_settled(machine) -> None:
    for queue in machine._queue_list:
        if queue._lazy:
            raise CheckpointError(
                "cannot snapshot while queues are in lazy-sampling mode "
                "(i.e. from inside a running scheduler loop)"
            )


def snapshot_machine(machine, include_memory: bool = True) -> dict:
    """JSON-clean image of a machine's full mutable state.

    ``include_memory=False`` is the cluster-node form: the shared
    functional store and banked timing state are captured once at cluster
    level instead.
    """
    _require_settled(machine)
    qlist = machine._queue_list
    qindex = {id(q): i for i, q in enumerate(qlist)}
    data = {
        "version": FORMAT_VERSION,
        "kind": "machine",
        "fingerprint": machine_fingerprint(machine),
        "cycle": machine.cycle,
        "occupancy_sum": machine._occupancy_sum,
        "occupancy_max": machine._occupancy_max,
        "ap": _processor_state(machine.ap),
        "ep": _processor_state(machine.ep),
        "engine": _engine_state(machine.engine, qindex),
        "store_unit": _store_unit_state(machine.store_unit),
        "queues": [q.snapshot_state() for q in qlist],
        "metrics": (
            None if machine._metrics is None
            else _metrics_state(machine._metrics)
        ),
    }
    if machine._spec is not None:
        if not machine._spec.idle():
            raise CheckpointError(
                "cannot snapshot mid-speculation (open frames); step the "
                "machine until every prediction has resolved first"
            )
        data["speculation"] = machine._spec.snapshot_state()
    if include_memory:
        data["memory"] = _memory_state(machine.memory)
        data["banked"] = _banked_state(
            machine.banked, lambda q: qindex[id(q)]
        )
    return data


def restore_machine(machine, data: dict, include_memory: bool = True) -> None:
    if data.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported snapshot version {data.get('version')!r}"
        )
    if data.get("kind") != "machine":
        raise CheckpointError(
            f"expected a machine snapshot, got {data.get('kind')!r}"
        )
    if data["fingerprint"] != machine_fingerprint(machine):
        raise CheckpointError(
            "snapshot fingerprint does not match this machine's programs "
            "and configuration"
        )
    qlist = machine._queue_list
    if len(data["queues"]) != len(qlist):
        raise CheckpointError("queue complement mismatch")
    if (data["metrics"] is None) != (machine._metrics is None):
        raise CheckpointError(
            "metrics attachment differs between snapshot and machine "
            "(attach_metrics() before restoring a metrics snapshot)"
        )
    for queue, qdata in zip(qlist, data["queues"]):
        queue.restore_state(qdata)
    _restore_processor(machine.ap, data["ap"])
    _restore_processor(machine.ep, data["ep"])
    _restore_engine(machine.engine, data["engine"], qlist)
    _restore_store_unit(machine.store_unit, data["store_unit"])
    if data["metrics"] is not None:
        _restore_metrics(machine._metrics, data["metrics"])
    spec_data = data.get("speculation")
    if spec_data is not None:
        # the engine may not exist yet (snapshot restored before the
        # machine's first cycle); build it around the serialized oracle
        # instead of re-running the reference pre-run
        if not machine._spec_ready or machine._spec is None:
            machine._ensure_speculation(oracle=spec_data["oracle"])
        if machine._spec is None:
            raise CheckpointError(
                "snapshot carries speculation state but this machine's "
                "configuration disables speculation"
            )
        machine._spec.restore_state(spec_data)
    else:
        # the snapshot predates the engine (taken before the machine's
        # first cycle); match that state exactly — the engine will be
        # rebuilt, oracle and all, on the next step
        machine._spec = None
        machine.ap._spec = None
        machine._spec_ready = False
    if include_memory:
        _restore_memory(machine.memory, data["memory"])
        _restore_banked(machine.banked, data["banked"], lambda i: qlist[i])
    machine.cycle = data["cycle"]
    machine._occupancy_sum = data["occupancy_sum"]
    machine._occupancy_max = data["occupancy_max"]


# -- cluster-level snapshot / restore ---------------------------------------

def snapshot_cluster(cluster) -> dict:
    locate = {}
    for n, node in enumerate(cluster.nodes):
        for i, queue in enumerate(node._queue_list):
            locate[id(queue)] = [n, i]
    return {
        "version": FORMAT_VERSION,
        "kind": "cluster",
        "fingerprint": cluster_fingerprint(cluster),
        "cycle": cluster.cycle,
        "finish_cycles": list(cluster.finish_cycles),
        "nodes": [
            snapshot_machine(node, include_memory=False)
            for node in cluster.nodes
        ],
        "memory": _memory_state(cluster.memory),
        "banked": _banked_state(cluster.banked, lambda q: locate[id(q)]),
    }


def restore_cluster(cluster, data: dict) -> None:
    if data.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported snapshot version {data.get('version')!r}"
        )
    if data.get("kind") != "cluster":
        raise CheckpointError(
            f"expected a cluster snapshot, got {data.get('kind')!r}"
        )
    if data["fingerprint"] != cluster_fingerprint(cluster):
        raise CheckpointError(
            "snapshot fingerprint does not match this cluster's programs "
            "and configuration"
        )
    if len(data["nodes"]) != len(cluster.nodes):
        raise CheckpointError("node count mismatch")
    for node, node_data in zip(cluster.nodes, data["nodes"]):
        restore_machine(node, node_data, include_memory=False)
    _restore_memory(cluster.memory, data["memory"])
    _restore_banked(
        cluster.banked,
        data["banked"],
        lambda loc: cluster.nodes[loc[0]]._queue_list[loc[1]],
    )
    cluster.cycle = data["cycle"]
    cluster.finish_cycles[:] = data["finish_cycles"]
