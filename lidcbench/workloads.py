"""The four benchmark workloads, driven only through the library's public API.

Each workload splits into four steps so the harness can time them apart:

* ``inputs(seed, scale, batch)`` generates the request trace with
  :mod:`repro.workload` (``build_trace`` over its model classes) plus any
  payloads, and pins it with ``trace_hash``;
* ``build(inputs)`` builds the node or testbed the program runs on and
  publishes datasets;
* ``drive(world, on_op)`` replays the trace on the simulation clock and
  records what every op returned (the timed part);
* ``check(world, batch)`` verifies every output and the no-leak
  invariants, returning one message per violation.

``counters(world, batch)`` then reads the per-layer counts the program
already exposes through its ``stats()`` views and plain counters.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core import ComputeRequest, LIDCTestbed
from repro.core.spec import JobState
from repro.exceptions import NDNError
from repro.ndn.client import Consumer
from repro.ndn.name import Name
from repro.ndn.packet import Data
from repro.ndn.shard import ShardedForwarder
from repro.sim.engine import Environment
from repro.sim.rng import SeededRNG
from repro.sim.topology import Link
from repro.workload import (
    PoissonArrivals,
    ScanPopularity,
    WorkloadSpec,
    ZipfPopularity,
    build_trace,
    make_catalog,
    trace_hash,
)

__all__ = ["WORKLOADS", "Batch", "Workload"]

#: Per-op callback the traced run uses to tag spans with the op's id.
OpHook = Optional[Callable[[int], None]]

_now_ns = time.perf_counter_ns


@dataclass
class Batch:
    """What one timed replay produced; filled by ``drive``, read by ``check``."""

    ops: int
    failed: int = 0
    #: Per-op wall sojourn in microseconds, in op order (None where unknown).
    wall_us: list = field(default_factory=list)
    #: Per-op submit-to-finish time in simulated seconds.
    sim_s: list = field(default_factory=list)
    #: Workload-specific per-op results for ``check``.
    results: list = field(default_factory=list)
    wire_decodes: int = 0
    span_scans: int = 0
    #: Source file that asked for each wire decode -> how many it asked for.
    decode_sites: dict = field(default_factory=dict)


#: The consumer endpoints: the only code that may decode a packet from the wire.
_ENDPOINTS = (os.path.join("repro", "ndn", "client.py"), os.path.join("repro", "core", "client.py"))


def _endpoint_decodes(batch: Batch) -> tuple:
    """(decodes at a consumer endpoint, {other source file: decodes})."""
    endpoint, transit = 0, {}
    for path, count in batch.decode_sites.items():
        if path.endswith(_ENDPOINTS):
            endpoint += count
        else:
            transit[path] = count
    return endpoint, transit


class Workload:
    """Base: a fixed-size batch generated from a seed."""

    name = ""
    why = ""
    #: Ops per batch at scale 1.0.
    size = 0
    #: What one op is.
    op_noun = "request"
    #: False: every batch replays the seed's one trace.  True: batch ``i``
    #: replays its own trace, drawn from the seed's ``batch:i`` stream.
    trace_per_batch = False

    def ops_at(self, scale: float) -> int:
        return max(4, int(self.size * scale))

    def rng(self, seed: int, batch: int) -> SeededRNG:
        rng = SeededRNG(seed)
        return rng.spawn(f"batch:{batch}") if self.trace_per_batch else rng

    def inputs(self, seed: int, scale: float, batch: int = 0) -> dict:
        raise NotImplementedError

    def build(self, inputs: dict):
        raise NotImplementedError

    def drive(self, world, on_op: OpHook = None) -> Batch:
        raise NotImplementedError

    def check(self, world, batch: Batch) -> list:
        raise NotImplementedError

    def counters(self, world, batch: Batch) -> dict:
        raise NotImplementedError

    def op_of_process(self, process_name: str) -> Optional[int]:
        """The op id a resumed simulation process belongs to, if any."""
        return None

    def config(self, scale: float) -> dict:
        raise NotImplementedError


# --------------------------------------------------------------------------
# Data plane: Consumer -> link face -> ShardedForwarder -> PIT/CS -> producer
# --------------------------------------------------------------------------

_TENANTS = [f"/w{i:03d}" for i in range(16)]
#: 64-byte content per tenant producer; a cross-tenant serve shows as a
#: content mismatch, a cross-name serve as a name mismatch.
_TENANT_PAYLOAD = {
    tenant: hashlib.sha256(tenant.encode()).digest() * 2 for tenant in _TENANTS
}


@dataclass
class _DataWorld:
    env: Environment
    node: ShardedForwarder
    consumer: Consumer
    trace: list


class _DataPlane(Workload):
    """Shared body of ``dp-scan`` and ``dp-zipf``.

    Requests arrive Poisson at one per simulated second.  The consumer sits
    on a default :class:`Link` (1 ms), so an exchange takes ~2 ms of
    simulated time and two exchanges overlap with probability ~0.2%: the
    wall time between ``express_interest`` and the completion callback is
    the cost of that one request.
    """

    #: Twice the node's CS (1024), so a scan batch evicts as well as inserts.
    size = 2000
    rate_per_s = 1.0

    def popularity(self):
        raise NotImplementedError

    def spec(self, scale: float) -> WorkloadSpec:
        return WorkloadSpec(
            label=self.name,
            popularity=self.popularity(),
            arrivals=PoissonArrivals(self.rate_per_s, stream=f"arr:{self.name}"),
            requests=self.ops_at(scale),
        )

    def inputs(self, seed: int, scale: float, batch: int = 0) -> dict:
        trace = build_trace(self.spec(scale), self.rng(seed, batch))
        return {"trace": trace, "trace_hash": trace_hash(trace)}

    def build(self, inputs: dict) -> _DataWorld:
        env = Environment()
        node = ShardedForwarder(env, name=self.name, shards=2)
        for tenant in _TENANTS:
            payload = _TENANT_PAYLOAD[tenant]

            def handler(interest, _payload=payload):
                return Data(
                    name=interest.name, content=_payload, freshness_period=3600.0
                ).sign()

            node.attach_producer(tenant, handler)
        consumer = Consumer(env, node, name="bench-consumer", link=Link("consumer", self.name))
        return _DataWorld(env, node, consumer, inputs["trace"])

    def drive(self, world: _DataWorld, on_op: OpHook = None) -> Batch:
        env, consumer, trace = world.env, world.consumer, world.trace
        batch = Batch(ops=len(trace))
        batch.wall_us = [None] * len(trace)
        batch.sim_s = [None] * len(trace)
        batch.results = [None] * len(trace)

        def finish(event, seq, wall0, sim0):
            batch.wall_us[seq] = (_now_ns() - wall0) / 1000.0
            batch.sim_s[seq] = env.now - sim0
            batch.results[seq] = event.value if event.ok else None
            if not event.ok:
                batch.failed += 1

        def pump():
            for record in trace:
                delay = record.t - env.now
                if delay > 0.0:
                    yield env.timeout(delay)
                if on_op is not None:
                    on_op(record.seq)
                wall0 = _now_ns()
                completion = consumer.express_interest(record.name)
                completion.callbacks.append(
                    lambda event, _s=record.seq, _w=wall0, _t=env.now: finish(event, _s, _w, _t)
                )

        env.process(pump(), name=f"pump:{self.name}")
        env.run()
        return batch

    def check(self, world: _DataWorld, batch: Batch) -> list:
        errors = []
        satisfied = 0
        for record, data in zip(world.trace, batch.results):
            if data is None:
                errors.append(f"{record.name}: no Data")
                continue
            satisfied += 1
            if data.name != Name(record.name):
                errors.append(f"{record.name}: got Data named {data.name}")
            tenant = "/" + record.name.split("/")[1]
            if data.content != _TENANT_PAYLOAD[tenant]:
                errors.append(f"{record.name}: content differs from the producer's bytes")
            elif not data.verify():
                errors.append(f"{record.name}: signature does not verify")
        # The consumer's one endpoint decode per Data; transit decodes are 0.
        endpoint, transit = _endpoint_decodes(batch)
        if batch.wire_decodes != satisfied or endpoint != satisfied:
            errors.append(f"wire_decodes rose by {batch.wire_decodes}, {endpoint} of them at "
                          f"the consumer, for {satisfied} satisfied Interests")
        if transit:
            errors.append(f"wire decodes in transit: {transit}")
        if world.node.pit_entries():
            errors.append(f"{world.node.pit_entries()} PIT entries left")
        if world.consumer.pending_count():
            errors.append(f"{world.consumer.pending_count()} Interests still pending")
        return errors[:20]

    def counters(self, world: _DataWorld, batch: Batch) -> dict:
        node, ops = world.node, batch.ops
        hot = node.hot_cache.stats() if node.hot_cache is not None else {"hits": 0}
        shard_cs = [shard.cs for shard in node.shards]
        lookups = sum(cs.hits + cs.misses for cs in shard_cs)
        interests = [
            int(shard.metrics.counter("interests_received").value) for shard in node.shards
        ]
        frames = sum(
            sides["dispatcher"]["interests_out"] + sides["dispatcher"]["data_out"]
            + sides["dispatcher"]["nacks_out"] + sides["shard"]["interests_out"]
            + sides["shard"]["data_out"] + sides["shard"]["nacks_out"]
            for sides in node.boundary_stats().values()
        )
        consumer = world.consumer
        return {
            "shard.hot_hit_ratio": hot["hits"] / ops,
            "shard.frames_per_op": frames / ops,
            "shard.max_share": max(interests) / max(1, sum(interests)),
            "cs.hit_ratio": sum(cs.hits for cs in shard_cs) / max(1, lookups),
            "cs.insertions_per_op": sum(cs.insertions for cs in shard_cs) / ops,
            "cs.evictions_per_op": sum(cs.evictions for cs in shard_cs) / ops,
            "consumer.interests_per_op": consumer.interests_sent / ops,
            "consumer.nacks_per_op": consumer.nacks_received / ops,
            "consumer.timeouts_per_op": consumer.timeouts / ops,
            "tracer.records_per_op": len(node.tracer) / ops,
        }

    def config(self, scale: float) -> dict:
        return {
            "spec": self.spec(scale).describe(),
            "node": "ShardedForwarder(shards=2), library defaults",
            "producers": f"{len(_TENANTS)} tenants, 64-byte signed Data",
            "consumer_link": "Link defaults (latency 1 ms)",
        }


class DataScan(_DataPlane):
    name = "dp-scan"
    why = ("unique names: every request misses hot cache and CS, so codec, shard "
           "boundary, PIT/CS insert+evict and producer are all on the path")

    def popularity(self):
        return ScanPopularity(tenants=_TENANTS)


class DataZipf(_DataPlane):
    name = "dp-zipf"
    why = ("Zipf(1.2) over 1024 names: most requests are served by the dispatcher "
           "hot cache or a shard CS, the read-heavy counterpart of dp-scan")

    def popularity(self):
        return ZipfPopularity(
            alpha=1.2, catalog=make_catalog(1024, tenants=_TENANTS), stream=f"pop:{self.name}"
        )


# --------------------------------------------------------------------------
# Compute path: LIDCClient.submit -> gateway -> scheduler/kubelet -> data lake
# --------------------------------------------------------------------------

class _Overlay(Workload):
    """Shared by the two workloads that run on ``LIDCTestbed.multi_cluster(3)``."""

    def _clients(self, world) -> tuple:
        raise NotImplementedError

    def _forwarders(self, world) -> list:
        overlay = world.testbed.overlay
        nodes = list(overlay.routers.values())
        for cluster in overlay.clusters.values():
            nodes += [cluster.gateway_nfd, cluster.datalake_nfd]
        return nodes

    def _invariants(self, world, batch: Batch) -> list:
        """No leaked sessions, Interests or PIT entries; no transit decodes."""
        errors = []
        _endpoint, transit = _endpoint_decodes(batch)
        if transit:
            errors.append(f"wire decodes in transit: {transit}")
        for client in self._clients(world):
            if client.in_flight:
                errors.append(f"{client.name}: {client.in_flight} sessions in flight")
            if client.consumer.pending_count():
                errors.append(f"{client.name}: {client.consumer.pending_count()} "
                              "Interests still pending")
        for forwarder in self._forwarders(world):
            if len(forwarder.pit):
                errors.append(f"{forwarder.name}: {len(forwarder.pit)} PIT entries left")
        return errors

    def counters(self, world, batch: Batch) -> dict:
        """Counts read off the overlay's forwarders, gateways and clusters."""
        ops = batch.ops
        css = [forwarder.cs for forwarder in self._forwarders(world)]
        lookups = sum(cs.hits + cs.misses for cs in css)
        consumers = [client.consumer for client in self._clients(world)]
        gateway_interests = refusals = binds = 0
        for cluster in world.testbed.clusters.values():
            metrics = cluster.gateway.stats()["metrics"]
            gateway_interests += metrics.get("compute_interests", 0) + metrics.get(
                "status_interests", 0)
            refusals += metrics.get("compute_rejected_capacity", 0)
            binds += len(cluster.cluster.scheduler.decisions)
        return {
            "cs.hit_ratio": sum(cs.hits for cs in css) / max(1, lookups),
            "cs.insertions_per_op": sum(cs.insertions for cs in css) / ops,
            "cs.evictions_per_op": sum(cs.evictions for cs in css) / ops,
            "consumer.interests_per_op": sum(c.interests_sent for c in consumers) / ops,
            "consumer.nacks_per_op": sum(c.nacks_received for c in consumers) / ops,
            "consumer.timeouts_per_op": sum(c.timeouts for c in consumers) / ops,
            "tracer.records_per_op": len(world.testbed.tracer) / ops,
            "gateway.interests_per_job": gateway_interests / ops,
            "gateway.refusals": refusals,
            "scheduler.binds_per_job": binds / ops,
        }


#: Job kinds, cycled in a fixed order by a scan: one paper BLAST job (the
#: quickstart's Table I sample, hours of simulated time) opens each cycle,
#: then 149 SLEEP jobs with durations spread evenly over 60-600 s.  The
#: multiset of jobs in a batch is therefore fixed, so the simulated
#: turnaround measures the system, not the seed's draw of durations.
_SLEEP_S = [60 + round(k * 540 / 148) for k in range(149)]
_BLAST_SAMPLE = "SRR2931415"
_JOB_KINDS = ["/blast"] + [f"/sleep{d}" for d in _SLEEP_S]


@dataclass
class _ComputeWorld:
    testbed: LIDCTestbed
    sleep_client: object
    blast_client: object
    trace: list
    requests: list


class ComputeJobs(_Overlay):
    """150 jobs at 0.012/s simulated (Poisson) on ``multi_cluster(3)``.

    The rate keeps the three 8-CPU clusters below their joint capacity, so
    every job completes.  Refusals still happen: the edge router sends each
    job to the first cluster until that cluster answers Congestion, and then
    retries the next one.  That refusal-and-retry path runs 17-42 times per
    batch, as often as the seed's arrival pattern makes it, and is part of
    what this workload measures.

    Each batch draws its own trace (``trace_per_batch``): the gaps between a
    batch's completions all hang on one arrival pattern, so only many
    batches give a p99 with independent samples beyond it.
    """

    name = "compute-jobs"
    why = ("named compute jobs (SLEEP plus 1 in 150 paper BLAST) over 3 clusters "
           "with result fetch: gateway, cluster model, engine timers, tracer, polls")
    size = 150
    rate_per_s = 0.012
    op_noun = "job"
    trace_per_batch = True

    def spec(self, scale: float) -> WorkloadSpec:
        return WorkloadSpec(
            label=self.name,
            popularity=ScanPopularity(tenants=_JOB_KINDS, label="job"),
            arrivals=PoissonArrivals(self.rate_per_s, stream=f"arr:{self.name}"),
            requests=self.ops_at(scale),
        )

    def inputs(self, seed: int, scale: float, batch: int = 0) -> dict:
        trace = build_trace(self.spec(scale), self.rng(seed, batch))
        requests = []
        for record in trace:
            kind = record.name.split("/")[1]
            if kind == "blast":
                requests.append(ComputeRequest(
                    app="BLAST", cpu=2, memory_gb=4, dataset=_BLAST_SAMPLE, reference="HUMAN"
                ))
            else:
                requests.append(ComputeRequest(
                    app="SLEEP", cpu=1, memory_gb=1,
                    params={"duration": kind[len("sleep"):]},
                ))
        return {
            "trace": trace, "requests": requests, "trace_hash": trace_hash(trace),
            "seed": seed,
        }

    def build(self, inputs: dict) -> _ComputeWorld:
        testbed = LIDCTestbed.multi_cluster(3, seed=inputs["seed"])
        return _ComputeWorld(
            testbed=testbed,
            sleep_client=testbed.client(),
            blast_client=testbed.client(poll_interval_s=600.0),
            trace=inputs["trace"],
            requests=inputs["requests"],
        )

    def drive(self, world: _ComputeWorld, on_op: OpHook = None) -> Batch:
        """Submit every job at its arrival time and run until all are terminal.

        The per-op wall time recorded is the wall time from one job's
        completion to the next (from the batch's start, for the first).  A
        job's own sojourn would not do: sessions overlap across hours of
        simulated time, so it covers every job alive during its life and
        hangs on the arrival pattern.
        """
        env = world.testbed.env
        batch = Batch(ops=len(world.trace))
        handles = []
        completed_ns = []

        def pump():
            for record, request in zip(world.trace, world.requests):
                delay = record.t - env.now
                if delay > 0.0:
                    yield env.timeout(delay)
                client = world.blast_client if request.app == "BLAST" else world.sleep_client
                handle = client.submit(request, fetch_result=True)
                handle.done.callbacks.append(lambda event: completed_ns.append(_now_ns()))
                handles.append(handle)

        stamps = [_now_ns()]
        pumping = env.process(pump(), name=f"pump:{self.name}")
        env.run(until=pumping)
        env.run(until=env.all_of([handle.done for handle in handles]))
        stamps += completed_ns
        batch.wall_us = [(later - earlier) / 1000.0 for earlier, later in zip(stamps, stamps[1:])]
        for handle in handles:
            outcome = handle.outcome
            if not (outcome.succeeded and outcome.result_name is not None):
                batch.failed += 1
            batch.sim_s.append(outcome.end_to_end_s)
        batch.results = handles
        return batch

    def check(self, world: _ComputeWorld, batch: Batch) -> list:
        errors = []
        for handle in batch.results:
            outcome = handle.outcome
            if outcome.state != JobState.COMPLETED:
                errors.append(f"job {handle.handle_id} ({handle.request.app}) ended "
                              f"{outcome.state.value}: {outcome.error}")
            elif outcome.result_name is None:
                errors.append(f"job {handle.handle_id} completed without a result name")
        errors += self._invariants(world, batch)
        return errors[:20]

    def _clients(self, world: _ComputeWorld) -> tuple:
        return (world.sleep_client, world.blast_client)

    def counters(self, world: _ComputeWorld, batch: Batch) -> dict:
        counts = super().counters(world, batch)
        counts["lidc_client.polls_per_job"] = sum(
            handle.outcome.status_polls for handle in batch.results) / batch.ops
        return counts

    def op_of_process(self, process_name: str) -> Optional[int]:
        if process_name.startswith("job-session:"):
            return int(process_name[len("job-session:"):])
        return None

    def config(self, scale: float) -> dict:
        return {
            "spec": self.spec(scale).describe(),
            "testbed": "LIDCTestbed.multi_cluster(3), library defaults",
            "jobs": f"job 0 of each 150: BLAST cpu=2 mem=4 ref=HUMAN srr={_BLAST_SAMPLE}; "
                    "then 149 SLEEP cpu=1 mem=1, durations 60-600 s",
            "clients": "SLEEP: testbed.client(); BLAST: testbed.client(poll_interval_s=600)",
            "fetch_result": True,
        }


# --------------------------------------------------------------------------
# Data lake: LIDCClient.retrieve_dataset over the overlay, segmented
# --------------------------------------------------------------------------

#: Object sizes by popularity rank: the eight hottest datasets (61% of
#: Zipf(1.0) draws) are 64 KiB, so the median fetch is a 64 KiB edge-CS hit
#: for any seed; the colder ranks cycle through 16-512 KiB, half of them
#: 512 KiB, so full 512 KiB misses fill the slowest few percent of fetches
#: and the p99 does not straddle two size classes.
_LAKE_SIZES = (16, 512, 32, 512, 128, 512)
_LAKE_HOT_RANKS = 8
_LAKE_OBJECTS = 48


def _lake_payload(seed: int, index: int) -> bytes:
    kib = 64 if index < _LAKE_HOT_RANKS else _LAKE_SIZES[index % len(_LAKE_SIZES)]
    size = kib * 1024
    return hashlib.shake_256(f"lidcbench:{seed}:{index}".encode()).digest(size)


@dataclass
class _LakeWorld:
    testbed: LIDCTestbed
    client: object
    trace: list
    payloads: dict


class LakeFetch(_Overlay):
    """Zipf(1.0) ``retrieve_dataset`` calls over 48 real-byte datasets.

    Dataset ``k`` is published on cluster ``k mod 3``; the network, not the
    client, finds the cluster holding it.  Fetches arrive Poisson at 0.02/s
    simulated, so a fetch (up to 64 sequential segments over a 20 ms WAN
    link) rarely overlaps another and its wall sojourn is its own cost.
    """

    name = "lake-fetch"
    why = ("Zipf(1.0) dataset fetches of 16-512 KiB over the overlay: segmentation, "
           "data-lake serving, full 8 KiB segments and edge-CS repeats")
    size = 600
    rate_per_s = 0.02
    op_noun = "fetch"

    def spec(self, scale: float) -> WorkloadSpec:
        catalog = [f"/lake/obj{k:03d}" for k in range(_LAKE_OBJECTS)]
        return WorkloadSpec(
            label=self.name,
            popularity=ZipfPopularity(alpha=1.0, catalog=catalog, stream=f"pop:{self.name}"),
            arrivals=PoissonArrivals(self.rate_per_s, stream=f"arr:{self.name}"),
            requests=self.ops_at(scale),
        )

    def inputs(self, seed: int, scale: float, batch: int = 0) -> dict:
        trace = build_trace(self.spec(scale), self.rng(seed, batch))
        payloads = {f"obj{k:03d}": _lake_payload(seed, k) for k in range(_LAKE_OBJECTS)}
        return {"trace": trace, "payloads": payloads, "trace_hash": trace_hash(trace),
                "seed": seed}

    def build(self, inputs: dict) -> _LakeWorld:
        testbed = LIDCTestbed.multi_cluster(3, seed=inputs["seed"])
        lakes = [cluster.datalake for cluster in testbed.clusters.values()]
        for index, (dataset_id, payload) in enumerate(inputs["payloads"].items()):
            lakes[index % len(lakes)].publish_bytes(dataset_id, payload)
        return _LakeWorld(testbed, testbed.client(), inputs["trace"], inputs["payloads"])

    def drive(self, world: _LakeWorld, on_op: OpHook = None) -> Batch:
        env, client = world.testbed.env, world.client
        batch = Batch(ops=len(world.trace))
        batch.wall_us = [None] * batch.ops
        batch.sim_s = [None] * batch.ops
        batch.results = [None] * batch.ops

        def fetch(record, wall0):
            sim0 = env.now
            try:
                _manifest, payload = yield from client.retrieve_dataset(
                    record.name.split("/")[2])
            except NDNError as exc:  # timeout, Nack: a failed fetch is an op outcome
                payload = exc
                batch.failed += 1
            batch.results[record.seq] = payload
            batch.wall_us[record.seq] = (_now_ns() - wall0) / 1000.0
            batch.sim_s[record.seq] = env.now - sim0

        def pump():
            for record in world.trace:
                delay = record.t - env.now
                if delay > 0.0:
                    yield env.timeout(delay)
                env.process(fetch(record, _now_ns()), name=f"fetch:{record.seq}")

        env.process(pump(), name=f"pump:{self.name}")
        env.run()
        return batch

    def _clients(self, world: _LakeWorld) -> tuple:
        return (world.client,)

    def check(self, world: _LakeWorld, batch: Batch) -> list:
        errors = []
        for record, payload in zip(world.trace, batch.results):
            dataset_id = record.name.split("/")[2]
            if not isinstance(payload, bytes):
                errors.append(f"{dataset_id}: fetch failed: {payload!r}")
            elif payload != world.payloads[dataset_id]:
                errors.append(f"{dataset_id}: payload differs from the published bytes")
        errors += self._invariants(world, batch)
        return errors[:20]

    def op_of_process(self, process_name: str) -> Optional[int]:
        if process_name.startswith("fetch:"):
            return int(process_name[len("fetch:"):])
        return None

    def config(self, scale: float) -> dict:
        return {
            "spec": self.spec(scale).describe(),
            "testbed": "LIDCTestbed.multi_cluster(3), library defaults",
            "objects": f"{_LAKE_OBJECTS} datasets: ranks 0-{_LAKE_HOT_RANKS - 1} 64 KiB, "
                       f"then {list(_LAKE_SIZES)} KiB cycled; dataset k on cluster k mod 3",
        }


WORKLOADS = {wl.name: wl for wl in (DataScan(), DataZipf(), ComputeJobs(), LakeFetch())}
