"""Timed and traced runs of one workload, and the metrics they report.

Timed run (``trace=False``): fresh set-up and one batch, repeated until
``seconds`` of wall time have passed.  Every batch is checked.  Reports the
end-to-end metrics of :data:`END_TO_END`: throughput is the median over
batches, latency percentiles pool the ops of the faster half of the
batches, and every wall-time figure is scaled to the reference host speed
(``REF_NOMINAL_S``); the unscaled figures are in the run's record.  A
percentile with fewer than ``TAIL_SAMPLES`` samples beyond it is left out.

Traced run (``trace=True``): a few plain batches (untraced wall time and
the counts the program exposes), then one batch under
:class:`~tracing.SpanRecorder` (per-layer self time and call counts), then
one batch under cProfile with codec counting wrappers (codec share and
call counts).  Reports the per-layer metrics of :data:`PER_LAYER`.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Optional

from repro.ndn.packet import WirePacket

from lidcbench.tracing import SpanRecorder, profile_shares
from lidcbench.workloads import WORKLOADS, Batch, Workload

#: name -> (unit, better, bound).  Bounds are shares of the parent's median.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("ops/s", "higher", 0.25),
    "op_wall_us_p50": ("us", "lower", 0.25),
    "op_wall_us_p99": ("us", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "job_sim_turnaround_s_mean": ("sim_s", "lower", 0.25),
}

#: name -> (unit, better).  Per op unless the name says otherwise.
PER_LAYER = {
    "codec.self_us_per_op": ("us", "lower"),
    "codec.encode_tlv_per_op": ("count", "lower"),
    "codec.decode_tlv_header_per_op": ("count", "lower"),
    "codec.name_inits_per_op": ("count", "lower"),
    "codec.wire_decodes_per_op": ("count", "lower"),
    "codec.span_scans_per_op": ("count", "lower"),
    "engine.events_per_op": ("count", "lower"),
    "engine.self_us_per_op": ("us", "lower"),
    "tracer.records_per_op": ("count", "lower"),
    "tracer.self_us_per_op": ("us", "lower"),
    "face.sends_per_op": ("count", "lower"),
    "face.bytes_per_op": ("B", "lower"),
    "face.self_us_per_op": ("us", "lower"),
    "forwarder.self_us_per_op": ("us", "lower"),
    "pit.inserts_per_op": ("count", "lower"),
    "pit.peak_entries": ("count", "lower"),
    "cs.hit_ratio": ("ratio", "higher"),
    "cs.insertions_per_op": ("count", "lower"),
    "cs.evictions_per_op": ("count", "lower"),
    "shard.dispatch_self_us_per_op": ("us", "lower"),
    "shard.frames_per_op": ("count", "lower"),
    "shard.hot_hit_ratio": ("ratio", "higher"),
    "shard.max_share": ("ratio", "lower"),
    "consumer.interests_per_op": ("count", "lower"),
    "consumer.retransmissions_per_op": ("count", "lower"),
    "consumer.nacks_per_op": ("count", "lower"),
    "consumer.timeouts_per_op": ("count", "lower"),
    "segmentation.segments_per_op": ("count", "lower"),
    "lidc_client.polls_per_job": ("count", "lower"),
    "lidc_client.self_us_per_job": ("us", "lower"),
    "gateway.interests_per_job": ("count", "lower"),
    "gateway.refusals": ("count", "lower"),
    "gateway.self_us_per_job": ("us", "lower"),
    "apiserver.list_calls_per_job": ("count", "lower"),
    "apiserver.objects_scanned_per_job": ("count", "lower"),
    "scheduler.binds_per_job": ("count", "lower"),
    "cluster.self_us_per_job": ("us", "lower"),
    "datalake.bytes_served_per_op": ("B", "lower"),
    "datalake.self_us_per_op": ("us", "lower"),
    "setup.trace_gen_s": ("s", "lower"),
    "setup.build_s": ("s", "lower"),
    "trace_overhead_ratio": ("ratio", "lower"),
}

#: Per-layer counts with no public counter in the program: the traced run
#: counts calls into the layer instead.
NO_PUBLIC_SURFACE = {
    "pit.inserts_per_op": "PIT keeps no insert counter; counted by wrapping "
                          "PendingInterestTable.insert",
    "pit.peak_entries": "PIT keeps no high-water mark; sampled after each insert",
    "consumer.retransmissions_per_op": "Consumer keeps no retransmission counter; "
                                       "interests_sent minus express_interest calls",
    "segmentation.segments_per_op": "no segment counter; counted from reassemble() inputs",
    "apiserver.list_calls_per_job": "ApiServer keeps no call counters; counted by wrapping",
    "apiserver.objects_scanned_per_job": "store size at each ApiServer.list call",
    "datalake.bytes_served_per_op": "FileServer counts requests, not bytes; summed "
                                    "from the Data its handler returns",
    "face.sends_per_op": "FaceStats exist per face but no node lists every face; "
                         "counted by wrapping Face.send",
    "face.bytes_per_op": "as face.sends_per_op, summing len(wire)",
    "codec.encode_tlv_per_op": "counted by wrapping encode_tlv where imported",
    "codec.decode_tlv_header_per_op": "counted by wrapping decode_tlv_header where imported",
    "codec.name_inits_per_op": "counted by wrapping Name.__init__",
    "engine.events_per_op": "Environment keeps no step counter; Environment.step calls",
}

#: Host-speed reference: a fixed pure-Python loop, timed before every batch.
REF_ITERATIONS = 100_000
#: The loop's time on the idle 2-vCPU VM the bounds were set on.  Wall-time
#: metrics are scaled by ``run median / REF_NOMINAL_S`` so they read as on
#: that host: on a shared host the same code ran up to 50% slower for
#: minutes at a time, which would otherwise swamp any change under test.
REF_NOMINAL_S = 0.0055
#: Set-up is sampled at least this many times per run (median reported).
SETUP_SAMPLES = 15
#: A percentile is reported only when this many samples lie beyond it.
TAIL_SAMPLES = 10
#: A timed run goes on past ``seconds`` (up to this many times ``seconds``)
#: until its p99 has ``TAIL_SAMPLES`` samples beyond it.
OVERRUN = 3

_PACKET_PY = os.path.join("repro", "ndn", "packet.py")


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q < 1)."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q)]


def _rank(count: int, q: float) -> int:
    return min(count - 1, int(q * (count - 1) + 0.5))


def tail_percentile(values: list, q: float) -> Optional[float]:
    """:func:`percentile`, or None when fewer than ``TAIL_SAMPLES`` lie beyond it."""
    if not values or len(values) - 1 - _rank(len(values), q) < TAIL_SAMPLES:
        return None
    return percentile(values, q)


def reference_s() -> float:
    """Best of three timings of the host-speed reference loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(REF_ITERATIONS):
            total += value * value
        best = min(best, time.perf_counter() - start)
    return best


class _Runner:
    """One workload at one seed and scale: set-up, batches, checks."""

    def __init__(self, workload: Workload, seed: int, scale: float) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.trace_gen_s: list = []
        self.build_s: list = []
        #: Batch index -> the trace hashes its set-ups produced.
        self.trace_hashes: dict = {}
        self.errors: list = []
        self.attempted = 0
        self.failed = 0

    def setup(self, batch: int = 0):
        gc.collect()
        t0 = time.perf_counter()
        inputs = self.workload.inputs(self.seed, self.scale, batch)
        t1 = time.perf_counter()
        world = self.workload.build(inputs)
        t2 = time.perf_counter()
        self.trace_gen_s.append(t1 - t0)
        self.build_s.append(t2 - t1)
        key = batch if self.workload.trace_per_batch else 0
        self.trace_hashes.setdefault(key, set()).add(inputs["trace_hash"])
        return world

    def batch(self, world, on_op=None) -> tuple:
        """Drive one batch on ``world``; returns (batch, drive wall seconds)."""
        decodes, scans = WirePacket.wire_decodes, WirePacket.span_scans
        sites: Counter = Counter()

        def observe(_view) -> None:
            # The first frame outside packet.py is the code that asked for the decode.
            frame = sys._getframe(1)
            while frame.f_code.co_filename.endswith(_PACKET_PY):
                frame = frame.f_back
            sites[frame.f_code.co_filename] += 1

        hook, WirePacket.decode_hook = WirePacket.decode_hook, observe
        try:
            t0 = time.perf_counter()
            batch: Batch = self.workload.drive(world, on_op)
            wall = time.perf_counter() - t0
        finally:
            WirePacket.decode_hook = hook
        batch.wire_decodes = WirePacket.wire_decodes - decodes
        batch.span_scans = WirePacket.span_scans - scans
        batch.decode_sites = sites
        self.attempted += batch.ops
        self.failed += batch.failed
        self.errors += self.workload.check(world, batch)
        return batch, wall

    def fill_setup_samples(self, batches: int = 1) -> None:
        """Extra set-ups (of the batches already run, in turn) up to ``SETUP_SAMPLES``."""
        while len(self.build_s) < SETUP_SAMPLES:
            self.setup(len(self.build_s) % batches)

    def setup_s(self) -> float:
        return statistics.median(g + b for g, b in zip(self.trace_gen_s, self.build_s))

    def finish_checks(self) -> None:
        for batch, hashes in sorted(self.trace_hashes.items()):
            if len(hashes) != 1:
                self.errors.append(f"batch {batch} of one seed gave {len(hashes)} different traces")

    def trace_hash(self) -> list:
        """The input trace hash of each batch index, in order."""
        return [hash_ for _batch, hashes in sorted(self.trace_hashes.items())
                for hash_ in sorted(hashes)]


def timed_run(workload: Workload, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """Batches until ``seconds`` have passed; end-to-end metrics."""
    runner = _Runner(workload, seed, scale)
    start = time.perf_counter()
    batches, sim_s, refs = [], [], []

    def tail_samples() -> list:
        # Least-interference filter for the latency tail: a batch slower than
        # the median is mostly one the host slowed, so the percentiles pool
        # the ops of the faster half.
        cut = statistics.median(rate for rate, _walls in batches)
        return [value for rate, walls in batches if rate >= cut for value in walls]

    while not batches or time.perf_counter() - start < seconds or (
            time.perf_counter() - start < OVERRUN * seconds
            and tail_percentile(tail_samples(), 0.99) is None):
        refs.append(reference_s())
        world = runner.setup(len(batches))
        batch, wall = runner.batch(world)
        batches.append((batch.ops / wall, [value for value in batch.wall_us if value is not None]))
        sim_s += [value for value in batch.sim_s if value is not None]
        del world, batch
    runner.fill_setup_samples(len(batches))
    runner.finish_checks()
    rates = [rate for rate, _walls in batches]
    wall_us = tail_samples()
    raw = {
        "setup_s": runner.setup_s(),
        "ops_per_s": statistics.median(rates),
        "op_wall_us_p50": tail_percentile(wall_us, 0.50),
        "op_wall_us_p99": tail_percentile(wall_us, 0.99),
    }
    notes = [f"{name} not reported: fewer than {TAIL_SAMPLES} of {len(wall_us)} "
             "samples lie beyond it" for name, value in raw.items() if value is None]
    slowdown = statistics.median(refs) / REF_NOMINAL_S
    metrics = {
        "setup_s": raw["setup_s"] / slowdown,
        "ops_per_s": raw["ops_per_s"] * slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_sim_turnaround_s_mean": statistics.fmean(sim_s),
    }
    for name in ("op_wall_us_p50", "op_wall_us_p99"):
        if raw[name] is not None:
            metrics[name] = raw[name] / slowdown
    return _report(runner, metrics, END_TO_END, {
        "host_slowdown": slowdown,
        "raw_wall_metrics": raw,
        "batches": len(rates),
        "ops_per_batch": runner.attempted // len(rates),
        "batch_ops_per_s": rates,
        "batch_op_wall_us_p50": [percentile(walls, 0.5) for _rate, walls in batches],
        "latency_samples": len(wall_us),
        "sim_turnaround_samples": len(sim_s),
        "notes": notes,
    })


def traced_run(workload: Workload, seed: int, seconds: float, scale: float = 1.0,
               spans_path: Optional[str] = None) -> dict:
    """Plain batches, then one traced and one profiled batch; per-layer metrics."""
    runner = _Runner(workload, seed, scale)
    start = time.perf_counter()
    plain_walls = []
    while len(plain_walls) < 2 or time.perf_counter() - start < seconds / 3:
        world = runner.setup(len(plain_walls))
        batch, wall = runner.batch(world)
        if not plain_walls:
            # The traced and profiled batches below replay batch 0.
            counters = workload.counters(world, batch)
            ops = batch.ops
            plain_decodes, plain_scans = batch.wire_decodes, batch.span_scans
        plain_walls.append(wall)
        del world, batch
    plain_wall = statistics.median(plain_walls)

    with SpanRecorder(workload.op_of_process) as recorder:
        recorder.patch_layers()
        world = runner.setup()
        recorder.reset()

        def on_op(op: int) -> None:
            recorder.op = op

        traced_batch, traced_wall = runner.batch(world, on_op)
        traced_counters = workload.counters(world, traced_batch)
    if spans_path:
        recorder.write(spans_path)
    if traced_counters != counters:
        runner.errors.append("the traced batch's counters differ from the plain batch's")
    del world

    with SpanRecorder(workload.op_of_process) as codec:
        world = runner.setup()
        codec.patch_codec_counters()
        shares = profile_shares(lambda: runner.batch(world))
    del world
    runner.fill_setup_samples(len(plain_walls))
    runner.finish_checks()

    self_us = {layer: ns / 1000.0 / ops for layer, ns in recorder.self_ns.items()}
    counts = recorder.counts
    interests = counters["consumer.interests_per_op"] * ops
    metrics = {
        "codec.self_us_per_op": shares.get("codec", 0.0) * plain_wall * 1e6 / ops,
        "codec.encode_tlv_per_op": codec.counts["codec.encode_tlv"] / ops,
        "codec.decode_tlv_header_per_op": codec.counts["codec.decode_tlv_header"] / ops,
        "codec.name_inits_per_op": codec.counts["codec.name_inits"] / ops,
        "codec.wire_decodes_per_op": plain_decodes / ops,
        "codec.span_scans_per_op": plain_scans / ops,
        "engine.events_per_op": recorder.calls["Environment.step"] / ops,
        "engine.self_us_per_op": self_us.get("engine", 0.0),
        "tracer.self_us_per_op": self_us.get("tracer", 0.0),
        "face.sends_per_op": counts["face.sends"] / ops,
        "face.bytes_per_op": counts["face.bytes"] / ops,
        "face.self_us_per_op": self_us.get("face", 0.0),
        "forwarder.self_us_per_op": self_us.get("forwarder", 0.0),
        "pit.inserts_per_op": counts["pit.inserts"] / ops,
        "pit.peak_entries": recorder.peaks.get("pit.entries", 0),
        "shard.dispatch_self_us_per_op": self_us.get("shard", 0.0),
        "consumer.retransmissions_per_op": (interests - counts["consumer.expressed"]) / ops,
        "segmentation.segments_per_op": counts["segmentation.segments"] / ops,
        "lidc_client.self_us_per_job": self_us.get("lidc_client", 0.0),
        "gateway.self_us_per_job": self_us.get("gateway", 0.0),
        "apiserver.list_calls_per_job": counts["apiserver.list_calls"] / ops,
        "apiserver.objects_scanned_per_job": counts["apiserver.objects_scanned"] / ops,
        "cluster.self_us_per_job": self_us.get("cluster", 0.0),
        "datalake.bytes_served_per_op": counts["datalake.bytes_served"] / ops,
        "datalake.self_us_per_op": self_us.get("datalake", 0.0),
        "setup.trace_gen_s": statistics.median(runner.trace_gen_s),
        "setup.build_s": statistics.median(runner.build_s),
        "trace_overhead_ratio": traced_wall / plain_wall,
    }
    for name in PER_LAYER:
        metrics.setdefault(name, counters.get(name, 0.0))
    return _report(runner, metrics, PER_LAYER, {
        "per_op_base": f"per op = per {workload.op_noun} of a {ops}-op batch",
        "plain_batches": len(plain_walls),
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "self_us_per_op_all_layers": self_us,
        "profile_share_by_layer": shares,
        "spans_recorded": recorder.recorded,
        "spans_kept": len(recorder.kept),
        "no_public_surface": NO_PUBLIC_SURFACE,
    })


def _report(runner: _Runner, metrics: dict, table: dict, details: dict) -> dict:
    workload = runner.workload
    return {
        "result": {
            "correct": not runner.errors and runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": table[name][0]}
                for name in table if name in metrics
            },
        },
        "details": {
            "workload": workload.name,
            "seed": runner.seed,
            "scale": runner.scale,
            "trace_hash": runner.trace_hash(),
            "config": workload.config(runner.scale),
            "errors": runner.errors[:20],
            **details,
        },
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, spans_dir: Optional[str] = None) -> dict:
    workload = WORKLOADS[workload_name]
    if trace:
        spans_path = (os.path.join(spans_dir, f"spans-{workload_name}.jsonl")
                      if spans_dir else None)
        return traced_run(workload, seed, seconds, scale, spans_path)
    return timed_run(workload, seed, seconds, scale)
