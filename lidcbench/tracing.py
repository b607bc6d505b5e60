"""Traced-run tooling: spans around layer entry points, counting wrappers, profile pass.

Nothing here is active during a timed run.  :class:`SpanRecorder` patches
the entry points of each layer *from outside the program*, records
one span per call (name, layer, start, end, parent span, op id), and
restores every patched attribute when it exits.

A span's **self time** is its duration minus the time its direct child
spans cover.  ``Environment.step`` spans are attributed to the layer of the
generator they resume (a job session's step counts as ``lidc_client``, a
kubelet's as ``cluster``, a link delivery's as ``face``), so
generator-based session code is charged to its own layer; a step that
resumes no process stays ``engine``.

Self times are accumulated on the fly, so memory stays bounded however
long the run; the first ``KEEP_SPANS`` spans are also kept verbatim and written
out at the end for offline inspection.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

#: Module path fragment -> layer.  Longest match wins.
_MODULE_LAYERS = {
    "repro/sim/trace.py": "tracer",
    "repro/sim/": "engine",
    "repro/ndn/face.py": "face",
    "repro/ndn/shard.py": "shard",
    "repro/ndn/client.py": "consumer",
    "repro/ndn/segmentation.py": "segmentation",
    "repro/ndn/tlv.py": "codec",
    "repro/ndn/name.py": "codec",
    "repro/ndn/packet.py": "codec",
    "repro/ndn/security.py": "codec",
    "repro/ndn/": "forwarder",
    "repro/core/client.py": "lidc_client",
    "repro/core/": "gateway",
    "repro/cluster/": "cluster",
    "repro/genomics/": "cluster",
    "repro/datalake/": "datalake",
    "repro/workload/": "workload",
    "lidcbench/": "bench",
}
_ORDERED = sorted(_MODULE_LAYERS.items(), key=lambda item: -len(item[0]))

#: Spans kept verbatim (and written out) per traced batch.
KEEP_SPANS = 50_000
_clock = time.perf_counter_ns


def layer_of_file(path: str) -> str:
    path = path.replace(os.sep, "/")
    for fragment, layer in _ORDERED:
        if fragment in path:
            return layer
    return "other"


class SpanRecorder:
    """Records nested spans around patched callables.

    Use as a context manager: ``with SpanRecorder(op_of_process) as rec:
    rec.patch_layers(); ...``.  ``op`` is the id of the op currently being
    served on the data plane (set by the workload's ``on_op`` hook); on the
    compute path the op id comes from the process a step resumes.
    """

    def __init__(self, op_of_process: Callable[[str], Optional[int]]) -> None:
        self.op_of_process = op_of_process
        self.op: Optional[int] = None
        #: Open spans: [index, layer, start_ns, child_ns, op].
        self._stack: list = []
        self.recorded = 0
        #: Verbatim spans: (index, name, layer, start_ns, end_ns, parent, op).
        self.kept: list = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: dict = {}
        self._patches: list = []

    # -- patching ---------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def span(self, owner, attr: str, layer: str, after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` so every call records a span in ``layer``.

        ``after(args, result)`` may add counts once the call returns.
        """
        original = owner.__dict__[attr]
        name = f"{owner.__name__}.{attr}"
        recorder = self

        def wrapper(*args, **kwargs):
            return recorder._call(name, layer, original, args, kwargs, after)

        wrapper.__wrapped__ = original
        self._replace(owner, attr, wrapper)

    def count(self, owner, attr: str, label: str,
              amount: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (class or module) to count calls, no span."""
        original = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += amount(args) if amount is not None else 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        self._replace(owner, attr, wrapper)

    def count_function(self, function, label: str) -> None:
        """Count calls of a module-level function in every module that imported it."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self.count(module, attr, label)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- recording ----------------------------------------------------------------

    def _call(self, name, layer, original, args, kwargs, after):
        stack = self._stack
        index = self.recorded
        self.recorded += 1
        parent = stack[-1] if stack else None
        op = parent[4] if parent is not None and self.op is None else self.op
        if layer is None:
            layer, op = self._step_layer(args[0], op)
        frame = [index, layer, 0, 0, op]
        stack.append(frame)
        self.calls[name] += 1
        frame[2] = start = _clock()
        try:
            result = original(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            self.self_ns[layer] += duration - frame[3]
            if parent is not None:
                parent[3] += duration
            if index < KEEP_SPANS:
                self.kept.append((index, name, layer, start, end,
                                  parent[0] if parent is not None else None, op))
        if after is not None:
            after(args, result)
        return result

    def _step_layer(self, env, op):
        """Layer and op of the process the next ``Environment.step`` resumes."""
        queue = env._queue
        if not queue:
            return "engine", op
        event = queue[0][3]
        for callback in event.callbacks:
            process = getattr(callback, "__self__", None)
            generator = getattr(process, "_generator", None)
            if generator is not None:
                # The code a resume runs is the innermost delegated generator.
                while getattr(generator.gi_yieldfrom, "gi_code", None) is not None:
                    generator = generator.gi_yieldfrom
                process_op = self.op_of_process(process.name)
                layer = layer_of_file(generator.gi_code.co_filename)
                return layer, process_op if process_op is not None else op
        return "engine", op

    def reset(self) -> None:
        """Forget what was recorded so far (set-up work); patches stay."""
        self.recorded = 0
        self.kept.clear()
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()
        self.peaks.clear()

    def peak(self, label: str, value: int) -> None:
        if value > self.peaks.get(label, 0):
            self.peaks[label] = value

    # -- the layer boundaries ---------------------------------------------------------

    def patch_layers(self) -> None:
        """Wrap every layer's entry points (see README, "Per-layer metrics")."""
        from repro.cluster.apiserver import ApiServer
        from repro.core.client import LIDCClient
        from repro.core.gateway import Gateway
        from repro.datalake.fileserver import FileServer
        from repro.datalake.repo import DataLake
        from repro.ndn import client as ndn_client
        from repro.ndn.client import Consumer
        from repro.ndn.cs import ContentStore
        from repro.ndn.face import Face
        from repro.ndn.forwarder import Forwarder
        from repro.ndn.pit import PendingInterestTable
        from repro.ndn.shard import ShardedForwarder
        from repro.sim.engine import Environment
        from repro.sim.trace import Tracer

        counts = self.counts
        self.span(Environment, "step", None)
        self.span(Consumer, "express_interest", "consumer",
                  after=lambda args, result: counts.update(("consumer.expressed",)))
        self.span(Consumer, "receive_packet", "consumer")
        self.span(ShardedForwarder, "receive_packet", "shard")
        self.span(Forwarder, "receive_packet", "forwarder")

        def sent(args, result):
            counts["face.sends"] += 1
            packet = args[1]
            counts["face.bytes"] += getattr(packet, "size", 0)

        self.span(Face, "send", "face", after=sent)
        for attr in ("find", "insert", "erase"):
            self.span(ContentStore, attr, "forwarder")

        def pit_insert(args, result):
            counts["pit.inserts"] += 1
            self.peak("pit.entries", len(args[0]))

        self.span(PendingInterestTable, "insert", "forwarder", after=pit_insert)
        for attr in ("satisfy", "find_exact", "is_duplicate_nonce", "record_out",
                     "expire", "remove"):
            self.span(PendingInterestTable, attr, "forwarder")
        self.span(Tracer, "record", "tracer")
        for attr in ("submit", "submit_interest", "poll_status", "retrieve_result",
                     "retrieve_dataset"):
            self.span(LIDCClient, attr, "lidc_client")
        for attr in ("_on_compute", "_on_status"):
            self.span(Gateway, attr, "gateway")

        store_size = ApiServer.count  # unwrapped: sizing a store is not a call to count

        def listed(args, result):
            counts["apiserver.list_calls"] += 1
            counts["apiserver.objects_scanned"] += store_size(args[0], args[1])

        self.span(ApiServer, "list", "cluster", after=listed)
        for attr in ("create", "get", "try_get", "update", "delete", "count"):
            self.span(ApiServer, attr, "cluster")
        for attr in ("publish_bytes", "read_bytes", "read_manifest", "get_record"):
            self.span(DataLake, attr, "datalake")

        def served(args, result):
            counts["datalake.bytes_served"] += len(getattr(result, "content", b"") or b"")

        self.span(FileServer, "_handle", "datalake", after=served)
        self.count(ndn_client, "reassemble", "segmentation.segments",
                   amount=lambda args: len(args[0]))

    def patch_codec_counters(self) -> None:
        """Counting wrappers for the codec calls too fine-grained to span."""
        from repro.ndn import tlv
        from repro.ndn.name import Name

        self.count_function(tlv.encode_tlv, "codec.encode_tlv")
        self.count_function(tlv.decode_tlv_header, "codec.decode_tlv_header")
        self.count(Name, "__init__", "codec.name_inits")

    # -- output --------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines (one span per line)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, name, layer, start, end, parent, op in self.kept:
                handle.write(json.dumps({
                    "id": index, "name": name, "layer": layer, "start_ns": start,
                    "end_ns": end, "parent": parent, "op": op,
                }) + "\n")


def self_times_from_spans(spans: list) -> Counter:
    """Per-layer self time (ns) recomputed from verbatim spans.

    The reference for the on-the-fly accumulation in :class:`SpanRecorder`.
    """
    by_index = {span[0]: span for span in spans}
    child_ns: Counter = Counter()
    for index, _name, _layer, start, end, parent, _op in spans:
        if parent is not None and parent in by_index:
            child_ns[parent] += end - start
    totals: Counter = Counter()
    for index, _name, layer, start, end, _parent, _op in spans:
        totals[layer] += end - start - child_ns[index]
    return totals


def profile_shares(run: Callable[[], object]) -> dict:
    """Run ``run`` under cProfile; return each layer's share of own time.

    Own time is cProfile's ``tottime`` bucketed by the function's module;
    a standard-library or built-in function's own time is charged to the
    layers that called it.
    The benchmark's own wrappers and driver (layer ``bench``) are left out
    of the total, so the shares are of the program's time.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    by_layer: defaultdict = defaultdict(float)

    def attribute(function, seconds: float, depth: int = 0) -> None:
        # Standard-library and built-in own time goes to the calling layer,
        # split by how much of it each caller incurred.
        layer = layer_of_file(function[0])
        callers = stats[function][4] if function in stats else {}
        incurred = sum(row[2] for row in callers.values())
        if layer != "other" or depth > 8 or incurred <= 0:
            by_layer[layer] += seconds
            return
        for caller, row in callers.items():
            attribute(caller, seconds * row[2] / incurred, depth + 1)

    for function, row in stats.items():
        attribute(function, row[2])
    by_layer.pop("bench", None)
    total = sum(by_layer.values()) or 1.0
    return {layer: seconds / total for layer, seconds in by_layer.items()}
