"""The benchmark's own tests: tiny runs, metric names, and checks that bite.

Run with ``python3 -m pytest lidcbench -q`` from the root of the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.core.spec import JobState
from repro.ndn.forwarder import Forwarder
from repro.ndn.packet import Data, WirePacket
from repro.sim.engine import Environment

from lidcbench import harness, run
from lidcbench.tracing import SpanRecorder, self_times_from_spans
from lidcbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = 0.02
SEED = 3


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _tiny_batch(name: str, seed: int = SEED):
    workload = WORKLOADS[name]
    world = workload.build(workload.inputs(seed, TINY))
    runner = harness._Runner(workload, seed, TINY)
    batch, _wall = runner.batch(world)
    return workload, world, batch, runner.errors


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_timed_run_passes_every_check(name):
    report = harness.run(name, SEED, seconds=0, trace=False, scale=TINY)
    result = report["result"]
    assert report["details"]["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == WORKLOADS[name].ops_at(TINY)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["dp-zipf", "compute-jobs", "lake-fetch"])
def test_tiny_traced_run_reports_layers_and_restores_patches(name, tmp_path):
    step = Environment.__dict__["step"]
    report = harness.run(name, SEED, seconds=0, trace=True, scale=TINY,
                         spans_dir=str(tmp_path))
    assert Environment.__dict__["step"] is step
    assert report["result"]["correct"], report["details"]["errors"]
    metrics = report["result"]["metrics"]
    assert metrics["engine.events_per_op"]["value"] > 0
    assert metrics["trace_overhead_ratio"]["value"] > 0
    assert (tmp_path / f"spans-{name}.jsonl").stat().st_size > 0


def test_metric_names_match_benchmark_json(capsys):
    spec = _spec()
    # One full-size dp-scan batch: 2000 requests, enough for a p99.
    assert run.main(["--workload", "dp-scan", "--seed", str(SEED), "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: value["unit"] for name, value in result["metrics"].items()}
    assert details["trace_hash"] and details["environment"]["cpu_count"] >= 1

    traced = harness.run("dp-scan", SEED, seconds=0, trace=True, scale=TINY)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: value["unit"] for name, value in traced["result"]["metrics"].items()}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == harness.PER_LAYER


def test_seed_pins_the_inputs():
    workload = WORKLOADS["dp-zipf"]
    first = workload.inputs(SEED, TINY)["trace_hash"]
    assert workload.inputs(SEED, TINY)["trace_hash"] == first
    assert workload.inputs(SEED, TINY, batch=1)["trace_hash"] == first
    assert workload.inputs(SEED + 1, TINY)["trace_hash"] != first

    jobs = WORKLOADS["compute-jobs"]
    second = jobs.inputs(SEED, TINY, batch=1)["trace_hash"]
    assert jobs.inputs(SEED, TINY, batch=1)["trace_hash"] == second
    assert jobs.inputs(SEED, TINY, batch=0)["trace_hash"] != second


def test_percentile_needs_samples_beyond_it():
    values = list(range(1, 1001))
    assert harness.tail_percentile(values, 0.99) == 990
    assert harness.tail_percentile(values[:900], 0.99) is None
    report = harness.run("dp-zipf", SEED, seconds=0, trace=False, scale=TINY)
    assert "op_wall_us_p99" not in report["result"]["metrics"]
    assert report["details"]["notes"]


def test_flipped_data_byte_fails_the_check():
    workload, world, batch, errors = _tiny_batch("dp-scan")
    assert errors == []
    good = batch.results[0]
    flipped = bytes([good.content[0] ^ 1]) + good.content[1:]
    batch.results[0] = Data(name=good.name, content=flipped,
                            freshness_period=good.freshness_period).sign()
    assert any("content differs" in e for e in workload.check(world, batch))


def test_transit_decode_and_leak_fail_the_check():
    workload, world, batch, _errors = _tiny_batch("dp-zipf")
    batch.wire_decodes += 1
    world.consumer.express_interest("/w000/never-answered")
    errors = workload.check(world, batch)
    assert any("wire_decodes" in e for e in errors)
    assert any("still pending" in e for e in errors)


def test_transit_decode_on_the_overlay_fails_the_check(monkeypatch):
    receive = Forwarder.receive_packet

    def decoding(self, packet, face):
        WirePacket(WirePacket.of(packet).wire).decode()
        return receive(self, packet, face)

    monkeypatch.setattr(Forwarder, "receive_packet", decoding)
    _workload, _world, _batch, errors = _tiny_batch("lake-fetch")
    assert any("in transit" in e for e in errors)


def test_flipped_payload_byte_fails_the_check():
    workload, world, batch, errors = _tiny_batch("lake-fetch")
    assert errors == []
    payload = batch.results[0]
    batch.results[0] = payload[:-1] + bytes([payload[-1] ^ 1])
    assert any("differs from the published" in e for e in workload.check(world, batch))


def test_failed_job_fails_the_check():
    workload, world, batch, errors = _tiny_batch("compute-jobs")
    assert errors == []
    batch.results[-1].outcome.state = JobState.FAILED
    assert any("ended Failed" in e for e in workload.check(world, batch))


def test_self_time_matches_recomputation_from_spans():
    workload = WORKLOADS["compute-jobs"]
    with SpanRecorder(workload.op_of_process) as recorder:
        recorder.patch_layers()
        world = workload.build(workload.inputs(SEED, TINY))
        recorder.reset()
        workload.drive(world)
    assert recorder.recorded == len(recorder.kept) > 0
    assert self_times_from_spans(recorder.kept) == recorder.self_ns
    assert {span[6] for span in recorder.kept} - {None}, "no span carried an op id"


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "lidcbench"), tmp_path / "lidcbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "lidcbench/run.py", "--workload", "dp-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
