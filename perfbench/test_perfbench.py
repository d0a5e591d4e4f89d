"""Tests of the benchmark itself: smoke-size workloads, identity, checks, tracing."""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import spikeflow.maxflow
import spikeflow.naive
from spikeflow import tnfr
from spikeflow.errors import GuardExceeded
from spikeflow.flow import FlowNetwork

from perfbench import checks, harness, hostspeed, workloads
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name, seed=3, trace=False, seconds=0.01):
    workload = workloads.make(name, smoke=True)
    first = workload.build_pass(seed, 0)
    run = harness.traced_run if trace else harness.plain_run
    return run(workload, seed, seconds, first)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_workload_plain_and_traced(name):
    result, detail = smoke(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    plain_names = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}
    assert set(result["metrics"]) == plain_names
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced, traced_detail = smoke(name, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced_detail["missing_spans"] == []
    assert traced_detail["meters_sha"] == detail["meters_sha"]


def test_meters_sha_identical_across_runs():
    first = smoke("dense", seed=5)[1]
    again = smoke("dense", seed=5)[1]
    other = smoke("dense", seed=6)[1]
    assert first["meters_sha"] == again["meters_sha"]
    assert first["meters_ops"] == again["meters_ops"] > 0
    assert other["meters_sha"] != first["meters_sha"]


def test_checker_flags_planted_wrong_answers():
    edges = [(0, 1, 2), (1, 2, 1), (0, 2, 3)]
    assert checks.max_flow_value(3, edges, 0, 2) == 4
    good = {0: 1, 1: 1, 2: 3}
    assert checks.flow_problems(3, edges, 0, 2, good, 4) == []
    assert checks.flow_problems(3, edges, 0, 2, {0: 2, 1: 1, 2: 3}, 5)  # conservation
    assert checks.flow_problems(3, edges, 0, 2, {0: 1, 1: 1, 2: 4}, 5)  # capacity
    assert checks.flow_problems(3, edges, 0, 2, good, 3)                # value

    dense = workloads.make("dense", smoke=True)
    dense.expected_edges = lambda n: len(edges)
    packed = workloads._packed(v for edge in edges for v in edge)

    def row(mode, flows, value, row_value, complete=True):
        return mode, 3, 3, 0, 2, packed, workloads._packed(flows), complete, value, row_value, 0

    problems, _ = dense.verify([
        row("residual", [1, 1, 3], 4, 4),
        row("residual", [0, 0, 0], 0, 0),              # feasible, not maximum
        row("paper-faithful", [0, 0, 0], 0, 0),        # allowed to fall short
        row("paper-faithful", [1, 1, 3], 4, 3),        # bench row disagrees
        row("paper-faithful", [1, 1, 3], 4, 4, False),  # flow on an unknown edge id
    ])
    assert [bool(p) for p in problems] == [False, True, False, True, True]

    net = FlowNetwork(3, edges, 0, 2)
    problems, _ = workloads.make("naive", smoke=True).verify([(net, 3, True), (net, 4, True)])
    assert [bool(p) for p in problems] == [False, True]

    problems, _ = workloads.make("reduction", smoke=True).verify(
        [(True, True, True), (True, False, True), (False, True, True)]
    )
    assert [bool(p) for p in problems] == [False, True, True]


def test_wrong_answers_and_typed_errors_count_without_aborting(monkeypatch):
    real = spikeflow.naive.decide_naive
    calls = []

    def planted(net, d):
        calls.append(d)
        if len(calls) % 3 == 0:
            raise GuardExceeded("planted")
        decision = real(net, d)
        decision.accepted = not decision.accepted
        return decision

    monkeypatch.setattr(spikeflow.naive, "decide_naive", planted)
    result, detail = smoke("naive")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(calls)
    assert result["metrics"]["success_frac"]["value"] == 0
    assert any("GuardExceeded" in f for f in detail["failures"])


def test_traced_run_reports_a_deleted_function_as_missing(monkeypatch):
    monkeypatch.delattr(spikeflow.maxflow, "recover_path_backward")
    result, detail = smoke("reduction", trace=True)
    assert result["correct"]
    assert detail["missing_spans"] == ["maxflow.recover_path_backward"]
    assert result["metrics"]["maxflow.recover_path_backward.calls"]["value"] == 0

    tracer = Tracer({"x.gone": (("spikeflow.bench:no_such_function",), None)})
    with tracer.installed() as missing:
        assert missing == ["x.gone"]


def test_self_time_excludes_child_spans():
    tracer = Tracer({})
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 7.0, 0], ["leaf", 2.0, 3.0, 1]]
    total, self_time, calls = tracer.totals()
    assert total["outer"] == 10.0 and self_time["outer"] == 5.0
    assert total["inner"] == 5.0 and self_time["inner"] == 4.0
    assert calls["inner"] == 2


def test_chain_run_agrees_with_simulator():
    chains = list(workloads.ACCEPTANCE_CHAINS)
    for middle, t in workloads.ACCEPTING_SHAPES + workloads.REJECTING_SHAPES:
        chains += [workloads.Chain(middle, 1, t, e) for e in (1, t + 1, 2 * t)]
    for chain in chains:
        outcome = tnfr.simulate_constrained(chain.config())
        step, spikes = checks.chain_run(chain.thresholds(), chain.time_bound)
        assert (step, spikes) == (outcome.accept_step, outcome.spikes), chain
        assert chain.accepts() == outcome.accepted


def test_adjuster_scales_each_group_by_the_nearby_kernel_median(monkeypatch):
    kernel = iter([0.012, 0.012, 0.006, 0.012, 0.003])
    monkeypatch.setattr(hostspeed, "kernel_seconds", lambda: next(kernel))
    adjuster = hostspeed.Adjuster(group_s=1.0, window=1)
    for seconds in (0.5, 0.5, 2.0, 1.0, 4.0):
        adjuster.add(seconds)
    # groups [0.5, 0.5], [2.0], [1.0], [4.0] lie between kernels 0.012|0.012|0.006|0.012|0.003
    scale = hostspeed.REFERENCE_S
    expected = [0.5 * scale / 0.012, 0.5 * scale / 0.012, 2.0 * scale / 0.009, 1.0 * scale / 0.009, 4.0 * scale / 0.0075]
    assert adjuster.adjusted() == pytest.approx(expected)


def test_quantile_matches_statistics():
    values = [0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.5, 0.8]
    assert [harness.quantile(values, p) for p in (25, 50, 75)] == pytest.approx(
        statistics.quantiles(values, n=4)
    )


def test_command_line_contract():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduction", "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [m for m in result["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["unit"] == units[k] and v["value"] > 0 for k, v in result["metrics"].items())


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
