"""Timed loop, traced loop, metrics and the result line.

Plain run (``--trace 0``): whole passes of the workload until the timed wall
time is nearest ``--seconds``; each operation is timed alone, and its meters
and check inputs are taken outside the timed region.  Answers are checked
after the loop.  Reports the end-to-end metrics, every time in them adjusted
for host speed (``hostspeed``); the raw wall-clock figures go in the details.

Traced run (``--trace 1``): the same passes, each operation executed twice,
once plain and once traced, alternating which goes first.  Reports the
per-layer metrics, as means per traced operation, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from spikeflow.errors import SpikeflowError

from . import workloads
from .hostspeed import Adjuster
from .tracing import Tracer

RUN_PY = Path(__file__).resolve().parent / "run.py"
SETUP_REPS = 9
PROBE_FLAG = "--probe-setup"
# Typed errors and failed internal assertions count as failed operations.
OP_ERRORS = (SpikeflowError, AssertionError)


def quantile(values: list[float], pct: float) -> float:
    """Linear interpolation at position (n + 1) * pct / 100, as
    ``statistics.quantiles`` does by default, but clamped to the smallest
    and largest sample where that function would extrapolate past them."""
    ordered = sorted(values)
    pos = (len(ordered) + 1) * pct / 100
    lo = min(max(int(math.floor(pos)), 1), len(ordered))
    hi = min(lo + 1, len(ordered))
    frac = min(max(pos - lo, 0.0), 1.0)
    return ordered[lo - 1] + (ordered[hi - 1] - ordered[lo - 1]) * frac


def _run_passes(workload, seed: int, seconds: float, first: list, run_pass) -> int:
    """Run whole passes until the timed total is nearest ``seconds``;
    ``run_pass(ops)`` returns the pass's timed seconds.  Returns the pass count."""
    timed, index, ops = 0.0, 0, first
    while True:
        timed += run_pass(ops)
        index += 1
        if timed + 0.5 * timed / index > seconds:
            return index
        ops = workload.build_pass(seed, index)


def _execute(workload, op):
    """Run one operation; returns (seconds, result or None, error text or None)."""
    start = perf_counter()
    try:
        result = workload.execute(op)
    except OP_ERRORS as exc:
        return perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, result, None


class Run:
    """Everything one run keeps per execution: its time, its check inputs,
    and, for the first pass, its model meters in the identity hash."""

    def __init__(self, workload, first_pass_len: int):
        self.workload = workload
        self.first_pass_len = first_pass_len
        self.times: list[float] = []
        self.checked: list[tuple[str, tuple]] = []  # (label, check inputs) per result
        self.errors: list[str] = []
        self.failed = 0
        self.sha = hashlib.sha256()
        self.hashed = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    def add(self, op, seconds: float, result, error: str | None, meters: str | None = None) -> None:
        """Record one execution; ``meters`` is computed here when the
        identity hash needs it and the caller has not."""
        self.times.append(seconds)
        if error is not None:
            self.errors.append(f"{op.label}: {error}")
            self.failed += 1
        else:
            self.checked.append((op.label, self.workload.check_inputs(op, result)))
        if self.hashed < self.first_pass_len:
            if meters is None:
                meters = self.workload.meters(result) if error is None else error
            self.sha.update(f"{op.label}\n{meters}\n".encode())
            self.hashed += 1

    def verify(self) -> dict:
        """Check every answer; returns the workload-shape facts."""
        if not self.checked:
            return {}
        problems, shape = self.workload.verify([inputs for _, inputs in self.checked])
        for (label, _), found in zip(self.checked, problems):
            self.errors.extend(f"{label}: {p}" for p in found)
            self.failed += bool(found)
        return shape


def plain_run(workload, seed: int, seconds: float, first: list) -> tuple[dict, dict]:
    run = Run(workload, len(first))
    adjuster = Adjuster()

    def run_pass(ops) -> float:
        timed = 0.0
        for op in ops:
            dt, result, error = _execute(workload, op)
            timed += dt
            run.add(op, dt, result, error)
            adjuster.add(dt)
            del result
        return timed

    with workload.hooks() as missing:
        if missing:
            raise RuntimeError(f"cannot hook {missing}")
        passes = _run_passes(workload, seed, seconds, first, run_pass)
    adjuster.flush()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shape = run.verify()
    times = adjuster.adjusted()
    tail = quantile(times, workload.tail_pct)
    metrics = {
        "ops_per_s": ((run.attempted - run.failed) / sum(times), "1/s"),
        "op_s.p50": (quantile(times, 50), "s"),
        "op_s.tail": (tail, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "success_frac": (1 - run.failed / run.attempted, "ratio"),
    }
    detail = {
        "passes": passes,
        "samples": len(times),
        "tail_pct": workload.tail_pct,
        "tail_samples_beyond": sum(1 for t in times if t > tail),
        "timed_s": sum(run.times),
        "wall": {
            "ops_per_s": (run.attempted - run.failed) / sum(run.times),
            "op_s.p50": quantile(run.times, 50),
            "op_s.tail": quantile(run.times, workload.tail_pct),
        },
        "kernel_s.p50": statistics.median(adjuster.kernel),
        "fail_frac": run.failed / run.attempted,
        "shape": shape,
    }
    return _result(run, metrics), {**detail, **_identity(run)}


def traced_run(workload, seed: int, seconds: float, first: list) -> tuple[dict, dict]:
    run = Run(workload, len(first))
    tracer = Tracer()
    spent = {False: 0.0, True: 0.0}  # timed seconds of plain and traced executions
    facts: dict[str, float] = {}

    def run_pass(ops) -> float:
        timed = 0.0
        for op in ops:
            runs = {}
            for traced in (False, True) if run.attempted % 2 == 0 else (True, False):
                with tracer.recording() if traced else nullcontext():
                    runs[traced] = _execute(workload, op)
            meters = {k: workload.meters(res) if err is None else err for k, (_, res, err) in runs.items()}
            for traced, (dt, _, _) in runs.items():
                spent[traced] += dt
                timed += dt
            dt, result, error = runs.pop(True)
            if error is None and meters[True] != meters[False]:
                error = "other meters when traced"
            run.add(op, dt, result, error, meters[True])
            if error is None:
                for key, value in workload.facts(result).items():
                    facts[key] = facts.get(key, 0) + value
            del runs, result
        return timed

    with workload.hooks() as missing, tracer.installed() as missing_spans:
        if missing:
            raise RuntimeError(f"cannot hook {missing}")
        passes = _run_passes(workload, seed, seconds, first, run_pass)
    shape = run.verify()
    metrics = layer_metrics(tracer, facts, len(run.times), spent[False], spent[True])
    detail = {"passes": passes, "samples": len(run.times), "missing_spans": missing_spans, "shape": shape}
    return _result(run, metrics), {**detail, **_identity(run)}


PER_OP_S = {  # metric -> (span name, "total" or "self")
    "snn.run.s": ("snn.run", "total"),
    "oracle.consult.self_s": ("oracle.consult", "self"),
    "maxflow.build.s": ("maxflow.build", "total"),
    "maxflow.decode_path.s": ("maxflow.decode_path", "total"),
    "maxflow.recover_path_backward.s": ("maxflow.recover_path_backward", "total"),
    "maxflow.descend_path.self_s": ("maxflow.descend_path", "self"),
    "maxflow.apply_flow_update.s": ("maxflow.apply_flow_update", "total"),
    "maxflow.verify_episode_properties.s": ("maxflow.verify_episode_properties", "total"),
    "maxflow.solve.self_s": ("maxflow.solve", "self"),
    "flow.generate_random.s": ("flow.generate_random", "total"),
    "flow.validate_flow.s": ("flow.validate_flow", "total"),
    "bench.classical_search_steps.s": ("bench.classical_search_steps", "total"),
    "bench.run_instance.self_s": ("bench.run_instance", "self"),
    "naive.build_decider.s": ("naive.build_decider", "total"),
    "tnfr.simulate_constrained.s": ("tnfr.simulate_constrained", "total"),
    "tnfr.reduce_network.s": ("tnfr.reduce_network", "total"),
    "tnfr.check_feasible.s": ("tnfr.check_feasible", "total"),
}
PER_OP_CALLS = {
    "snn.run.calls": "snn.run",
    "oracle.consult.calls": "oracle.consult",
    "maxflow.recover_path_backward.calls": "maxflow.recover_path_backward",
    "flow.generate_random.calls": "flow.generate_random",
}
PER_OP_FACTS = {  # metric -> key of a workload's facts or of Tracer.count
    "snn.steps": "snn.steps",
    "snn.spikes": "snn.spikes",
    "oracle.controller_ops": "controller_ops",
    "oracle.trace_events_retained": "trace_events",
    "naive.neurons": "naive_neurons",
    "naive.candidates": "naive_candidates",
    "tnfr.arcs": "tnfr.arcs",
}


def layer_metrics(tracer: Tracer, facts: dict, n_ops: int, plain_s: float, traced_s: float) -> dict:
    """Per-layer metrics as means per traced operation, plus ratios."""
    total, self_time, calls = tracer.totals()
    per_op = max(n_ops, 1)
    metrics = {}
    for name, (span, kind) in PER_OP_S.items():
        metrics[name] = ((total if kind == "total" else self_time).get(span, 0.0) / per_op, "s/op")
    for name, span in PER_OP_CALLS.items():
        metrics[name] = (calls.get(span, 0) / per_op, "1/op")
    counts = {**facts, **tracer.count}
    for name, key in PER_OP_FACTS.items():
        metrics[name] = (counts.get(key, 0) / per_op, "1/op")
    steps = tracer.count.get("snn.steps", 0)
    runs = calls.get("snn.run", 0)
    metrics["snn.us_per_step"] = (total.get("snn.run", 0.0) / steps * 1e6 if steps else 0.0, "us")
    metrics["oracle.distinct_state_frac"] = (tracer.distinct_states / runs if runs else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1 if plain_s else 0.0, "ratio")
    return metrics


def _identity(run: Run) -> dict:
    return {"meters_sha": run.sha.hexdigest(), "meters_ops": run.hashed, "failures": run.errors[:5]}


def _result(run: Run, metrics: dict) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh processes of the time from process start to the
    first operation being ready: interpreter start, imports, first pass.
    Each is adjusted for host speed by the kernel times around it."""
    adjuster = Adjuster(group_s=0)
    for _ in range(SETUP_REPS):
        cmd = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "0", PROBE_FLAG]
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed: exit {code}, {line!r}")
        adjuster.add(wall)
    return statistics.median(adjuster.adjusted())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="spikeflow benchmark: one workload per process")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(PROBE_FLAG, action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.make(args.workload)
    first = workload.build_pass(args.seed, 0)
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    if args.trace:
        result, detail = traced_run(workload, args.seed, args.seconds, first)
    else:
        result, detail = plain_run(workload, args.seed, args.seconds, first)
        setup_s = setup_seconds(args.workload, args.seed)
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail}))
    print(json.dumps(result))
    return 0
