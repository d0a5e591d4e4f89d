"""Benchmark harness: random suites, per-query measurements, scaling fits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConstructionBugError
from .flow import FlowNetwork, edmonds_karp, format_dimacs, generate_random, max_feasible_edges, validate_flow
from .maxflow import PAPER_FAITHFUL, RESIDUAL, solve, verify_episode_properties

SPARSE, DENSE = "sparse", "dense"
CLASSICAL = "classical"

SPARSE_SIZES = list(range(5, 101, 5))
DENSE_SIZES = list(range(5, 41, 5))


def suite_edge_count(suite: str, n_nodes: int) -> int:
    if suite == SPARSE:
        return max(n_nodes - 1, int(1.4 * n_nodes))
    if suite == DENSE:
        return max_feasible_edges(n_nodes)
    raise ValueError(f"unknown suite {suite!r}")


@dataclass
class BenchConfig:
    suite: str = SPARSE
    sizes: list[int] = field(default_factory=list)
    samples: int = 10
    c_max: int = 10
    seed: int = 0
    mode: str = PAPER_FAITHFUL

    def __post_init__(self):
        if not self.sizes:
            self.sizes = list(SPARSE_SIZES if self.suite == SPARSE else DENSE_SIZES)
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if len(set(self.sizes)) < len(self.sizes):
            raise ValueError("sizes must not repeat")
        if self.suite not in (SPARSE, DENSE):
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.mode not in (PAPER_FAITHFUL, RESIDUAL, CLASSICAL):
            raise ValueError(f"unknown mode {self.mode!r}")
        for n in self.sizes:
            # the edge range generate_random can build on n nodes
            if not 1 <= n - 1 <= suite_edge_count(self.suite, n) <= max_feasible_edges(n):
                raise ValueError(f"size {n} is too small for the {self.suite} suite")


@dataclass
class BenchRow:
    suite: str
    mode: str
    n_nodes: int
    n_edges: int
    sample: int
    seed: int
    value: int
    classical_value: int
    divergence: int = 0
    episodes: int = 0
    total_consults: int = 0
    decode_jams: int = 0
    mean_spikes_per_query: float = 0.0
    mean_timesteps_per_query: float = 0.0
    max_query_timesteps: int = 0
    mean_augmenting_path_len: float = 0.0
    oracle_energy: int = 0
    controller_time: int = 0
    wm_peak: int = 0
    classical_time_steps: int = 0
    property_violations: int = 0
    network: FlowNetwork | None = None

    def as_csv_values(self) -> list:
        return [getattr(self, col) for col in CSV_COLUMNS]


CSV_COLUMNS = [f.name for f in fields(BenchRow) if f.name != "network"]


def classical_search_steps(net: FlowNetwork) -> tuple[int, int]:
    """Reference Edmonds-Karp value and operation count: one unit per node
    dequeued and per residual arc scanned, summed over every BFS."""
    reference = edmonds_karp(net)
    return reference.value, reference.search_steps


def run_instance(config: BenchConfig, n_nodes: int, sample: int) -> BenchRow:
    seed = config.seed * 1_000_003 + n_nodes * 1_009 + sample
    m = suite_edge_count(config.suite, n_nodes)
    net = generate_random(n_nodes, m, config.c_max, seed)
    classical_value, classical_steps = classical_search_steps(net)

    if config.mode == CLASSICAL:
        return BenchRow(
            suite=config.suite, mode=config.mode, n_nodes=n_nodes, n_edges=m,
            sample=sample, seed=seed, value=classical_value,
            classical_value=classical_value, classical_time_steps=classical_steps, network=net,
        )

    result = solve(net, config.mode)
    violations = validate_flow(net, result.assignment)
    if violations:
        raise ConstructionBugError(f"seed {seed}: invalid flow: {'; '.join(violations)}")
    records = result.query_records
    spikes = [r.spikes for r in records]
    steps = [r.timesteps for r in records]
    return BenchRow(
        suite=config.suite,
        mode=config.mode,
        n_nodes=n_nodes,
        n_edges=m,
        sample=sample,
        seed=seed,
        value=result.assignment.value,
        classical_value=classical_value,
        divergence=abs(classical_value - result.assignment.value),
        episodes=result.episodes,
        total_consults=result.total_consults,
        decode_jams=result.decode_jams,
        mean_spikes_per_query=sum(spikes) / len(spikes) if spikes else 0.0,
        mean_timesteps_per_query=sum(steps) / len(steps) if steps else 0.0,
        max_query_timesteps=max(steps) if steps else 0,
        mean_augmenting_path_len=result.path_arcs / result.episodes if result.episodes else 0.0,
        oracle_energy=result.report.oracle_energy,
        controller_time=result.report.controller_time,
        wm_peak=result.report.controller_wm_peak,
        classical_time_steps=classical_steps,
        property_violations=len(verify_episode_properties(net, result)),
        network=net,
    )


def least_squares(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Slope, intercept and R^2 of an ordinary least-squares line."""
    n = len(xs)
    if n < 2:
        return 0.0, (ys[0] if ys else 0.0), 1.0
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0:
        return 0.0, my, 1.0
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def run_bench(config: BenchConfig) -> tuple[list[BenchRow], dict]:
    rows: list[BenchRow] = []
    for n in config.sizes:
        for sample in range(config.samples):
            rows.append(run_instance(config, n, sample))
    rows.sort(key=lambda r: (r.n_nodes, r.sample))

    per_size: dict[int, dict] = {}
    for n in config.sizes:
        group = [r for r in rows if r.n_nodes == n]
        per_size[n] = {
            "n_edges": group[0].n_edges,
            "mean_spikes_per_query": sum(r.mean_spikes_per_query for r in group) / len(group),
            "mean_timesteps_per_query": sum(r.mean_timesteps_per_query for r in group) / len(group),
            "mean_augmenting_path_len": sum(r.mean_augmenting_path_len for r in group) / len(group),
            "divergent_instances": sum(1 for r in group if r.divergence > 0),
        }

    xs = [float(per_size[n]["n_edges"]) for n in config.sizes]
    ys = [per_size[n]["mean_spikes_per_query"] for n in config.sizes]
    slope, intercept, r2 = least_squares(xs, ys)
    summary = {
        "suite": config.suite,
        "mode": config.mode,
        "samples": config.samples,
        "c_max": config.c_max,
        "seed": config.seed,
        "sizes": config.sizes,
        "per_size": per_size,
        "spikes_vs_edges": {"slope": slope, "intercept": intercept, "r2": r2},
        "total_divergent": sum(1 for r in rows if r.divergence > 0),
        "total_instances": len(rows),
        # share of instances with no augmenting path at all, which flatten
        # the spikes-against-edges fit
        "zero_flow_frac": sum(1 for r in rows if r.classical_value == 0) / len(rows),
        # paper-faithful decode jams per metered consultation
        "jam_rate": sum(r.decode_jams for r in rows) / max(1, sum(r.total_consults for r in rows)),
    }
    positive = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(positive) >= 2:
        lx = [math.log(x) for x, _ in positive]
        ly = [math.log(y) for _, y in positive]
        exp_slope, exp_intercept, exp_r2 = least_squares(lx, ly)
        summary["spikes_vs_edges_loglog"] = {
            "exponent": exp_slope,
            "intercept": exp_intercept,
            "r2": exp_r2,
        }
    return rows, summary


def write_csv(rows: list[BenchRow], path: Path) -> None:
    import csv as csv_mod

    with open(path, "w", newline="") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.as_csv_values())


def write_gnuplot_dat(rows: list[BenchRow], path: Path) -> None:
    with open(path, "w") as fh:
        fh.write("# " + " ".join(CSV_COLUMNS[2:]) + "\n")
        for row in rows:
            fh.write(" ".join(str(v) for v in row.as_csv_values()[2:]) + "\n")


def write_summary(summary: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def write_divergence_counterexamples(rows: list[BenchRow], out_dir: Path) -> list[Path]:
    """One DIMACS file per divergent instance, replayable from its seed."""
    written = []
    for row in rows:
        if row.divergence > 0 and row.network is not None:
            path = out_dir / f"counterexample_{row.suite}_{row.mode}_n{row.n_nodes}_s{row.sample}.max"
            path.write_text(
                format_dimacs(
                    row.network,
                    comment=(
                        f"divergence {row.divergence}: {row.mode} value {row.value}, "
                        f"reference {row.classical_value}; seed {row.seed}"
                    ),
                )
            )
            written.append(path)
    return written
