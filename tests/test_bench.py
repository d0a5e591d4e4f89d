import csv
import json
import math

import pytest

import spikeflow.bench as bench
from spikeflow.bench import (
    CSV_COLUMNS,
    DENSE,
    SPARSE,
    BenchConfig,
    classical_search_steps,
    least_squares,
    run_bench,
    run_instance,
    suite_edge_count,
    write_csv,
    write_divergence_counterexamples,
    write_gnuplot_dat,
    write_summary,
)
from spikeflow.errors import ConstructionBugError
from spikeflow.flow import FlowNetwork, edmonds_karp, generate_random, parse_dimacs
from spikeflow.maxflow import PAPER_FAITHFUL, RESIDUAL, solve


def test_suite_edge_counts():
    assert suite_edge_count(SPARSE, 10) == 14
    assert suite_edge_count(SPARSE, 5) == 7
    assert suite_edge_count(DENSE, 10) == 45
    with pytest.raises(ValueError):
        suite_edge_count("nope", 5)


def test_classical_search_steps_matches_edmonds_karp():
    for seed in range(5):
        net = generate_random(8, 14, 6, seed)
        value, steps = classical_search_steps(net)
        assert value == edmonds_karp(net).value
        assert steps > 0


def test_least_squares_recovers_a_line():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [2.5 + 0.5 * x for x in xs]
    slope, intercept, r2 = least_squares(xs, ys)
    assert math.isclose(slope, 0.5)
    assert math.isclose(intercept, 2.5)
    assert math.isclose(r2, 1.0)


def test_run_instance_is_deterministic_per_seed():
    config = BenchConfig(suite=SPARSE, sizes=[8], samples=1, seed=3)
    a = run_instance(config, 8, 0)
    b = run_instance(config, 8, 0)
    assert a.as_csv_values() == b.as_csv_values()
    assert a.seed == b.seed


def test_run_instance_raises_on_an_invalid_flow(monkeypatch):
    def overfull_solve(net, mode):
        result = solve(net, mode)
        result.assignment.flows = {e: f + 1 for e, f in result.assignment.flows.items()}
        return result

    monkeypatch.setattr(bench, "solve", overfull_solve)
    with pytest.raises(ConstructionBugError, match="invalid flow: edge 0: flow"):
        run_instance(BenchConfig(suite=SPARSE, sizes=[8], samples=1, seed=3), 8, 0)


def test_bench_rows_and_summary_sparse():
    config = BenchConfig(suite=SPARSE, sizes=[5, 10, 20], samples=2, seed=1)
    rows, summary = run_bench(config)
    assert len(rows) == 6
    for row in rows:
        assert row.max_query_timesteps <= 2 * row.n_edges + 1
        assert row.wm_peak <= 8
        assert row.value <= row.classical_value
    assert "slope" in summary["spikes_vs_edges"]
    assert summary["total_instances"] == 6
    assert [r.n_nodes for r in rows] == sorted(r.n_nodes for r in rows)


def test_residual_mode_rows_have_zero_divergence():
    config = BenchConfig(suite=SPARSE, sizes=[5, 10], samples=3, seed=2, mode=RESIDUAL)
    rows, summary = run_bench(config)
    assert all(row.divergence == 0 for row in rows)
    assert summary["total_divergent"] == 0


def test_classical_mode_rows():
    config = BenchConfig(suite=DENSE, sizes=[5], samples=2, seed=0, mode="classical")
    rows, _ = run_bench(config)
    assert all(row.total_consults == 0 for row in rows)
    assert all(row.value == row.classical_value for row in rows)
    assert all(row.classical_time_steps > 0 for row in rows)


def test_csv_and_dat_and_summary_files(tmp_path):
    config = BenchConfig(suite=SPARSE, sizes=[5], samples=2, seed=4)
    rows, summary = run_bench(config)
    csv_path = tmp_path / "rows.csv"
    write_csv(rows, csv_path)
    with open(csv_path) as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == CSV_COLUMNS
    assert len(parsed) == 1 + len(rows)
    seed_col = CSV_COLUMNS.index("seed")
    assert all(int(line[seed_col]) != 0 or True for line in parsed[1:])

    dat_path = tmp_path / "rows.dat"
    write_gnuplot_dat(rows, dat_path)
    dat = dat_path.read_text().splitlines()
    assert dat[0].startswith("# ")
    assert len(dat) == 1 + len(rows)

    summary_path = tmp_path / "summary.json"
    write_summary(summary, summary_path)
    assert json.loads(summary_path.read_text())["suite"] == SPARSE


def test_divergence_counterexamples_are_replayable(tmp_path):
    # the trap graph forced through the bench row machinery: fabricate a row
    from spikeflow.bench import BenchRow
    from spikeflow.maxflow import solve

    net = FlowNetwork(
        6,
        [(0, 1, 1), (0, 3, 1), (1, 2, 1), (1, 4, 1), (2, 5, 1), (3, 2, 1), (4, 5, 1)],
        0,
        5,
    )
    result = solve(net, PAPER_FAITHFUL)
    reference = edmonds_karp(net).value
    row = BenchRow(
        suite=SPARSE, mode=PAPER_FAITHFUL, n_nodes=6, n_edges=7, sample=0, seed=99,
        value=result.assignment.value, classical_value=reference,
        divergence=abs(reference - result.assignment.value), episodes=result.episodes,
        total_consults=result.total_consults, decode_jams=result.decode_jams,
        mean_spikes_per_query=0.0, mean_timesteps_per_query=0.0,
        max_query_timesteps=0, mean_augmenting_path_len=0.0, oracle_energy=0,
        controller_time=0, wm_peak=0, classical_time_steps=0, network=net,
    )
    assert row.divergence == 1
    written = write_divergence_counterexamples([row], tmp_path)
    assert len(written) == 1
    replay = parse_dimacs(written[0].read_text())
    assert edmonds_karp(replay).value == reference
