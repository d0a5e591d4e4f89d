"""Acceptance suite: one test per numbered criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
The random sweeps reuse one fixed master seed so every row is replayable.
"""

import itertools
import math
from fractions import Fraction

import pytest

from flow_oracles import brute_force_max_flow, exhaustive_min_cut
from tnfr_oracles import touches_failure, without_arcs
from spikeflow.bench import DENSE, SPARSE, BenchConfig, least_squares, run_bench, write_divergence_counterexamples
from spikeflow.flow import FlowNetwork, edmonds_karp, generate_random, max_feasible_edges, validate_flow
from spikeflow.maxflow import (
    _WM_WORDS,
    PAPER_FAITHFUL,
    RESIDUAL,
    EdgeNeuronMap,
    build_capacity_neurons,
    build_search_network,
    run_search_query,
    solve,
)
from spikeflow.naive import decide_naive
from spikeflow.oracle import NeuromorphicOracle
from spikeflow.snn import Neuron, SpikingNetwork, Synapse
from spikeflow.tnfr import ReductionConfig, check_feasible, reduce_network, simulate_constrained, verify_reduction

MASTER_SEED = 20260810
ONE = Fraction(1)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def sparse_sweep():
    config = BenchConfig(
        suite=SPARSE, sizes=list(range(5, 101, 5)), samples=10, c_max=10,
        seed=MASTER_SEED, mode=PAPER_FAITHFUL,
    )
    return run_bench(config)


@pytest.fixture(scope="module")
def dense_sweep():
    config = BenchConfig(
        suite=DENSE, sizes=list(range(5, 41, 5)), samples=10, c_max=10,
        seed=MASTER_SEED, mode=PAPER_FAITHFUL,
    )
    return run_bench(config)


def _ascending_dag_instances():
    """Every flow network on up to 5 nodes with up to 6 edges and caps <= 3.

    Edge sets are exhaustive over the complete ascending DAG, skipping sets
    that leave a node isolated (those duplicate a smaller instance).  Every
    shape with up to five edges gets all 3^k capacity assignments from
    {1,2,3}, as do all shapes on n <= 4 nodes; only the six-edge shapes on
    n = 5 nodes use nine deterministic capacity stripes instead.
    """
    for n in range(2, 6):
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for k in range(1, min(6, len(all_pairs)) + 1):
            for subset in itertools.combinations(all_pairs, k):
                covered = {v for uv in subset for v in uv}
                if covered != set(range(n)):
                    continue
                exhaustive_caps = n <= 4 or k <= 5
                if exhaustive_caps:
                    cap_choices = itertools.product((1, 2, 3), repeat=k)
                else:
                    cap_choices = (
                        tuple(((i * p + q) % 3) + 1 for i in range(k))
                        for p in (1, 2, 3)
                        for q in (0, 1, 2)
                    )
                for caps in cap_choices:
                    edges = [(u, v, c) for (u, v), c in zip(subset, caps)]
                    yield FlowNetwork(n, edges, 0, n - 1)


def test_criterion_1_exhaustive_oracle_equivalence():
    checked = 0
    brute_checked = 0
    seen = set()
    for net in _ascending_dag_instances():
        key = (net.n_nodes, tuple((e.tail, e.head, e.cap) for e in net.edges))
        assert key not in seen, key
        seen.add(key)
        reference = edmonds_karp(net)
        assert validate_flow(net, reference) == []
        cut = exhaustive_min_cut(net)
        # feasibility plus a matching cut is a complete optimality certificate
        assert reference.value == cut, (net.n_nodes, [(e.tail, e.head, e.cap) for e in net.edges])
        exact = solve(net, RESIDUAL)
        assert validate_flow(net, exact.assignment) == []
        assert exact.assignment.value == reference.value
        if net.n_nodes <= 4 and net.n_edges <= 4:
            assert brute_force_max_flow(net) == reference.value
            brute_checked += 1
        checked += 1
    report(
        1,
        checked > 20000,
        f"{checked} instances: solve(residual) = reference = exhaustive cut "
        f"({brute_checked} also cross-checked by full flow enumeration)",
    )


def test_criterion_2_paper_parity(sparse_sweep, dense_sweep, tmp_path):
    rows = sparse_sweep[0] + dense_sweep[0]
    divergent = [r for r in rows if r.divergence > 0]
    files = write_divergence_counterexamples(divergent, tmp_path)
    fraction_equal = 1 - len(divergent) / len(rows)
    for row in rows:
        assert row.value <= row.classical_value
    ok = len(files) == len(divergent) and fraction_equal >= 0.9
    report(
        2,
        ok,
        f"{len(rows)} instances, value parity on {fraction_equal:.1%} "
        f"(paper reports 100%); {len(divergent)} divergences, each with a "
        f"counterexample file in {tmp_path}",
    )


def test_criterion_3_episode_bounds(sparse_sweep, dense_sweep):
    rows = sparse_sweep[0] + dense_sweep[0]
    bad = [r for r in rows if r.property_violations > 0]
    for row in rows:
        assert row.max_query_timesteps <= 2 * row.n_edges + 1
        assert row.episodes <= row.n_edges
    report(
        3,
        not bad,
        f"0 violations in {len(rows)} instances (timesteps <= 2E+1, spikes <= 3E+1, "
        "single-spike wave neurons, episodes <= E)",
    )


def test_criterion_4_timing_law():
    for length in range(1, 51):
        net = FlowNetwork(
            length + 1, [(i, i + 1, 2) for i in range(length)], 0, length
        )
        oracle = NeuromorphicOracle()
        emap = EdgeNeuronMap(net, residual=False)
        build_capacity_neurons(oracle, emap)
        build_search_network(oracle, emap)
        tape, record = run_search_query(oracle, emap)
        assert tape.events[-1][0] == 2 * length, length
        assert record.timesteps == 2 * length + 1
        # saturate the source edge: the rerun must use the full horizon
        oracle.write_voltage(emap.cap_id(0), 2)
        tape, record = run_search_query(oracle, emap)
        assert len(tape.events) == 0
        assert record.timesteps == 2 * net.n_edges + 1, length
    report(4, True, "sink readout at exactly 2L for L=1..50; no-path queries take exactly 2E+1 steps")


def test_criterion_5_constant_controller_space():
    # Logspace: with X = n * c_max + m, every word the controller writes is at
    # most 2X + 1.  The words are a node id (< n), a capacity or bottleneck
    # (<= c_max), a jam-recovery step (<= 2m + 1; forward-decode mode has
    # U = m arcs), a residual hop count (<= U + 1 <= 2m + 1), a capacity
    # potential K + flow (<= 2m + 1 + c_max), and the flow value or an episode
    # count (<= (n - 1) * c_max on these simple networks, or <= m).  A word
    # w <= 2X + 1 has floor(log2 w) + 1 <= floor(log2 X) + 2 bits (2X + 1 is
    # odd, so floor(log2(2X + 1)) = floor(log2 X) + 1), which is at most
    # 2 * log2(X) once X >= 4: c = 2.
    cases = [(n, SPARSE) for n in (10, 25, 50, 75, 100)] + [(n, DENSE) for n in (20, 40)]
    peaks = set()
    widest = 0.0
    for n, suite in cases:
        from spikeflow.bench import suite_edge_count

        net = generate_random(n, suite_edge_count(suite, n), 10, seed=MASTER_SEED + n)
        log_x = math.log2(n * max(e.cap for e in net.edges) + net.n_edges)
        for mode in (PAPER_FAITHFUL, RESIDUAL):
            result = solve(net, mode)
            assert result.report.controller_wm_peak == len(_WM_WORDS) == 8, (n, suite, mode)
            assert result.wm_peak_bits <= 2 * log_x, (n, suite, mode, result.wm_peak_bits)
            peaks.add(result.report.controller_wm_peak)
            widest = max(widest, result.wm_peak_bits / log_x)
    report(
        5,
        peaks == {len(_WM_WORDS)} and len(_WM_WORDS) == 8,
        f"both modes complete in the 8-word working-memory frame up to n=100; "
        f"peak {max(peaks)} words; "
        f"widest word {widest:.2f} * log2(n*c_max + m) bits (bound 2)",
    )


def test_criterion_6_energy_scaling_trend(sparse_sweep, dense_sweep):
    sparse_summary = sparse_sweep[1]
    dense_summary = dense_sweep[1]
    slope = sparse_summary["spikes_vs_edges"]["slope"]
    exponent = dense_summary["spikes_vs_edges_loglog"]["exponent"]
    ok = 0 < slope <= 1 and 0.8 <= exponent <= 1.2
    report(
        6,
        ok,
        f"sparse spikes-per-query slope {slope:.3f} in (0,1]; dense log-log "
        f"exponent {exponent:.3f} in [0.8,1.2]",
    )


def test_criterion_7_naive_decider_equivalence():
    checked = 0
    for n in range(2, 6):
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for k in range(1, min(4, len(all_pairs)) + 1):
            for subset in itertools.combinations(all_pairs, k):
                covered = {v for uv in subset for v in uv}
                if covered != set(range(n)):
                    continue
                for caps in itertools.product((1, 2), repeat=k):
                    edges = [(u, v, c) for (u, v), c in zip(subset, caps)]
                    net = FlowNetwork(n, edges, 0, n - 1)
                    optimum = edmonds_karp(net).value
                    for d in range(4):
                        outcome = decide_naive(net, d)
                        assert outcome.accepted == (optimum > d), (edges, d)
                        if outcome.accepted:
                            assert outcome.accept_fire_time == outcome.layout.f_max + 5
                        checked += 1
    report(
        7,
        checked > 4000,
        f"{checked} (network, d) pairs: decide_naive = [max-flow > d], "
        "accept fires at exactly f_max+5",
    )


def _reduction_suite():
    def direct(t=3, e=6, acc_threshold=1):
        net = SpikingNetwork(overflow_reset=True)
        net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
        net.add_neuron(Neuron(1, acc_threshold, 0, ONE, v0=0))
        net.add_synapse(Synapse(0, 1, 1, 1))
        return ReductionConfig(net, 0, 1, t, e)

    def chain(t=4, e=8, mid=2):
        net = SpikingNetwork(overflow_reset=True)
        net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
        net.add_neuron(Neuron(2, mid, 0, ONE, v0=0))
        net.add_neuron(Neuron(1, 1, 0, ONE, v0=0))
        net.add_synapse(Synapse(0, 2, 1, 1))
        net.add_synapse(Synapse(2, 1, 1, 1))
        return ReductionConfig(net, 0, 1, t, e)

    return [
        ("direct accept", direct()),
        ("always accepting", direct(t=2, e=4)),
        ("boundary energy", direct(e=5)),
        ("energy violating", direct(e=4)),
        ("time violating", direct(acc_threshold=5)),
        ("chain accept", chain()),
        ("chain energy violating", chain(e=5)),
    ]


def test_criterion_8_reduction_biconditional():
    suite = _reduction_suite()
    accepts = rejects = 0
    for label, cfg in suite:
        verdict = verify_reduction(cfg)
        assert verdict.passed, (label, verdict.details)
        if verdict.snn_accepts:
            accepts += 1
            assert verdict.witness_valid and verdict.witness_value == 3, label
        else:
            rejects += 1
    # mutation: deleting the failure gadget flips an accepting verdict
    cfg = _reduction_suite()[0][1]
    inst = reduce_network(cfg, simulate_constrained(cfg))
    healthy, _ = check_feasible(inst)
    mutated = without_arcs(inst, touches_failure)
    broken, _ = check_feasible(mutated)
    flipped = healthy and not broken
    report(
        8,
        accepts >= 3 and rejects >= 3 and flipped,
        f"{len(suite)} configurations verified both directions "
        f"({accepts} accepting with value-3 witnesses, {rejects} rejecting); "
        "failure-gadget deletion flips the accepting verdict",
    )


def test_criterion_9_hardware_figures_excluded():
    report(
        9,
        True,
        "hardware wall-clock/energy/power figures are out of scope by design; "
        "criteria 3-6 substitute property and trend suites",
    )


def test_criterion_10_linear_oracle_space():
    # The oracle network is linear in n + m.  Per node and wave family the
    # search network costs at most in(v) + out(v) + 1 neurons and synapses: a
    # hub and one synapse per arc at the node, or in(v) * out(v) direct
    # synapses where that is no more.  Summed over nodes that is 2U + n for U
    # arcs.  Forward-decode mode (U = m, two families): 1 + 3m neurons, 2m
    # inhibitions, in(t) + out(s) <= 2m transmitter and source-edge synapses,
    # and 2(2m + n) for the waves, at most 11m + 2n + 1.  Residual mode
    # (U <= 2m, one family): 1 + 2U neurons, U inhibitions, at most U
    # transmitter synapses and 2U + n for the wave, at most 12m + n + 1.
    # Both are at most c * (n + m) with c = 12.
    c = 12
    worst = 0.0
    for n in range(5, 41, 5):
        net = generate_random(n, max_feasible_edges(n), 10, seed=MASTER_SEED + n)
        for mode in (PAPER_FAITHFUL, RESIDUAL):
            oracle = NeuromorphicOracle()
            emap = EdgeNeuronMap(net, residual=(mode == RESIDUAL))
            build_capacity_neurons(oracle, emap)
            build_search_network(oracle, emap)
            size = oracle.net.size()
            assert size <= c * (n + net.n_edges), (n, mode, size)
            worst = max(worst, size / (n + net.n_edges))
    report(
        10,
        worst <= c,
        f"dense n=5..40, both modes: oracle size <= {worst:.2f} * (n + m) (bound {c})",
    )
