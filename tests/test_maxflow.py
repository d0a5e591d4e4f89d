from collections import Counter

import pytest

import spikeflow.bench as bench
import spikeflow.maxflow as maxflow
import spikeflow.oracle
from flow_oracles import brute_force_max_flow
from search_reference import build_direct_search_network
from spikeflow.errors import WorkingMemoryExceeded
from spikeflow.flow import (
    Edge,
    FlowAssignment,
    FlowNetwork,
    edmonds_karp,
    generate_random,
    max_feasible_edges,
    validate_flow,
)
from spikeflow.maxflow import (
    PAPER_FAITHFUL,
    RESIDUAL,
    DecodeJamError,
    EdgeNeuronMap,
    PathRecord,
    SolveResult,
    build_capacity_neurons,
    build_search_network,
    decode_path,
    run_search_query,
    solve,
    verify_episode_properties,
)
from spikeflow.naive import decide_naive
from spikeflow.oracle import ConsultRecord, NeuromorphicOracle, OutputTape, ResourceReport, WorkingMemory
from spikeflow.snn import Role, run


def net_from(edges, n, sink=None):
    return FlowNetwork(n, edges, source=0, sink=n - 1 if sink is None else sink)


def chain_net(caps=(3, 5)):
    edges = [(i, i + 1, c) for i, c in enumerate(caps)]
    return net_from(edges, len(caps) + 1)


def diamond_net(c=1):
    return net_from([(0, 1, c), (0, 2, c), (1, 3, c), (2, 3, c)], 4)


def trap_net():
    return net_from(
        [(0, 1, 1), (0, 3, 1), (1, 2, 1), (1, 4, 1), (2, 5, 1), (3, 2, 1), (4, 5, 1)],
        6,
    )


def jam_net():
    # Greedy tape decoding walks 0->1->2->3 and then finds node 3's
    # continuation behind its cursor (it fired earlier via the 0->3 branch).
    return net_from(
        [(0, 1, 1), (0, 3, 1), (1, 2, 1), (1, 4, 1), (2, 3, 1), (3, 4, 2), (4, 5, 2)],
        6,
    )


def build_oracle(net, mode=PAPER_FAITHFUL):
    oracle = NeuromorphicOracle()
    emap = EdgeNeuronMap(net, residual=(mode == RESIDUAL))
    build_capacity_neurons(oracle, emap)
    build_search_network(oracle, emap)
    return oracle, emap


def test_capacity_neuron_parameters():
    # four edges: offset K=5, so capacity 3 means threshold 8 resting at 5
    net = net_from([(0, 1, 3), (0, 2, 1), (1, 3, 2), (2, 3, 1)], 4)
    oracle, emap = build_oracle(net)
    assert emap.K == 5
    cid = emap.cap_id(0)
    assert oracle.threshold_of(cid) == 8
    assert oracle.read_voltage(cid) == 5
    oracle.write_voltage(cid, 3)
    assert oracle.read_voltage(cid) == 8  # saturated exactly at threshold


def test_single_edge_capacity_saturates_with_one_unit():
    net = net_from([(0, 1, 1)], 2)
    oracle, emap = build_oracle(net)
    assert emap.K == 2
    cid = emap.cap_id(0)
    assert oracle.threshold_of(cid) == 3
    assert oracle.read_voltage(cid) == 2
    oracle.write_voltage(cid, 1)
    tape, record = run_search_query(oracle, emap)
    assert tape.events == []
    assert record.timesteps == 2 * 1 + 1
    # the saturated capacity fired at step 0, beside the transmitter
    fresh = run(oracle.net, record.timesteps, initial_potentials={cid: oracle.read_voltage(cid)})
    assert (0, cid) in fresh.trace
    assert record.spikes == len(fresh.trace) == 2


def test_chain_search_network_shape():
    net = chain_net()
    oracle, emap = build_oracle(net)
    snn = oracle.net
    assert snn.neurons[emap.search_id(0)].threshold == 1 + emap.K
    assert snn.neurons[emap.search_id(0)].v0 == emap.K
    pairs = {
        (s.pre, s.post, s.delay, s.weight)
        for syns in snn.out_synapses.values()
        for s in syns
    }
    assert (emap.transmitter_id, emap.search_id(1), 1, 1) in pairs  # T -> sink edge
    assert (emap.search_id(1), emap.search_id(0), 1, 1) in pairs    # reversed wave
    assert (emap.search_id(0), emap.readout_id(0), 1, 1) in pairs   # source bridge
    assert (emap.readout_id(0), emap.readout_id(1), 1, 1) in pairs  # forward readout
    assert (emap.cap_id(0), emap.search_id(0), 0, -emap.K) in pairs
    assert (emap.cap_id(1), emap.readout_id(1), 0, -emap.K) in pairs


def test_chain_query_tape_and_timing():
    net = chain_net()
    oracle, emap = build_oracle(net)
    tape, record = run_search_query(oracle, emap)
    assert tape.events == [(3, emap.readout_id(0)), (4, emap.readout_id(1))]
    assert record.timesteps == 5  # stops at t=4, exactly 2L+1 steps for L=2
    assert record.spikes == 5


def test_chain_decode_and_min_cap():
    net = chain_net(caps=(3, 5))
    oracle, emap = build_oracle(net)
    wm = WorkingMemory(maxflow._WM_WORDS, oracle.report)
    tape, _ = run_search_query(oracle, emap)
    path = decode_path(tape, emap, oracle, wm)
    assert path is not None
    assert [a.id for a in path.arcs] == [0, 1]
    assert path.min_cap == 3


def test_empty_tape_decodes_to_none():
    net = chain_net()
    oracle, emap = build_oracle(net)
    wm = WorkingMemory(maxflow._WM_WORDS, oracle.report)
    assert decode_path(OutputTape([], oracle.report), emap, oracle, wm) is None


def test_diamond_wave_symmetry_and_tie_break():
    net = diamond_net()
    oracle, emap = build_oracle(net)
    wm = WorkingMemory(maxflow._WM_WORDS, oracle.report)
    tape, record = run_search_query(oracle, emap)
    # both sink-edge search neurons fire together at t=1
    fresh = run(oracle.net, emap.query_time_limit(), stop_on_fire=emap.sink_readout_ids)
    assert (1, emap.search_id(2)) in fresh.trace
    assert (1, emap.search_id(3)) in fresh.trace
    assert (record.spikes, record.stop_step) == (len(fresh.trace), fresh.t)
    path = decode_path(tape, emap, oracle, wm)
    assert [a.id for a in path.arcs] == [0, 2]  # the lower-id branch


def test_chain_solve_full_loop():
    result = solve(chain_net(caps=(3, 5)), PAPER_FAITHFUL)
    assert result.assignment.value == 3
    assert result.assignment.flows == {0: 3, 1: 3}
    assert result.episodes == 1
    assert result.total_consults == 2  # one path query plus one empty query
    assert result.voltage_sum == (3 + 3) + (3 + 3)  # K + f per edge


def test_diamond_solve_both_modes():
    for mode in (PAPER_FAITHFUL, RESIDUAL):
        result = solve(diamond_net(), mode)
        assert result.assignment.value == 2, mode
        assert validate_flow(diamond_net(), result.assignment) == []


def test_trap_graph_divergence_witness():
    net = trap_net()
    assert brute_force_max_flow(net) == 2
    faithful = solve(net, PAPER_FAITHFUL)
    # forward-only greedy augments through a->b->t and then finds nothing
    assert faithful.assignment.value == 1
    assert validate_flow(net, faithful.assignment) == []
    exact = solve(net, RESIDUAL)
    assert exact.assignment.value == 2
    assert validate_flow(net, exact.assignment) == []


def test_residual_uses_reverse_arc_on_trap_graph():
    net = trap_net()
    result = solve(net, RESIDUAL)
    # flow on a->b (edge 2) was pushed then cancelled
    assert result.assignment.flows[2] == 0
    assert result.assignment.flows[3] == 1  # a->e carries the rerouted unit


def test_residual_offset_covers_capacities_above_two_m_plus_one():
    # A mirror capacity neuron rests at K minus its forward arc's flow, so
    # residual mode's offset K must reach the largest capacity.
    for net, value in ((chain_net((100, 100, 100)), 100), (generate_random(12, 18, c_max=500, seed=12), 131)):
        assert EdgeNeuronMap(net, residual=True).K == max(e.cap for e in net.edges) > 2 * net.n_edges + 1
        result = solve(net, RESIDUAL)
        assert result.assignment.value == edmonds_karp(net).value == value
        assert validate_flow(net, result.assignment) == []


def test_decode_jam_is_detected_and_recovered():
    net = jam_net()
    oracle, emap = build_oracle(net)
    wm = WorkingMemory(maxflow._WM_WORDS, oracle.report)
    tape, _ = run_search_query(oracle, emap)
    with pytest.raises(DecodeJamError):
        decode_path(tape, emap, oracle, wm)

    # solve falls back to backward chaining over re-consultations
    faithful = solve(net, PAPER_FAITHFUL)
    assert faithful.decode_jams == 1
    assert validate_flow(net, faithful.assignment) == []
    assert faithful.assignment.value == 2

    exact = solve(net, RESIDUAL)
    assert exact.assignment.value == brute_force_max_flow(net) == 2


def test_only_the_first_consultation_after_a_write_simulates(monkeypatch):
    # The oracle runs a network version afresh only when its saved run cannot
    # decide a consultation.  solve never needs that: a query and its jam
    # recovery share one stop set, and each residual descent hop stops
    # strictly earlier in the trace than the hop before it.
    counts, fresh = Counter(), set()

    def counting_run(*args, **kwargs):
        counts["runs"] += 1
        return run(*args, **kwargs)

    def writing(method):
        def write(self, *args):
            fresh.add(self)
            return method(self, *args)

        return write

    def consulting(method):
        def consult(self, *args, **kwargs):
            if self in fresh:
                fresh.discard(self)
                counts["firsts"] += 1
            return method(self, *args, **kwargs)

        return consult

    monkeypatch.setattr(spikeflow.oracle, "run", counting_run)
    for name in ("write_neurons", "write_synapses", "write_schedule", "write_voltage"):
        monkeypatch.setattr(NeuromorphicOracle, name, writing(getattr(NeuromorphicOracle, name)))
    monkeypatch.setattr(NeuromorphicOracle, "consult", consulting(NeuromorphicOracle.consult))

    dense = generate_random(8, bench.suite_edge_count(bench.DENSE, 8), c_max=4, seed=3)
    sparse = generate_random(20, bench.suite_edge_count(bench.SPARSE, 20), c_max=4, seed=7)
    for net in (jam_net(), dense, sparse):
        for mode in (PAPER_FAITHFUL, RESIDUAL):
            counts.clear()
            result = solve(net, mode)
            assert counts["runs"] == counts["firsts"] == result.episodes + 1
            # residual hops and jam recoveries are consultations served from a saved run
            if mode is RESIDUAL or result.decode_jams:
                assert result.total_consults > counts["runs"]
    for d in range(3):
        counts.clear()
        decision = decide_naive(diamond_net(), d)
        assert counts["runs"] == counts["firsts"] == len(decision.report.consultations) == 1


def _consultations(net, mode, build, monkeypatch):
    """Solve with ``build`` as the search-network builder; return the result
    and every consultation's tape events, steps, stop step and repeats."""
    seen = []
    real_consult = NeuromorphicOracle.consult

    def consult(self, *args, **kwargs):
        tape, record = real_consult(self, *args, **kwargs)
        seen.append((list(tape.events), record.timesteps, record.stop_step, record.repeat_spikes))
        return tape, record

    with monkeypatch.context() as patch:
        patch.setattr(NeuromorphicOracle, "consult", consult)
        patch.setattr(maxflow, "build_search_network", build)
        result = solve(net, mode)
    return result, seen


@pytest.mark.parametrize("mode", [PAPER_FAITHFUL, RESIDUAL])
def test_hub_wiring_fires_like_direct_wiring(mode, monkeypatch):
    nets = [generate_random(n, max_feasible_edges(n), 10, seed) for n in range(5, 31, 5) for seed in (1, 2)]
    nets += [generate_random(n, n * 7 // 5, 10, seed) for n in range(10, 61, 10) for seed in (1, 2)]
    hubs_used = 0
    for net in nets:
        hub, hub_seen = _consultations(net, mode, build_search_network, monkeypatch)
        direct, direct_seen = _consultations(net, mode, build_direct_search_network, monkeypatch)
        assert hub_seen == direct_seen
        assert hub.assignment.flows == direct.assignment.flows
        assert (hub.episodes, hub.decode_jams) == (direct.episodes, direct.decode_jams)
        assert all(repeats == 0 for *_, repeats in hub_seen)
        hubs_used += hub.report.oracle_space < direct.report.oracle_space
    assert hubs_used > len(nets) // 2


def test_arc_table_is_a_flow_network():
    net = generate_random(8, 16, c_max=5, seed=4)
    reversible = [e for e in net.edges if e.tail != net.source and e.head != net.sink]
    assert 0 < len(reversible) < net.n_edges

    # paper-faithful: the instance's own edges and edge lists
    emap = EdgeNeuronMap(net, residual=False)
    assert emap.arcs is net.edges
    assert (emap.arcs_by_tail, emap.arcs_by_head) == (net.out_edges, net.in_edges)
    assert emap.n_arcs == net.n_edges
    assert emap.mirror == [None] * net.n_edges

    # residual: the edges, then one capacity-0 companion per edge that neither
    # leaves the source nor enters the sink, numbered on in edge order
    emap = EdgeNeuronMap(net, residual=True)
    m = net.n_edges
    assert emap.arcs[:m] == net.edges
    companions = emap.arcs[m:]
    assert companions == [Edge(m + k, e.head, e.tail, 0) for k, e in enumerate(reversible)]
    assert emap.n_arcs == m + len(reversible)
    assert [e.id for e in net.edges if emap.mirror[e.id] is not None] == [e.id for e in reversible]
    for a, e in zip(companions, reversible):
        assert (emap.mirror[e.id], emap.mirror[a.id]) == (a.id, e.id)
    for v in range(net.n_nodes):
        assert emap.arcs_by_tail[v] == [a for a in emap.arcs if a.tail == v]
        assert emap.arcs_by_head[v] == [a for a in emap.arcs if a.head == v]


def test_path_record_invariants():
    with pytest.raises(Exception):
        PathRecord([], 1)
    a = Edge(0, 0, 1, 1)
    b = Edge(1, 2, 3, 1)  # does not chain after a
    with pytest.raises(Exception):
        PathRecord([a, b], 1)
    with pytest.raises(Exception):
        PathRecord([a], 0)


def test_all_arcs_chain_stops_one_step_before_its_limit(monkeypatch):
    # the only path uses every arc, so its sink readout fires at 2U = limit - 1
    # and the record's timesteps equal those of a run that finds no path
    net = chain_net(caps=(3, 1, 4, 2))
    oracle, emap = build_oracle(net)
    _, found = run_search_query(oracle, emap)
    limit = emap.query_time_limit()
    assert found.stop_step == limit - 1 == 2 * net.n_edges
    assert found.timesteps == limit
    oracle.write_voltage(emap.cap_id(1), 1)  # saturate the bottleneck
    _, none = run_search_query(oracle, emap)
    assert none.stop_step is None and none.timesteps == limit

    monkeypatch.setattr(bench, "generate_random", lambda *args: net)
    row = bench.run_instance(bench.BenchConfig(sizes=[5], samples=1), 5, 0)
    assert row.episodes == 1
    assert row.mean_augmenting_path_len == net.n_edges


def _planted(mode, records, episodes=0):
    return SolveResult(
        assignment=FlowAssignment({}, 0), report=ResourceReport(consultations=records), mode=mode,
        episodes=episodes, decode_jams=0, voltage_sum=0,
    )


def test_verify_episode_properties_reports_planted_violations():
    # three edges: horizon 7, at most 10 spikes and 3 episodes; residual mode
    # adds a reverse companion for the middle edge, so its horizon is 9
    net = chain_net(caps=(3, 5, 2))
    fine = ConsultRecord("transducer", timesteps=7, spikes=10, network_size=0, stop_step=6)
    assert verify_episode_properties(net, _planted(PAPER_FAITHFUL, [fine], episodes=3)) == []

    repeated = ConsultRecord("transducer", 7, 5, 0, repeat_spikes=2)
    too_long = ConsultRecord("transducer", 8, 5, 0)
    too_many = ConsultRecord("transducer", 7, 11, 0)
    planted = [fine, repeated, too_long, too_many]
    assert verify_episode_properties(net, _planted(PAPER_FAITHFUL, planted, episodes=4)) == [
        "query 1: 2 repeated wave-neuron spikes",
        "query 2: 8 steps > 7",
        "query 3: 11 spikes > 10",
        "4 augmenting episodes > 3 edges",
    ]
    # residual mode has no spike or episode ceiling
    assert verify_episode_properties(net, _planted(RESIDUAL, planted, episodes=4)) == [
        "query 1: 2 repeated wave-neuron spikes",
    ]


def test_verify_episode_properties_horizon_is_the_query_time_limit():
    # the horizon is counted without building the arc table; it must be the
    # map's 2 * arcs + 1 in both modes, companions included
    nets = [chain_net(caps=(3, 5, 2))] + [generate_random(n, 2 * n, 5, seed=n) for n in (6, 9, 12)]
    for net in nets:
        for mode in (PAPER_FAITHFUL, RESIDUAL):
            limit = EdgeNeuronMap(net, residual=(mode == RESIDUAL)).query_time_limit()
            at, past = (ConsultRecord("transducer", steps, 0, 0) for steps in (limit, limit + 1))
            assert verify_episode_properties(net, _planted(mode, [at, past])) == [
                f"query 1: {limit + 1} steps > {limit}"
            ]


def test_timing_law_on_chains():
    for length in (1, 2, 3, 5, 8):
        net = chain_net(caps=tuple([2] * length))
        oracle, emap = build_oracle(net)
        tape, record = run_search_query(oracle, emap)
        assert tape.events[-1] == (2 * length, emap.readout_id(length - 1))
        assert record.timesteps == 2 * length + 1  # equality: the graph is one chain


def test_no_path_query_runs_exactly_full_horizon():
    net = chain_net(caps=(1, 1))
    oracle, emap = build_oracle(net)
    oracle.write_voltage(emap.cap_id(0), 1)  # saturate the source edge
    tape, record = run_search_query(oracle, emap)
    assert tape.events == []
    assert record.timesteps == 2 * net.n_edges + 1


def test_episode_properties_on_random_instances():
    for seed in range(6):
        net = generate_random(7, 12, c_max=4, seed=seed)
        result = solve(net, PAPER_FAITHFUL)
        assert result.episodes <= net.n_edges
        m = net.n_edges
        for rec in result.query_records:
            assert rec.timesteps <= 2 * m + 1
            assert rec.spikes <= 3 * m + 1
            # only wave neurons can spike twice: the others have no inputs
            assert rec.repeat_spikes == 0
        # reference equality for the exact mode
        exact = solve(net, RESIDUAL)
        assert exact.assignment.value == edmonds_karp(net).value
        assert validate_flow(net, exact.assignment) == []


def disconnected_net():
    # the source's only edge leads away from the sink: max-flow 0, so no
    # augmenting episode ever runs and no flow update is ever applied
    return net_from([(0, 1, 2), (2, 3, 2)], 4)


def test_working_memory_peak_independent_of_input_size():
    peaks = set()
    nets = [generate_random(n, m, c_max=5, seed=n) for n, m in ((4, 5), (8, 11), (12, 18))]
    nets.append(disconnected_net())
    for net in nets:
        for mode in (PAPER_FAITHFUL, RESIDUAL):
            peaks.add(solve(net, mode).report.controller_wm_peak)
    assert peaks == {len(maxflow._WM_WORDS)}


@pytest.mark.parametrize("mode", [PAPER_FAITHFUL, RESIDUAL])
def test_working_memory_frame_is_eight_words_even_at_zero_flow(mode, monkeypatch):
    net = disconnected_net()
    assert edmonds_karp(net).value == 0
    assert solve(net, mode).report.controller_wm_peak == 8
    monkeypatch.setattr(maxflow, "_WM_WORDS", maxflow._WM_WORDS[:7])
    with pytest.raises(WorkingMemoryExceeded):
        solve(net, mode)


def test_controller_time_regression_window_on_chain():
    # golden regression corridor for the metered op count of the 2-edge chain
    result = solve(chain_net(caps=(3, 5)), PAPER_FAITHFUL)
    assert 20 <= result.report.controller_time <= 200


def test_solve_result_json_schema():
    result = solve(chain_net(), PAPER_FAITHFUL)
    data = result.to_dict()
    assert set(data) == {
        "mode",
        "value",
        "flows",
        "episodes",
        "total_consults",
        "decode_jams",
        "capacity_voltage_sum",
        "report",
    }
    assert data["value"] == 3
    assert data["report"]["controller_wm_peak"] <= 8


def test_search_neurons_are_readouts_only_in_residual_mode():
    net = chain_net()
    oracle, emap = build_oracle(net, RESIDUAL)
    assert oracle.net.neurons[emap.search_id(0)].role is Role.READOUT
    oracle2, emap2 = build_oracle(net, PAPER_FAITHFUL)
    assert oracle2.net.neurons[emap2.search_id(0)].role is Role.STANDARD
    assert oracle2.net.neurons[emap2.readout_id(0)].role is Role.READOUT
