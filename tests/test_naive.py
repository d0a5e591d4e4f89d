import itertools

import pytest

from spikeflow.errors import GuardExceeded
from spikeflow.flow import FlowNetwork, edmonds_karp
from spikeflow.maxflow import EdgeNeuronMap, PAPER_FAITHFUL, solve
from spikeflow.naive import (
    add_conservation_subnet,
    build_decider,
    decide_naive,
    enumerate_candidates,
)
from spikeflow.oracle import NeuromorphicOracle
from spikeflow.snn import Neuron, Role

from fractions import Fraction

ONE = Fraction(1)


def probe_subnet(flow_in, flow_out, horizon=12):
    """Run one conservation detector in isolation and return its spike times."""
    neurons = [(0, 1, 1, ONE, 1, Role.INPUT)]
    synapses = []
    out = add_conservation_subnet(neurons, synapses, 0, flow_in, flow_out)
    # re-declare the detector output as a readout so it lands on the tape
    probe = len(neurons)
    neurons.append(Neuron(probe, 1, 0, ONE, v0=0, role=Role.READOUT))
    synapses.append((out, probe, 0, 1))
    oracle = NeuromorphicOracle()
    oracle.write_neurons(neurons)
    oracle.write_synapses(synapses)
    tape, _ = oracle.consult(time_limit=horizon)
    return [t for t, _ in tape.events]


def test_detector_silent_on_equal_flows():
    assert probe_subnet(2, 2) == []
    assert probe_subnet(0, 0) == []


def test_detector_fires_at_min_plus_two():
    assert probe_subnet(1, 3) == [3]
    assert probe_subnet(3, 1) == [3]
    assert probe_subnet(2, 5) == [4]


def test_detector_zero_flow_offset():
    assert probe_subnet(0, 1) == [2]
    assert probe_subnet(1, 0) == [2]


def test_candidate_enumeration_order_and_filter():
    net = FlowNetwork(3, [(0, 1, 1), (1, 2, 1)], 0, 2)
    cands = list(enumerate_candidates(net, 0))
    assert cands == [(1, 0), (1, 1)]  # lexicographic, source outflow > 0
    assert list(enumerate_candidates(net, 1)) == []


def test_single_edge_accept_and_reject():
    net = FlowNetwork(2, [(0, 1, 1)], 0, 1)
    yes = decide_naive(net, 0)
    assert yes.accepted
    assert yes.accept_fire_time == yes.layout.f_max + 5 == 6
    no = decide_naive(net, 1)
    assert not no.accepted
    assert no.layout.n_candidates == 0  # outflow > 1 is impossible
    assert no.accept_fire_time is None


def test_two_edge_path_accepts_via_conservation():
    net = FlowNetwork(3, [(0, 1, 1), (1, 2, 1)], 0, 2)
    out = decide_naive(net, 0)
    assert out.accepted
    assert out.accept_fire_time == out.layout.f_max + 5
    assert not decide_naive(net, 1).accepted


def test_broken_conservation_rejects():
    # source pushes up to 2 but only 1 unit can ever leave node 1
    net = FlowNetwork(3, [(0, 1, 2), (1, 2, 1)], 0, 2)
    assert decide_naive(net, 0).accepted
    assert not decide_naive(net, 1).accepted


def test_exhaustive_equivalence_small():
    # every all-node-covering edge subset on up to 4 nodes, caps in {1,2}
    for n in (2, 3, 4):
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for k in range(1, min(3, len(all_pairs)) + 1):
            for subset in itertools.combinations(all_pairs, k):
                covered = {v for uv in subset for v in uv}
                if covered != set(range(n)):
                    continue
                for caps in itertools.product((1, 2), repeat=k):
                    edges = [(u, v, c) for (u, v), c in zip(subset, caps)]
                    net = FlowNetwork(n, edges, 0, n - 1)
                    optimum = edmonds_karp(net).value
                    for d in range(4):
                        out = decide_naive(net, d)
                        assert out.accepted == (optimum > d), (edges, d)
                        if out.accepted:
                            assert out.accept_fire_time == out.layout.f_max + 5


def test_reject_never_fires_accept():
    net = FlowNetwork(3, [(0, 1, 2), (1, 2, 1)], 0, 2)
    out = decide_naive(net, 2)
    assert not out.accepted
    assert out.accept_fire_time is None


def test_resource_blowup_vs_interactive_solver():
    net = FlowNetwork(4, [(0, 1, 2), (0, 2, 2), (1, 3, 2), (2, 3, 2)], 0, 3)
    naive = decide_naive(net, 0)
    assert naive.layout.n_candidates >= 2
    assert naive.layout.n_neurons >= naive.layout.n_candidates * naive.layout.n_interior
    interactive = solve(net, PAPER_FAITHFUL)
    emap = EdgeNeuronMap(net, residual=False)
    interactive_neurons = 3 * emap.n_arcs + 1
    assert naive.layout.n_neurons > interactive_neurons
    assert naive.report.oracle_space > interactive.report.oracle_space
    # pre-processing model: exactly one consultation
    assert len(naive.report.consultations) == 1


def test_guard_rejects_large_instances():
    edges = [(0, i, 9) for i in range(1, 6)] + [(i, 6, 9) for i in range(1, 6)]
    net = FlowNetwork(7, edges, 0, 6)
    with pytest.raises(GuardExceeded):
        decide_naive(net, 0)
    oracle = NeuromorphicOracle()
    with pytest.raises(GuardExceeded):
        build_decider(net, 0, oracle)


def test_accept_waits_out_the_slowest_violation_detector():
    # node 1 can take in 8 and pass on 6, so a candidate that breaks its
    # conservation may be reported only at step 6 + 2; the accept schedule
    # must wait past that, beyond f_max + 5 = 8
    net = FlowNetwork(3, [(0, 1, 3), (1, 2, 1), (0, 1, 2), (0, 1, 3), (1, 2, 3), (1, 2, 2)], 0, 2)
    optimum = edmonds_karp(net).value
    assert optimum == 6
    for d in range(8):
        out = decide_naive(net, d)
        assert out.layout.accept_time == 10, d
        assert out.accepted == (optimum > d), d
