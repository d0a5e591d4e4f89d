import gc
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeflow import tnfr
from spikeflow.errors import GuardExceeded, ParseError, SearchBudgetExceeded
from spikeflow.snn import Neuron, Role, SpikingNetwork, Synapse
from spikeflow.tnfr import (
    MAX_DOMAIN,
    ReductionConfig,
    TNFRInstance,
    check_feasible,
    format_tnfr,
    format_witness_csv,
    parse_tnfr,
    reduce_network,
    simulate_constrained,
    validate_witness,
    verify_reduction,
    witness_value,
)
import snn_reference as ref
from tnfr_oracles import enumerate_feasible_naive, touches_failure, without_arcs

ONE = Fraction(1)


def single_arc(c_min, c_max, d):
    inst = TNFRInstance(d=d)
    inst.add_node("s", "s")
    inst.add_node("t", "t")
    inst.add_arcs([("s", "t", c_min, c_max)])
    return inst


def make_cfg(t=3, e=6, acc_threshold=1):
    """Constant drives the accept neuron directly with a one-step delay."""
    net = SpikingNetwork(overflow_reset=True)
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    net.add_neuron(Neuron(1, acc_threshold, 0, ONE, v0=0))
    net.add_synapse(Synapse(0, 1, 1, 1))
    return ReductionConfig(net, constant_id=0, accept_id=1, time_bound=t, energy_bound=e)


def chain_cfg(t=4, e=8, mid_threshold=2):
    """Constant -> interior neuron -> accept, all unit weights."""
    net = SpikingNetwork(overflow_reset=True)
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    net.add_neuron(Neuron(2, mid_threshold, 0, ONE, v0=0))
    net.add_neuron(Neuron(1, 1, 0, ONE, v0=0))
    net.add_synapse(Synapse(0, 2, 1, 1))
    net.add_synapse(Synapse(2, 1, 1, 1))
    return ReductionConfig(net, constant_id=0, accept_id=1, time_bound=t, energy_bound=e)


# --- feasibility checker -----------------------------------------------------


def test_single_arc_threshold_semantics():
    yes, witness = check_feasible(single_arc(0, 3, 2))
    assert yes and witness_value(single_arc(0, 3, 2), witness) == 3

    # flow on a [5,5] arc is all-or-nothing
    yes, witness = check_feasible(single_arc(5, 5, 2))
    assert yes
    assert witness[0] == 5
    no, _ = check_feasible(single_arc(5, 5, 7))
    assert not no

    # the gap below c_min is unusable
    no, _ = check_feasible(single_arc(5, 5, 4))
    assert no  # 5 > 4 still
    no, _ = check_feasible(single_arc(4, 4, 4))
    assert not no


@pytest.mark.parametrize(
    "row,message",
    [
        (("s", "y", 0, 1), "arc ('s','y') references unknown node"),
        (("s", "x", 2, 1), "bad capacity interval [2,1]"),
        (("s", "x", -1, 1), "bad capacity interval [-1,1]"),
        (("x", "s", 0, 1), "master source must have no incoming arcs"),
        (("t", "x", 0, 1), "master sink must have no outgoing arcs"),
    ],
)
def test_add_arcs_rejects_a_bad_row_after_adding_the_rows_before_it(row, message):
    inst = TNFRInstance(d=0)
    for name, kind in (("s", "s"), ("x", "plain"), ("t", "t")):
        inst.add_node(name, kind)
    with pytest.raises(ValueError) as exc:
        inst.add_arcs([("s", "x", 0, 1), row, ("x", "t", 0, 1)])
    assert str(exc.value) == message
    assert inst.arcs == [("s", "x", 0, 1)]  # the bad row's index is len(inst.arcs)


def test_chain_with_incompatible_thresholds():
    inst = TNFRInstance(d=2)
    inst.add_node("s", "s")
    inst.add_node("x")
    inst.add_node("t", "t")
    inst.add_arcs([("s", "x", 2, 2), ("x", "t", 3, 3)])
    feasible, _ = check_feasible(inst)
    assert not feasible  # conservation at x forces both to zero


def test_reservoirs_are_conservation_exempt():
    inst = TNFRInstance(d=0)
    inst.add_node("s", "s")
    inst.add_node("x")
    inst.add_node("t", "t")
    inst.add_node("r", "r")
    inst.add_arcs([("s", "x", 0, 2), ("x", "t", 0, 1), ("x", "r", 0, 5)])
    yes, witness = check_feasible(inst)
    assert yes
    assert validate_witness(inst, witness) == []


def test_threshold_break_names_the_arc_by_its_endpoints():
    inst = parse_tnfr("p tnfr 3 2 0\nn 1 s\nn 3 t\na 1 2 1 2\na 2 3 0 5\n")
    assert validate_witness(inst, {0: 5, 1: 5}) == ["arc 0 (1 -> 2): flow 5 outside {0} u [1,2]"]


def test_conservation_break_names_the_node():
    inst = parse_tnfr("p tnfr 3 2 0\nn 1 s\nn 2 t\na 1 3 0 1\na 3 2 0 1\n")
    assert validate_witness(inst, {0: 1, 1: 0}) == ["node 3: 1 in != 0 out"]


def test_flow_on_an_id_that_names_no_arc_is_reported():
    inst = parse_tnfr("p tnfr 2 1 0\nn 1 s\nn 2 t\na 1 2 1 1\n")
    assert validate_witness(inst, {0: 1}) == []
    assert validate_witness(inst, {0: 1, 5: 9}) == ["flow 9 on unknown arc 5"]


def test_checker_agrees_with_naive_enumeration():
    import itertools
    import random

    rng = random.Random(7)
    for trial in range(40):
        inst = TNFRInstance(d=rng.randint(0, 3))
        names = ["s", "a", "b", "t", "r1", "p1"]
        inst.add_node("s", "s")
        inst.add_node("a")
        inst.add_node("b")
        inst.add_node("t", "t")
        inst.add_node("r1", "r")
        inst.add_node("p1", "p")
        n_arcs = rng.randint(2, 6)
        legal_tails = ["s", "a", "b", "p1"]
        legal_heads = ["a", "b", "t", "r1"]
        for _ in range(n_arcs):
            u = rng.choice(legal_tails)
            v = rng.choice(legal_heads)  # a self-loop on a or b too
            lo = rng.randint(0, 2)
            hi = rng.randint(lo, 3)
            inst.add_arcs([(u, v, lo, hi)])
        want = enumerate_feasible_naive(inst)
        got, witness = check_feasible(inst)
        assert got == want, format_tnfr(inst)
        if got:
            assert validate_witness(inst, witness) == []
            assert witness_value(inst, witness) > inst.d


def test_rejecting_search_leaves_no_garbage_cycle():
    # the criterion 8 configuration constant -> accept, t = 3, e = 4: five spikes reject
    cfg = make_cfg(e=4)
    inst = reduce_network(cfg, simulate_constrained(cfg))
    gc.collect()
    gc.disable()
    try:
        assert check_feasible(inst) == (False, None)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_checker_guards():
    with pytest.raises(GuardExceeded):
        check_feasible(single_arc(0, 1000, 0))
    hard = TNFRInstance(d=0)
    hard.add_node("s", "s")
    hard.add_node("t", "t")
    hard.add_node("x")
    hard.add_arcs([("s", "x", 0, 3), ("x", "t", 0, 3)])
    with pytest.raises(SearchBudgetExceeded):
        check_feasible(hard, budget=1)
    with pytest.raises(GuardExceeded, match="arc 0 domain too large"):
        check_feasible(single_arc(0, 200, 0))
    assert check_feasible(single_arc(0, MAX_DOMAIN - 2, 0))[0]


def test_checker_tables_cover_only_the_nodes_arcs_name():
    # one arc among 10**5 declared nodes: per-node tables over every declared
    # node peaked at about 34 MiB here
    inst = single_arc(1, 1, 0)
    for i in range(10**5):
        inst.add_node(f"x{i}")
    tracemalloc.start()
    try:
        assert check_feasible(inst) == (True, {0: 1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _kahn_arc_order(inst):
    """Arcs by the tail's and then the head's rank in Kahn's algorithm over
    every declared node, started and tie-broken in ``kinds`` order, then by
    index; on a cycle a node's rank is its ``kinds`` position."""
    indegree = dict.fromkeys(inst.kinds, 0)
    for _, head, _, _ in inst.arcs:
        indegree[head] += 1
    ready = [n for n, deg in indegree.items() if deg == 0]
    rank = {}
    for n in ready:  # the list grows as heads reach in-degree 0
        rank[n] = len(rank)
        for tail, head, _, _ in inst.arcs:
            if tail == n:
                indegree[head] -= 1
                if indegree[head] == 0:
                    ready.append(head)
    if len(rank) < len(inst.kinds):
        rank = {n: i for i, n in enumerate(inst.kinds)}
    return sorted(range(len(inst.arcs)), key=lambda i: (rank[inst.arcs[i][0]], rank[inst.arcs[i][1]], i))


@pytest.mark.parametrize("cyclic", [False, True])
def test_isolated_nodes_change_no_arc_order(cyclic):
    """Nodes no arc names take no rank, and the named ones keep their
    ``kinds`` order among ties: the search order is Kahn's over every
    declared node, with or without idle nodes, and so is the answer."""
    rng = random.Random(11)
    for _ in range(30):
        arcs = [
            (rng.choice("sabc"), rng.choice("abct"), rng.randint(0, 1), rng.randint(1, 2))
            for _ in range(rng.randint(1, 6))
        ]
        if cyclic:
            arcs += [("a", "b", 0, 1), ("b", "a", 0, 1)]
        plain, padded = TNFRInstance(d=1), TNFRInstance(d=1)
        for name, kind in (("s", "s"), ("a", "plain"), ("b", "plain"), ("c", "plain"), ("t", "t")):
            plain.add_node(name, kind)
            padded.add_node(f"idle:{name}")
            padded.add_node(name, kind)
        for inst in (plain, padded):
            inst.add_arcs(arcs)
        for inst in (plain, padded):
            assert tnfr._topological_arc_order(inst) == _kahn_arc_order(inst), arcs
        assert check_feasible(padded) == check_feasible(plain), arcs


# --- the reduction -----------------------------------------------------------


def test_assumption_validation():
    net = SpikingNetwork(overflow_reset=False)
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    net.add_neuron(Neuron(1, 1, 0, ONE, v0=0))
    cfg = ReductionConfig(net, 0, 1, 2, 2)
    with pytest.raises(ValueError, match="assumption 5"):
        cfg.validate()

    net = SpikingNetwork(overflow_reset=True)
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    net.add_neuron(Neuron(1, 1, 0, Fraction(0), v0=0))
    with pytest.raises(ValueError, match="assumption 4"):
        ReductionConfig(net, 0, 1, 2, 2).validate()

    net = SpikingNetwork(overflow_reset=True)
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    net.add_neuron(Neuron(1, 1, 0, ONE, v0=0))
    net.add_synapse(Synapse(0, 1, 0, 1))  # zero delay cannot be unrolled
    with pytest.raises(ValueError, match="assumption 3"):
        ReductionConfig(net, 0, 1, 2, 2).validate()

    net = SpikingNetwork(overflow_reset=True)
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    net.add_neuron(Neuron(1, 1, 0, ONE, v0=0))
    net.add_synapse(Synapse(1, 0, 1, 1))  # feeds the constant input
    with pytest.raises(ValueError, match="assumption 2"):
        ReductionConfig(net, 0, 1, 2, 2).validate()

    # the constant input is the only forced firing the reduction models
    scheduled = make_cfg().net
    scheduled.add_schedule(1, 0)
    with pytest.raises(ValueError, match="assumption 2"):
        ReductionConfig(scheduled, 0, 1, 2, 2).validate()

    with pytest.raises(ValueError, match="energy"):
        ReductionConfig(make_cfg().net, 0, 1, 3, 99).validate()

    # a missing constant is named, not blamed on the neuron that carries its bias
    with pytest.raises(ValueError, match="constant or accept neuron missing"):
        ReductionConfig(make_cfg().net, 5, 1, 2, 1).validate()


def test_structural_snapshot_one_neuron():
    # one accept neuron plus the constant, two steps
    cfg = make_cfg(t=2, e=4)
    inst = reduce_network(cfg, simulate_constrained(cfg))
    assert [a for a in inst.arcs if a[0] == "p:con"] == [("p:con", "con:src", 2, 2)]  # the [t,t] arc
    assert [head for tail, head, _, _ in inst.arcs if tail == "con:src"] == ["n:0:1", "n:0:2"]  # one token per step
    # two unrolled vertices per neuron
    assert sum(1 for n in inst.kinds if n.startswith("n:0:")) == 2
    assert sum(1 for n in inst.kinds if n.startswith("n:1:")) == 2
    # the three channel gadgets and the master endpoints exist
    for gadget in ("e:", "t:", "f:"):
        assert any(tail.startswith(gadget) or head.startswith(gadget) for tail, head, _, _ in inst.arcs), gadget
    assert inst.source == "src" and inst.sink == "sink"
    assert inst.d == 2


def test_node_count_linear_in_neurons_times_steps():
    for cfg in (make_cfg(t=2, e=4), make_cfg(t=3, e=6), chain_cfg(t=4, e=8)):
        inst = reduce_network(cfg, simulate_constrained(cfg))
        n, t = len(cfg.net.neurons), cfg.time_bound
        assert len(inst.kinds) <= 12 * n * t


def test_residue_cases():
    # threshold 3, one unit outgoing weight: residue 1 flows to an aux sink
    net = SpikingNetwork(overflow_reset=True)
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    net.add_neuron(Neuron(1, 1, 0, ONE, v0=0))
    net.add_neuron(Neuron(2, 3, 0, ONE, v0=0))
    net.add_synapse(Synapse(0, 2, 1, 1))
    net.add_synapse(Synapse(2, 1, 1, 1))
    cfg = ReductionConfig(net, 0, 1, 4, 8)
    inst = reduce_network(cfg, simulate_constrained(cfg))
    assert [a for a in inst.arcs if a[1] == "r:g:2:1"] == [("g:dist:2:1", "r:g:2:1", 1, 1)]
    assert inst.kinds["r:g:2:1"] == "r"  # positive residue: auxiliary sink

    # threshold 2 with one unit outgoing: residue 0, no extra node
    net2 = SpikingNetwork(overflow_reset=True)
    net2.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    net2.add_neuron(Neuron(1, 1, 0, ONE, v0=0))
    net2.add_neuron(Neuron(2, 2, 0, ONE, v0=0))
    net2.add_synapse(Synapse(0, 2, 1, 1))
    net2.add_synapse(Synapse(2, 1, 1, 1))
    cfg2 = ReductionConfig(net2, 0, 1, 4, 8)
    inst2 = reduce_network(cfg2, simulate_constrained(cfg2))
    assert "r:g:2:1" not in inst2.kinds and "p:g:2:1" not in inst2.kinds

    # the constant with an outgoing weight needs an auxiliary source
    assert [head for tail, head, _, _ in inst.arcs if tail == "p:g:0:1"] == ["g:out:0:1"]
    assert inst.kinds["p:g:0:1"] == "p"


def test_witness_for_accepting_run():
    cfg = make_cfg()
    inst = reduce_network(cfg, simulate_constrained(cfg))
    witness = inst.witness
    assert witness is not None
    assert list(witness) == list(range(len(inst.arcs)))  # every arc, keyed by its position
    assert validate_witness(inst, witness) == []
    assert witness_value(inst, witness) == 3


def test_witness_none_when_bounds_violated():
    for cfg in (make_cfg(e=4), make_cfg(acc_threshold=5)):  # five spikes > 4; never fires
        assert reduce_network(cfg, simulate_constrained(cfg)).witness is None


def test_energy_violation_saturates_energy_channel():
    cfg = make_cfg(e=4)
    inst = reduce_network(cfg, simulate_constrained(cfg))
    feasible, _ = check_feasible(inst)
    assert not feasible
    # the channel admits no unit even in isolation: with five forced spikes
    # the final column must push a spike unit through the pass arc
    assert simulate_constrained(cfg).spikes == 5


def test_time_violation_starves_the_gate():
    cfg = make_cfg(acc_threshold=5)
    inst = reduce_network(cfg, simulate_constrained(cfg))
    feasible, _ = check_feasible(inst)
    assert not feasible
    # the silence injections exist structurally, but only an actual
    # acceptance firing can activate them and feed the gate
    injects = [a for a in inst.arcs if a[0].startswith("g:dist:1:") and a[1].startswith("z:")]
    assert injects


def parallel_cfg(t=3, e=4):
    """Two unit synapses from the constant to the accept neuron, delays 1 and 2."""
    net = SpikingNetwork(overflow_reset=True)
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    net.add_neuron(Neuron(1, 2, 0, ONE, v0=0))
    net.add_synapse(Synapse(0, 1, 1, 1))
    net.add_synapse(Synapse(0, 1, 2, 1))
    return ReductionConfig(net, constant_id=0, accept_id=1, time_bound=t, energy_bound=e)


VERIFICATION_SUITE = [
    ("direct accept", lambda: make_cfg()),
    ("boundary energy", lambda: make_cfg(e=5)),  # exactly the spike count
    ("energy violating", lambda: make_cfg(e=4)),
    ("time violating", lambda: make_cfg(acc_threshold=5)),
    ("chain accept", lambda: chain_cfg()),
    ("chain energy violating", lambda: chain_cfg(e=5)),
    ("always accepting", lambda: make_cfg(t=2, e=4)),
    ("parallel synapses", lambda: parallel_cfg()),
]


@pytest.mark.parametrize("label,factory", VERIFICATION_SUITE)
def test_verify_reduction_suite(label, factory):
    verdict = verify_reduction(factory())
    assert verdict.passed, (label, verdict.details)
    if verdict.snn_accepts:
        assert verdict.witness_valid and verdict.witness_value == 3


def test_dynamic_range_guard_covers_the_horizon_column():
    # the constant's weight-2 delivery lands at the last step; the accept
    # neuron (threshold 1) fires and, under overflow reset, keeps 1, which
    # its chain:fin arc (capacity 0) cannot carry
    net = SpikingNetwork(overflow_reset=True)
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    net.add_neuron(Neuron(1, 1, 0, ONE, v0=0))
    net.add_synapse(Synapse(0, 1, 2, 2))
    net.add_synapse(Synapse(1, 1, 1, 1))
    cfg = ReductionConfig(net, constant_id=0, accept_id=1, time_bound=3, energy_bound=4)
    assert simulate_constrained(cfg).potential_after[1][-1] == 1
    with pytest.raises(GuardExceeded, match="neuron 1 carries potential"):
        verify_reduction(cfg)
    with pytest.raises(GuardExceeded):
        reduce_network(cfg, simulate_constrained(cfg))


def test_dynamic_range_guard_covers_a_rejecting_run():
    # constant -> neuron 2 (threshold 2, weight 3) -> accept (threshold 3):
    # neuron 2 keeps 2 after its second firing, above its chain capacity of
    # 1, and the accept neuron never fires
    net = SpikingNetwork(overflow_reset=True)
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    net.add_neuron(Neuron(2, 2, 0, ONE, v0=0))
    net.add_neuron(Neuron(1, 3, 0, ONE, v0=0))
    net.add_synapse(Synapse(0, 2, 1, 3))
    net.add_synapse(Synapse(2, 1, 1, 1))
    cfg = ReductionConfig(net, constant_id=0, accept_id=1, time_bound=3, energy_bound=8)
    run = simulate_constrained(cfg)
    assert not run.accepted and run.potential_after[2][-1] == 2
    with pytest.raises(GuardExceeded, match="neuron 2 carries potential 2"):
        verify_reduction(cfg)


def _random_constrained_rows(rng):
    """Neuron and synapse rows of a constrained network: constant 0 (unit
    threshold, start 0 or 1), accept 1 and up to four more neurons, all leak
    1; synapses with delay >= 1 and weight >= 0, none into the constant."""
    n = rng.randint(2, 6)
    neurons = [(0, 1, 0, 1, rng.randint(0, 1), Role.STANDARD)]
    neurons += [(nid, rng.randint(1, 4), 0, 1, 0, Role.STANDARD) for nid in range(1, n)]
    synapses = [
        (rng.randrange(n), rng.randint(1, n - 1), rng.randint(1, 3), rng.randint(0, 3))
        for _ in range(rng.randint(1, 2 * n))
    ]
    return neurons, synapses


def test_simulate_constrained_matches_reference_step_by_step():
    """``fired`` and ``potential_after`` against the reference simulator run
    on the same rows with the constant scheduled at every step."""
    rng = random.Random(5)
    for _ in range(200):
        neurons, synapses = _random_constrained_rows(rng)
        t_bound = rng.randint(1, 8)
        net, scheduled = SpikingNetwork(overflow_reset=True), SpikingNetwork(overflow_reset=True)
        for built in (net, scheduled):
            built.add_neurons(neurons)
            built.add_synapses(synapses)
        for k in range(t_bound):
            scheduled.add_schedule(0, k)
        cfg = ReductionConfig(net, 0, 1, t_bound, rng.randint(0, len(neurons) * t_bound))
        outcome = simulate_constrained(cfg)

        state = ref.RefState.initial(scheduled)
        fired, after = [], {nid: [] for nid, *_ in neurons}
        for _ in range(t_bound):
            fired.append(ref.step(scheduled, state))
            for nid, v in ref.current_potentials(scheduled, state).items():
                after[nid].append(v)
        assert outcome.fired == fired, (neurons, synapses, t_bound)
        assert all(type(ids) is frozenset for ids in outcome.fired)
        assert outcome.potential_after == after, (neurons, synapses, t_bound)
        accept_steps = [k for k, ids in enumerate(fired) if 1 in ids]
        assert outcome.accept_step == (accept_steps[0] if accept_steps else None)
        assert outcome.spikes == len(state.trace)
        assert outcome.accepted == (bool(accept_steps) and len(state.trace) <= cfg.energy_bound)


def test_node_bound_covers_every_laid_out_instance():
    """``ReductionConfig.node_bound`` is at least the node count of the
    instance ``reduce_network`` lays out on 300 random constrained networks;
    ``make_cfg``'s two neurons lay out 12t + 14 nodes against 13t + 16."""
    rng = random.Random(11)
    laid_out = 0
    for _ in range(300):
        neurons, synapses = _random_constrained_rows(rng)
        t_bound = rng.randint(1, 10)
        net = SpikingNetwork(overflow_reset=True)
        net.add_neurons(neurons)
        net.add_synapses(synapses)
        cfg = ReductionConfig(net, 0, 1, t_bound, rng.randint(0, len(neurons) * t_bound))
        try:
            inst = reduce_network(cfg, simulate_constrained(cfg))
        except GuardExceeded:  # a run outside the dynamic range lays nothing out
            continue
        laid_out += 1
        assert len(inst.kinds) <= cfg.node_bound, (neurons, synapses, t_bound)
    assert laid_out >= 100
    for t in (1, 10, 100, 1000):
        cfg = make_cfg(t=t, e=2 * t)
        assert len(reduce_network(cfg, simulate_constrained(cfg)).kinds) == 12 * t + 14
        assert cfg.node_bound == 13 * t + 16


def test_validate_refuses_a_configuration_over_the_node_guard(monkeypatch):
    # 13t + 16 > 10**6 from t = 76922 on; nothing is copied or simulated
    monkeypatch.setattr(SpikingNetwork, "copy", lambda net: pytest.fail("the network was copied"))
    monkeypatch.setattr(tnfr, "snn_step", lambda *args: pytest.fail("a step was simulated"))
    make_cfg(t=76921, e=1).validate()
    for t in (76922, 10**9):
        with pytest.raises(GuardExceeded, match=f"{13 * t + 16} nodes, more than the node guard 1000000"):
            verify_reduction(make_cfg(t=t, e=1))


def test_verify_reduction_runs_and_validates_once(monkeypatch):
    calls = {"simulate": 0, "validate": 0}
    simulate, validate = tnfr.simulate_constrained, ReductionConfig.validate

    def counted_simulate(cfg):
        calls["simulate"] += 1
        return simulate(cfg)

    def counted_validate(cfg):
        calls["validate"] += 1
        validate(cfg)

    monkeypatch.setattr(tnfr, "simulate_constrained", counted_simulate)
    monkeypatch.setattr(ReductionConfig, "validate", counted_validate)
    for factory in (make_cfg, lambda: make_cfg(e=4)):  # accepting, then rejecting
        calls.update(simulate=0, validate=0)
        verify_reduction(factory())
        assert calls == {"simulate": 1, "validate": 1}


@st.composite
def small_constrained_configs(draw):
    """Constant 0 (unit threshold, always on), accept neuron 1 and maybe a
    neuron 2; 1-3 synapses into non-constant neurons, parallel pairs allowed."""
    n = draw(st.integers(2, 3))
    net = SpikingNetwork(overflow_reset=True)
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    for nid in range(1, n):
        net.add_neuron(Neuron(nid, draw(st.integers(1, 3)), 0, ONE, v0=0))
    for _ in range(draw(st.integers(1, 3))):
        pre = draw(st.integers(0, n - 1))
        post = draw(st.integers(1, n - 1))
        net.add_synapse(Synapse(pre, post, draw(st.integers(1, 2)), draw(st.integers(1, 2))))
    t = draw(st.integers(1, 3))
    return ReductionConfig(net, 0, 1, t, draw(st.integers(0, n * t)))


@settings(max_examples=300, deadline=None)
@given(small_constrained_configs())
def test_reduction_verifies_or_guards_on_random_networks(cfg):
    try:
        verdict = verify_reduction(cfg)
    except GuardExceeded:
        return
    assert verdict.passed, verdict.details


def test_mutation_dropping_failure_gadget_flips_a_verdict():
    cfg = make_cfg()
    inst = reduce_network(cfg, simulate_constrained(cfg))
    healthy, _ = check_feasible(inst)
    mutated = without_arcs(inst, touches_failure)
    broken, _ = check_feasible(mutated)
    assert healthy and not broken  # the accepting instance loses its third unit


def test_serializer_blocks_fabricated_gadget_flow():
    # an idle accepting-shaped network must admit no flow above 2: without
    # the all-or-nothing serializer arc, gadget residue sources could push
    # silence units and fake the acceptance evidence
    cfg = make_cfg(acc_threshold=5)  # accept never reachable
    inst = reduce_network(cfg, simulate_constrained(cfg))
    feasible, witness = check_feasible(inst)
    assert not feasible


# --- text formats ------------------------------------------------------------


def test_tnfr_text_roundtrip():
    cfg = make_cfg(t=2, e=4)
    inst = reduce_network(cfg, simulate_constrained(cfg))
    text = format_tnfr(inst)
    parsed = parse_tnfr(text)
    assert len(parsed.kinds) == len(inst.kinds)
    assert len(parsed.arcs) == len(inst.arcs)
    assert parsed.d == inst.d
    assert sorted(parsed.kinds.values()) == sorted(inst.kinds.values())
    # feasibility is representation-independent
    a, _ = check_feasible(inst)
    b, _ = check_feasible(parsed)
    assert a == b


def test_tnfr_parse_errors():
    with pytest.raises(ParseError):
        parse_tnfr("a 1 2 0 1\n")  # missing problem line
    with pytest.raises(ParseError) as exc:
        parse_tnfr("p tnfr 2 1 2\nn 1 s\nn 2 t\na 1 2 0\n")
    assert "line 4" in str(exc.value)
    with pytest.raises(ParseError):
        parse_tnfr("p tnfr 2 9 2\nn 1 s\nn 2 t\na 1 2 0 1\n")  # arc count lie
    with pytest.raises(ParseError) as exc:
        parse_tnfr("p tnfr 3 1 2\nn 1 s\nn 3 t\nn 9 r\na 1 3 0 1\n")  # node id out of range
    assert "line 4" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_tnfr("p tnfr 3 1 2\nn 1 s\nn 2 s\nn 3 t\na 1 3 0 1\n")  # second master source
    assert "line 3" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_tnfr("p tnfr 3 1 2\nn 1 s\nn 2 t\nn 3 t\na 1 3 0 1\n")  # second master sink
    assert "line 4" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_tnfr("p tnfr 3 1 2\nn 2 s\nn 1 s\nn 3 t\na 1 3 0 1\n")  # ... on a lower node id
    assert "line 3" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_tnfr("p tnfr 2 2 2\nn 1 s\nn 2 t\na 1 2 0 1\na 1 2 3 1\n")  # empty interval
    assert "line 5" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_tnfr("p tnfr 2 1 2\nn 1 s\nn 2 t\na 1 7 0 1\n")  # unknown node
    assert "line 4" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_tnfr("p tnfr 2 1 0\np tnfr 3 1 5\nn 1 s\nn 2 t\na 1 2 0 1\n")  # second problem line
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_tnfr("p tnfr 3 1 2\nn 1 s\nn 2 t\na 1 2 0 1\nn 1 t\n")  # second record for node 1
    assert "line 5" in str(exc.value)
    # a flow that only cycles through the master source never reaches the sink
    with pytest.raises(ParseError) as exc:
        parse_tnfr("p tnfr 3 2 0\nn 1 s\nn 3 t\na 1 2 1 1\na 2 1 1 1\n")
    assert "line 5" in str(exc.value) and "master source" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_tnfr("p tnfr 3 2 0\nn 1 s\nn 2 t\na 1 2 1 1\na 2 3 1 1\n")
    assert "line 5" in str(exc.value) and "master sink" in str(exc.value)


_INT = st.integers(-1, 5).map(str)
_TOKEN = _INT | st.sampled_from(["tnfr", "s", "t", "r", "p", "x", "1.5"]) | st.text(alphabet="0123456789-+", max_size=3)
_SALAD = st.tuples(st.sampled_from(["p", "n", "a", "c", "x", ""]), st.lists(_TOKEN, max_size=6)).map(
    lambda kind_fields: " ".join([kind_fields[0], *kind_fields[1]])
)


@st.composite
def tnfr_texts(draw):
    """A problem line whose arc count is usually right, a master source and
    sink, up to three more node records (possibly repeated or out of range),
    and arcs between node ids up to one past the node count with small,
    possibly negative or inverted capacities; then maybe a line of token
    salad inserted and the lines shuffled."""
    n = draw(st.integers(1, 6))
    ids = st.integers(1, n + 1)  # n + 1 is out of range
    arcs = [f"a {u} {v} {lo} {hi}" for u, v, lo, hi in draw(st.lists(st.tuples(ids, ids, _INT, _INT), max_size=5))]
    promised = draw(st.sampled_from([len(arcs), len(arcs), 1]))
    lines = [f"p tnfr {n} {promised} {draw(_INT)}", "n 1 s", "n 2 t"]
    records = draw(st.lists(st.integers(2, n + 1), unique=True, max_size=3))  # 2 repeats the sink
    lines += [f"n {i} {draw(st.sampled_from('rrppst'))}" for i in records] + arcs
    for line in draw(st.lists(_SALAD, max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=tnfr_texts())
def test_parse_tnfr_raises_only_parse_error(text):
    """Whatever the text, parse_tnfr returns an instance or raises ParseError,
    and a returned instance survives a format/parse round trip."""
    try:
        inst = parse_tnfr(text)
    except ParseError:
        return
    text = format_tnfr(inst)
    assert format_tnfr(parse_tnfr(text)) == text


def test_witness_csv_format():
    assert format_witness_csv({1: 3, 0: 2}) == "arc,flow\n0,2\n1,3\n"
