from copy import deepcopy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snn_reference as ref
import spikeflow.snn as snn
from spikeflow.errors import ParseError
from spikeflow.snn import (
    Neuron,
    Role,
    SimulationState,
    SpikingNetwork,
    Synapse,
    format_netlist,
    format_trace_csv,
    parse_netlist,
    run,
    step,
)

ONE = Fraction(1)


def make_net(overflow=False):
    return SpikingNetwork(overflow_reset=overflow)


def driver(net, nid, times):
    """A scheduled neuron forced to fire at the given times."""
    net.add_neuron(Neuron(nid, threshold=10**9, reset=0, leak=ONE, v0=0, role=Role.SCHEDULED))
    for t in times:
        net.add_schedule(nid, t)
    return nid


def test_threshold_at_start_fires_at_t0():
    net = make_net()
    net.add_neuron(Neuron(0, threshold=1, reset=0, leak=ONE, v0=1, role=Role.TRANSMITTER))
    state = run(net, 3)
    assert state.trace == [(0, 0)]
    assert state.potentials[0] == 0


def test_pure_integration_fires_when_sum_reaches_threshold():
    net = make_net()
    net.add_neuron(Neuron(0, threshold=3, reset=0, leak=ONE, v0=0))
    driver(net, 9, [0, 1, 2])
    net.add_synapse(Synapse(9, 0, delay=1, weight=1))
    state = run(net, 5)
    spikes = [(t, n) for t, n in state.trace if n == 0]
    assert spikes == [(3, 0)]


def test_leak_zero_erases_history():
    # V=1 at t=1, then V = 0*1 + 1 = 1 at t=2: threshold 2 is never reached.
    net = make_net()
    net.add_neuron(Neuron(0, threshold=2, reset=0, leak=Fraction(0), v0=0))
    driver(net, 9, [0, 1])
    net.add_synapse(Synapse(9, 0, delay=1, weight=1))
    state = run(net, 5)
    assert [(t, n) for t, n in state.trace if n == 0] == []


def _leak_zero_net():
    """Driver 9 fires at 0 into the leak-0 neuron 0 (threshold 5) and the
    leak-1 neuron 1 (threshold 1), each with weight 2 and delay 1."""
    net = make_net()
    net.add_neuron(Neuron(0, threshold=5, reset=0, leak=Fraction(0)))
    net.add_neuron(Neuron(1, threshold=1, reset=0, leak=ONE))
    driver(net, 9, [0])
    net.add_synapse(Synapse(9, 0, delay=1, weight=2))
    net.add_synapse(Synapse(9, 1, delay=1, weight=2))
    return net


def test_leak_zero_touched_in_the_halting_step_keeps_its_value():
    net = _leak_zero_net()
    for _ in range(2):  # a later run equals the first
        state = _assert_run_matches_reference(net, 6, stop={1})
        assert (state.t, state.halted) == (1, True)
        assert state.potentials[0] == 2 and current_potentials(net, state)[0] == 2


@pytest.mark.parametrize("limit", [2, 6])
def test_leak_zero_touched_in_the_last_step_reads_zero_after_it(limit):
    net = _leak_zero_net()
    for _ in range(2):
        state = _assert_run_matches_reference(net, limit)
        assert state.t == limit and not state.halted
        # the stored value is left as the last step wrote it
        assert state.potentials[0] == 2 and current_potentials(net, state)[0] == 0


def test_leak_zero_nonzero_start_is_zeroed_at_step_one():
    # an override of 3 is read at step 0 only: the arrival of 2 at step 1
    # finds 0, so threshold 5 is never reached
    net = _leak_zero_net()
    for _ in range(2):
        state = _assert_run_matches_reference(net, 1, potentials={0: 3})
        assert state.potentials[0] == 3 and current_potentials(net, state)[0] == 0
        halted = _assert_run_matches_reference(net, 6, stop={9}, potentials={0: 3})
        assert halted.t == 0 and current_potentials(net, halted)[0] == 3
        state = _assert_run_matches_reference(net, 6, potentials={0: 3})
        assert state.trace == [(0, 9), (1, 1)]


def test_leak_one_holds_potential_without_input():
    net = make_net()
    net.add_neuron(Neuron(0, threshold=5, reset=0, leak=ONE, v0=3))
    state = SimulationState.initial(net)
    for _ in range(4):
        step(net, state)
    assert state.potentials[0] == 3


@pytest.mark.parametrize(
    "leak, accepted",
    [(Fraction(0), True), (ONE, True), (Fraction(1, 2), False), (Fraction(2, 3), False), (2, False), (-1, False)],
)
def test_add_neuron_accepts_only_leak_zero_or_one(leak, accepted):
    net = make_net()
    if accepted:
        net.add_neuron(Neuron(0, 1, 0, leak))
        assert net.neurons[0].leak == leak
    else:
        with pytest.raises(ValueError, match="neuron 0: leak must be 0 or 1"):
            net.add_neuron(Neuron(0, 1, 0, leak))
        assert 0 not in net.neurons


def test_empty_network_runs_to_limit():
    state = run(make_net(), 5)
    assert state.trace == []
    assert state.t == 5
    assert state.steps_used == 5


def test_exact_step_count_stop():
    net = make_net()
    net.add_neuron(Neuron(0, threshold=1, reset=0, leak=ONE, v0=1, role=Role.TRANSMITTER))
    state = run(net, 3)
    assert state.trace == [(0, 0)]
    assert state.t == 3


def chain_search_net():
    """Hand-built two-edge chain search/readout network (|E|=2, offset K=3)."""
    net = make_net()
    T, H1, H2, R1, R2, C1, C2 = range(7)
    net.add_neuron(Neuron(T, 1, 0, ONE, v0=1, role=Role.TRANSMITTER))
    for nid in (H1, H2):
        net.add_neuron(Neuron(nid, 4, 0, ONE, v0=3))
    for nid in (R1, R2):
        net.add_neuron(Neuron(nid, 4, 0, ONE, v0=3, role=Role.READOUT))
    # capacities 3 and 5, zero flow: thresholds c+K, potentials K
    net.add_neuron(Neuron(C1, 6, 0, ONE, v0=3, role=Role.CAPACITY))
    net.add_neuron(Neuron(C2, 8, 0, ONE, v0=3, role=Role.CAPACITY))
    net.add_synapse(Synapse(T, H2, 1, 1))    # transmitter -> sink edge
    net.add_synapse(Synapse(H2, H1, 1, 1))   # backward wave
    net.add_synapse(Synapse(H1, R1, 1, 1))   # source-edge bridge
    net.add_synapse(Synapse(R1, R2, 1, 1))   # forward readout
    net.add_synapse(Synapse(C1, H1, 0, -3))
    net.add_synapse(Synapse(C1, R1, 0, -3))
    net.add_synapse(Synapse(C2, H2, 0, -3))
    net.add_synapse(Synapse(C2, R2, 0, -3))
    return net, (T, H1, H2, R1, R2, C1, C2)


def test_chain_wave_stops_at_sink_readout():
    net, (T, H1, H2, R1, R2, _, _) = chain_search_net()
    state = run(net, 2 * 2 + 1, stop_on_fire=[R2])
    assert state.t == 4
    assert state.halted
    assert state.steps_used == 5
    assert state.trace == [(0, T), (1, H2), (2, H1), (3, R1), (4, R2)]


def test_chain_episode_energy_is_five_spikes():
    net, (_, _, _, _, R2, _, _) = chain_search_net()
    state = run(net, 5, stop_on_fire=[R2])
    assert len(state.trace) == 5


def test_saturated_capacity_inhibits_same_step():
    # A capacity neuron at threshold fires at t=0 and its delay-0 inhibition
    # must land before the delay-1 wave, silencing its edge for the episode.
    net = make_net()
    C, H, T = 0, 1, 2
    net.add_neuron(Neuron(C, 5, 0, ONE, v0=5, role=Role.CAPACITY))
    net.add_neuron(Neuron(H, 4, 0, ONE, v0=3))
    net.add_neuron(Neuron(T, 1, 0, ONE, v0=1, role=Role.TRANSMITTER))
    net.add_synapse(Synapse(C, H, 0, -3))
    net.add_synapse(Synapse(T, H, 1, 1))
    state = run(net, 5)
    assert (0, C) in state.trace
    assert all(n != H for _, n in state.trace)
    assert state.potentials[H] == 1  # 0 after inhibition, +1 from the wave


def test_energy_counts_trace_events():
    assert len(SimulationState.initial(make_net()).trace) == 0
    net = make_net()
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1, role=Role.TRANSMITTER))
    state = run(net, 3)
    assert len(state.trace) == 1


def test_overflow_reset_subtracts_threshold():
    net = make_net(overflow=True)
    net.add_neuron(Neuron(0, 2, 0, ONE, v0=0))
    driver(net, 9, [0])
    net.add_synapse(Synapse(9, 0, delay=1, weight=3))
    state = run(net, 3)
    assert (1, 0) in state.trace
    assert state.potentials[0] == 1  # 3 - threshold 2


def test_scheduled_fire_resets_potential():
    net = make_net()
    net.add_neuron(Neuron(0, 100, 7, ONE, v0=50, role=Role.SCHEDULED))
    net.add_schedule(0, 2)
    state = run(net, 4)
    assert (2, 0) in state.trace
    assert state.potentials[0] == 7


def test_fires_at_most_once_per_step():
    # Forced fire and threshold crossing in the same step yield one event.
    net = make_net()
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1, role=Role.SCHEDULED))
    net.add_schedule(0, 0)
    state = run(net, 2)
    assert state.trace.count((0, 0)) == 1


def test_metronome_neuron_fires_every_step():
    # threshold 1, reset 1, leak 1, v0 1: a self-sustaining constant driver.
    net = make_net()
    net.add_neuron(Neuron(0, 1, 1, ONE, v0=1, role=Role.INPUT))
    state = run(net, 4)
    assert state.trace == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_inhibition_clamps_to_zero_after_summation():
    net = make_net()
    net.add_neuron(Neuron(0, 10, 0, ONE, v0=2))
    driver(net, 9, [0])
    net.add_synapse(Synapse(9, 0, delay=1, weight=-5))
    state = run(net, 3)
    assert state.potentials[0] == 0


def test_single_spike_offset_idiom():
    # threshold K+1, v0=K, reset 0: with fan-in <= K weight-1 inputs the
    # neuron cannot re-reach threshold after its reset.
    K = 4
    net = make_net()
    net.add_neuron(Neuron(0, K + 1, 0, ONE, v0=K))
    for i in range(K):
        driver(net, 10 + i, [i])
        net.add_synapse(Synapse(10 + i, 0, delay=1, weight=1))
    state = run(net, K + 3)
    assert sum(1 for _, n in state.trace if n == 0) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_determinism_and_nonnegativity(data):
    n_neurons = data.draw(st.integers(2, 6))
    net = make_net()
    for i in range(n_neurons):
        net.add_neuron(
            Neuron(
                i,
                threshold=data.draw(st.integers(1, 5)),
                reset=data.draw(st.integers(0, 2)),
                leak=Fraction(data.draw(st.sampled_from([0, 1]))),
                v0=data.draw(st.integers(0, 4)),
            )
        )
    for _ in range(data.draw(st.integers(0, 12))):
        net.add_synapse(
            Synapse(
                pre=data.draw(st.integers(0, n_neurons - 1)),
                post=data.draw(st.integers(0, n_neurons - 1)),
                delay=data.draw(st.integers(0, 2)),
                weight=data.draw(st.integers(-3, 3)),
            )
        )
    for _ in range(data.draw(st.integers(0, 3))):
        net.add_schedule(data.draw(st.integers(0, n_neurons - 1)), data.draw(st.integers(0, 4)))

    first = run(net, 8)
    second = run(net, 8)
    assert first.trace == second.trace
    assert all(v >= 0 for v in first.potentials.values())
    assert first.trace == sorted(first.trace)
    assert len(first.trace) == len(set(first.trace))  # no double-counted spikes


def test_delay0_propagation_reaches_a_fixed_point_in_the_step():
    # Chain 0 -> 1 -> 2 -> 3 over delay-0 synapses: each round delivers the
    # previous round's delay-0 output and fires what it brought to threshold,
    # so the scheduled fire of 0 carries through the whole chain at t=0.
    net = make_net()
    net.add_neuron(Neuron(0, 10**9, 0, ONE, v0=0, role=Role.SCHEDULED))
    for nid in (1, 2, 3):
        net.add_neuron(Neuron(nid, 1, 0, ONE, v0=0))
    for pre in (0, 1, 2):
        net.add_synapse(Synapse(pre, pre + 1, 0, 1))
    net.add_schedule(0, 0)
    state = run(net, 3)
    assert state.trace == [(0, 0), (0, 1), (0, 2), (0, 3)]


LEAKS = (Fraction(0), ONE)


@st.composite
def netlists(draw):
    """Random networks over scattered neuron ids, with every leak kind,
    delays 0-3, negative weights, both reset modes and a schedule."""
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=7, unique=True))
    net = SpikingNetwork(overflow_reset=draw(st.booleans()))
    for nid in ids:
        net.add_neuron(
            Neuron(
                nid,
                threshold=draw(st.integers(1, 5)),
                reset=draw(st.integers(0, 3)),
                leak=draw(st.sampled_from(LEAKS)),
                v0=draw(st.integers(0, 5)),
                role=draw(st.sampled_from(list(Role))),
            )
        )
    for _ in range(draw(st.integers(0, 16))):
        net.add_synapse(
            Synapse(
                pre=draw(st.sampled_from(ids)),
                post=draw(st.sampled_from(ids)),
                delay=draw(st.integers(0, 3)),
                weight=draw(st.integers(-4, 4)),
            )
        )
    for _ in range(draw(st.integers(0, 4))):
        net.add_schedule(draw(st.sampled_from(ids)), draw(st.integers(0, 8)))
    potentials = draw(
        st.none() | st.dictionaries(st.sampled_from(ids + [99]), st.integers(0, 6), max_size=4)
    )
    return net, potentials


def current_potentials(net, state):
    """Every neuron's potential at ``state.t``: a leak-0 neuron still due to
    be zeroed reads 0 from its zeroing step on."""
    zeroed = state._zero if state.t >= state._zero_at else set()
    return {nid: 0 if nid in zeroed else state.potentials[nid] for nid in net.neurons}


@settings(max_examples=300, deadline=None)
@given(netlists(), st.integers(0, 14))
def test_step_matches_reference_after_every_step(case, n_steps):
    net, potentials = case
    for _ in range(2):  # a later run of the network equals the first
        state = SimulationState.initial(net, potentials)
        expected = ref.RefState.initial(net, potentials)
        for _ in range(n_steps):
            fired = step(net, state)
            assert type(fired) is frozenset
            assert fired == ref.step(net, expected)
            assert state.trace == expected.trace
            assert state.steps_used == expected.steps_used
            assert current_potentials(net, state) == ref.current_potentials(net, expected)


@settings(max_examples=300, deadline=None)
@given(netlists(), st.data())
def test_run_matches_reference(case, data):
    net, potentials = case
    ids = sorted(net.neurons)
    stops = st.none() | st.sets(st.sampled_from(ids), max_size=3)
    for _ in range(2):  # a first and a later run of the same network
        stop, limit = data.draw(stops), data.draw(st.integers(0, 20))
        _assert_run_matches_reference(net, limit, stop, potentials)


def _assert_run_matches_reference(net, limit, stop=None, potentials=None):
    state = run(net, limit, stop_on_fire=stop, initial_potentials=potentials)
    expected = ref.run(net, limit, stop_on_fire=stop, initial_potentials=potentials)
    assert (state.trace, state.t, state.halted) == (expected.trace, expected.t, expected.halted)
    assert state.steps_used == expected.steps_used
    assert current_potentials(net, state) == ref.current_potentials(net, expected)
    assert all(type(v) is int for v in state.potentials.values())
    return state


def _counting_steps(monkeypatch):
    """Record the ``t`` of every step that ``run`` simulates."""
    steps = []

    def counting_step(net, state):
        steps.append(state.t)
        return step(net, state)

    monkeypatch.setattr(snn, "step", counting_step)
    return steps


def test_run_waits_out_a_quiet_gap_for_a_late_schedule(monkeypatch):
    # The wave 0 -> 1 -> 2 dies at t=2; neuron 3 is scheduled at t=30 and
    # reaches 4 at t=32.  The leak-0 neuron 4 forgets its start of 8 at
    # t=1, so the one unit it gets at t=32 leaves it below threshold.
    net = make_net()
    driver(net, 0, [0])
    net.add_neuron(Neuron(1, 1, 0, ONE))
    net.add_neuron(Neuron(2, 1, 0, ONE))
    driver(net, 3, [30])
    net.add_neuron(Neuron(4, 9, 0, Fraction(0), v0=8))
    net.add_synapse(Synapse(0, 1, 1, 1))
    net.add_synapse(Synapse(1, 2, 1, 1))
    net.add_synapse(Synapse(3, 4, 2, 1))
    steps = _counting_steps(monkeypatch)
    state = _assert_run_matches_reference(net, 40)
    assert state.trace == [(0, 0), (1, 1), (2, 2), (30, 3)]
    assert state.steps_used == 40 and not state.halted
    # the gap before the schedule is stepped through; the quiescent tail is not
    assert steps == list(range(33))


# The ids skip leak1, the leak-1/2 case that fractional leaks took with them.
@pytest.mark.parametrize("leak", [ONE, Fraction(0)], ids=["leak0", "leak2"])
def test_run_checks_a_leaky_neuron_left_at_threshold(leak):
    # Neurons 1 and 2 fire in the round that delivers 0's output.  Neuron
    # 1's output reaches 2 in the next round; 2 has fired this step, so it
    # is left at threshold, the last activity of the run, and checked at
    # t=1: only the leak-1 neuron holds its potential and fires again.
    net = make_net()
    driver(net, 0, [0])
    net.add_neuron(Neuron(1, 1, 0, ONE))
    net.add_neuron(Neuron(2, 1, 0, leak))
    net.add_synapse(Synapse(0, 1, 0, 1))
    net.add_synapse(Synapse(0, 2, 0, 1))
    net.add_synapse(Synapse(1, 2, 0, 1))
    state = _assert_run_matches_reference(net, 20)
    assert state.trace == [(0, 0), (0, 1), (0, 2)] + ([(1, 2)] if leak == 1 else [])


def test_four_deep_delay0_chain_matches_reference():
    # Rounds beyond the second, over both leaks, whatever hypothesis draws.
    net = make_net()
    driver(net, 0, [0, 3])
    for nid, leak in zip((1, 2, 3, 4), LEAKS * 2):
        net.add_neuron(Neuron(nid, 1, 0, leak))
        net.add_synapse(Synapse(nid - 1, nid, 0, 1))
    for _ in range(2):  # a later run equals the first
        state = _assert_run_matches_reference(net, 6)
        assert state.trace == [(t, nid) for t in (0, 3) for nid in range(5)]


def test_delay0_cycle_fires_each_neuron_once_per_step():
    # 0 -> 1 -> 2 -> 0 over delay-0 synapses: the cycle's last round brings 0,
    # which has fired, back to threshold, so it starts the cycle again at t+1.
    net = make_net()
    net.add_neuron(Neuron(0, 1, 0, ONE, v0=1))
    net.add_neuron(Neuron(1, 1, 0, ONE))
    net.add_neuron(Neuron(2, 1, 0, ONE))
    for pre in range(3):
        net.add_synapse(Synapse(pre, (pre + 1) % 3, 0, 1))
    for _ in range(2):
        state = _assert_run_matches_reference(net, 4)
        assert state.trace == [(t, nid) for t in range(4) for nid in range(3)]
        assert state.potentials == {0: 1, 1: 0, 2: 0}


def test_run_refires_an_overflow_reset_neuron_left_above_threshold():
    net = make_net(overflow=True)
    net.add_neuron(Neuron(0, 2, 0, ONE, v0=5))
    net.add_neuron(Neuron(1, 3, 0, ONE))
    net.add_synapse(Synapse(0, 1, 1, 1))
    state = _assert_run_matches_reference(net, 20)
    # 5 -> 3 -> 1: neuron 0 fires at t=0 and t=1; neuron 1 gets 2 < 3
    assert state.trace == [(0, 0), (1, 0)]
    assert state.potentials == {0: 1, 1: 2}


def test_overrides_move_neurons_onto_and_off_threshold(monkeypatch):
    net = make_net()
    net.add_neuron(Neuron(0, 3, 0, ONE, v0=3))
    net.add_neuron(Neuron(1, 3, 0, ONE, v0=1))
    net.add_neuron(Neuron(2, 3, 0, ONE, v0=3))
    state = _assert_run_matches_reference(net, 4, potentials={0: 2, 1: 3, 99: 5})
    assert state.trace == [(0, 1), (0, 2)]
    steps = _counting_steps(monkeypatch)
    state = _assert_run_matches_reference(net, 4, potentials={0: 2, 2: 0})
    assert state.trace == [] and state.steps_used == 4
    assert steps == []  # nothing at threshold: quiescent from the start


def test_netlist_roundtrip():
    net, _ = chain_search_net()
    net.add_schedule(0, 7)
    text = format_netlist(net)
    parsed = parse_netlist(text)
    assert format_netlist(parsed) == text


def test_run_leaves_the_network_unchanged():
    net, (T, _, _, R1, R2, _, _) = chain_search_net()
    net.add_neurons([(7, 1, 0, 0, 0, Role.STANDARD), (8, 1, 0, 0, 0, Role.STANDARD)])
    net.add_synapses([(R1, 7, 0, 1), (7, 8, 2, 1)])
    net.add_schedule(T, 3)
    before = deepcopy(vars(net))
    halted = run(net, 9, stop_on_fire=[R2])
    full = run(net, 9)
    assert halted.halted and not full.halted and len(full.trace) > len(halted.trace)
    assert vars(net) == before


@pytest.mark.parametrize("overflow", [False, True])
def test_copy_is_a_never_run_equal_network(overflow):
    net, (T, *_) = chain_search_net()
    net.overflow_reset = overflow
    net.add_schedule(T, 3)
    first = run(net, 6)
    run(net, 6)
    copy = net.copy()
    assert format_netlist(copy) == format_netlist(net)
    assert copy.overflow_reset is overflow and copy.size() == net.size()
    assert run(copy, 6).trace == first.trace
    text = format_netlist(net)
    copy.add_schedule(T, 5)
    assert format_netlist(net) == text and net.schedule == [(T, 3)]


def test_netlist_comments_and_errors():
    good = "# comment\nN 0 1 0 1 1 transmitter\n"
    net = parse_netlist(good)
    assert net.neurons[0].role is Role.TRANSMITTER

    with pytest.raises(ParseError) as exc:
        parse_netlist("N 0 1 0 1 1 nosuchrole\n")
    assert "line 1" in str(exc.value)

    with pytest.raises(ParseError):
        parse_netlist("S 0 1 0\n")

    with pytest.raises(ParseError) as exc:
        parse_netlist("N 0 1 0 1 0 standard\nS 0 9 1 1\n")
    assert "line 2" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_netlist("N 0 1 0 1 0 standard\nN 1 1 0 1/0 0 standard\n")
    assert "line 2" in str(exc.value)


def test_netlist_forward_references_allowed():
    net = parse_netlist("S 1 0 1 1\nN 0 1 0 1 0 standard\nN 1 1 0 1 0 standard\n")
    assert len(net.out_synapses[1]) == 1


def test_trace_csv():
    # 9 and 2 both fire at step 0 (a set of the two iterates 9 first), and 9
    # again at its scheduled step 2: the trace lists a step's spikes by id
    net = make_net()
    net.add_neuron(Neuron(9, 1, 0, ONE, v0=1))
    net.add_neuron(Neuron(2, 1, 0, ONE, v0=1))
    net.add_schedule(9, 2)
    state = run(net, 4)
    assert state.fired_steps == [(0, frozenset({2, 9})), (2, frozenset({9}))]
    assert state.trace == [(0, 2), (0, 9), (2, 9)]
    assert format_trace_csv(state) == "time,neuron_id\n0,2\n0,9\n2,9\n"


@pytest.mark.parametrize(
    "text,line",
    [
        ("N 0 1 0 1 0 standard\nS 0 0 -1 1\n", 2),  # negative delay
        ("S 1 0 -2 1\nN 0 1 0 1 0 standard\nN 1 1 0 1 0 standard\n", 1),  # ... on a forward reference
        ("N 0 0 0 1 0 standard\n", 1),  # threshold < 1
        ("N 0 1 0 1 0 standard\nN 1 1 0 1 -1 standard\n", 2),  # v0 < 0
        ("N 0 1 0 -1 0 standard\n", 1),  # leak < 0
        ("N 0 1 0 1 0 standard\nN 1 1 0 2 0 standard\n", 2),  # leak > 1
        ("N 0 1 0 1 0 standard\nN 0 2 0 1 0 standard\n", 2),  # duplicate id
    ],
)
def test_netlist_value_errors_are_parse_errors_with_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_netlist(text)
    assert f"line {line}" in str(exc.value)


_INT = st.integers(-2, 4).map(str)
_TOKEN = _INT | st.sampled_from(["1/2", "1/0", "1.5", "nan", "x"]) | st.text(alphabet="0123456789-/.e", max_size=4)
_ROLE = st.sampled_from([r.value for r in Role] + ["nosuchrole"])
# well-formed records with out-of-range values, and token salad
_NETLIST_LINES = st.one_of(
    st.tuples(_INT, _INT, _INT, _TOKEN, _INT, _ROLE).map(lambda f: "N " + " ".join(f)),
    st.tuples(_INT, _INT, _INT, _INT).map(lambda f: "S " + " ".join(f)),
    st.tuples(_INT, _INT).map(lambda f: "SCHED " + " ".join(f)),
    st.tuples(st.sampled_from(["N", "S", "SCHED", "#", "X", ""]), st.lists(_TOKEN | _ROLE, max_size=7)).map(
        lambda kind_fields: " ".join([kind_fields[0], *kind_fields[1]])
    ),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_NETLIST_LINES, max_size=8))
def test_parse_netlist_raises_only_parse_error(lines):
    """Whatever the text, parse_netlist returns a network or raises ParseError,
    and a returned network survives a format/parse round trip."""
    try:
        net = parse_netlist("\n".join(lines))
    except ParseError:
        return
    text = format_netlist(net)
    assert format_netlist(parse_netlist(text)) == text
