from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spikeflow.oracle
from conftest import build_chain_search_net
from spikeflow.errors import UndecidedError, UnknownNeuronError, WorkingMemoryExceeded
from spikeflow.oracle import (
    NeuromorphicOracle,
    OutputTape,
    ResourceReport,
    WorkingMemory,
)
from spikeflow.snn import TAPE_ROLES, Neuron, Role, Synapse, run

ONE = Fraction(1)
DECIDER_ROLES = (Role.ACCEPT, Role.REJECT)


def test_consulted_tape_charges_one_op_per_event_read():
    net, (T, H1, H2, R1, R2, C1, C2) = build_chain_search_net()
    oracle = NeuromorphicOracle()
    oracle.write_neurons(list(net.neurons.values()))
    oracle.write_synapses([s for out in net.out_synapses.values() for s in out])
    report = oracle.report
    tape, _ = oracle.consult(time_limit=5)
    before = report.controller_time
    assert list(tape) == tape.events == [(3, R1), (4, R2)]
    assert report.controller_time == before + 2
    assert next(iter(tape)) == (3, R1)  # a scan that stops early pays for what it read
    assert report.controller_time == before + 3
    assert list(OutputTape([], report)) == []
    assert report.controller_time == before + 3


def test_transducer_tape_contains_only_tape_roles():
    oracle = NeuromorphicOracle()
    oracle.write_neurons([Neuron(0, 1, 0, ONE, v0=1, role=Role.READOUT)])
    oracle.write_neurons([Neuron(1, 1, 0, ONE, v0=1, role=Role.STANDARD)])
    tape, record = oracle.consult(time_limit=3)
    assert tape.events == [(0, 0)]
    assert record.spikes == 2  # the standard neuron fired but stays off-tape
    assert record.timesteps == 3
    assert (record.mode, record.bit) == ("transducer", None)


def test_decider_accept_bit():
    oracle = NeuromorphicOracle()
    oracle.write_neurons([Neuron(0, 10, 0, ONE, v0=0, role=Role.ACCEPT)])
    oracle.write_schedule(0, 2)
    tape, record = oracle.consult(time_limit=5)
    assert (record.mode, record.bit, record.stop_step) == ("decider", 1, 2)
    assert tape.events == [(2, 0)]


def test_decider_reject_bit():
    oracle = NeuromorphicOracle()
    oracle.write_neurons([Neuron(0, 10, 0, ONE, v0=0, role=Role.REJECT)])
    oracle.write_schedule(0, 1)
    _, record = oracle.consult(time_limit=5)
    assert record.bit == 0


def test_decider_undecided_error():
    oracle = NeuromorphicOracle()
    oracle.write_neurons([Neuron(0, 10, 0, ONE, v0=0, role=Role.ACCEPT)])
    with pytest.raises(UndecidedError):
        oracle.consult(time_limit=4)
    # the failed consultation is still accounted for
    assert len(oracle.report.consultations) == 1


def test_chain_consult_matches_hand_propagated_tape():
    net, (T, H1, H2, R1, R2, C1, C2) = build_chain_search_net()
    oracle = NeuromorphicOracle()
    oracle.write_neurons(list(net.neurons.values()))
    oracle.write_synapses([s for out in net.out_synapses.values() for s in out])
    tape, record = oracle.consult(time_limit=2 * 2 + 1, stop_on_fire={R2})
    assert list(tape) == [(3, R1), (4, R2)]
    assert record.timesteps == 5
    assert record.spikes == 5
    assert record.network_size == 7 + 8


def test_written_voltage_persists_across_consultations():
    oracle = NeuromorphicOracle()
    oracle.write_neurons([Neuron(0, 8, 0, ONE, v0=5, role=Role.READOUT)])
    tape, _ = oracle.consult(time_limit=2)
    assert tape.events == []
    oracle.write_voltage(0, 3)
    assert oracle.read_voltage(0) == 8
    tape, _ = oracle.consult(time_limit=2)
    assert tape.events == [(0, 0)]
    # episode dynamics (the reset to 0) do not touch the written value
    assert oracle.read_voltage(0) == 8


def test_write_voltage_validation():
    oracle = NeuromorphicOracle()
    oracle.write_neurons([Neuron(0, 8, 0, ONE, v0=5)])
    with pytest.raises(UnknownNeuronError):
        oracle.write_voltage(3, 1)
    with pytest.raises(ValueError):
        oracle.write_voltage(0, -6)


def test_only_written_voltages_are_held(monkeypatch):
    starts = []

    def recording_run(net, max_steps, **kwargs):
        starts.append(dict(kwargs["initial_potentials"]))
        return run(net, max_steps, **kwargs)

    monkeypatch.setattr(spikeflow.oracle, "run", recording_run)
    oracle = NeuromorphicOracle()
    oracle.write_neurons([Neuron(nid, 3, 0, ONE, v0=v0, role=Role.READOUT) for nid, v0 in enumerate((3, 1, 2))])
    assert oracle.consult(time_limit=2)[0].events == [(0, 0)]
    oracle.write_voltage(0, -1)  # off threshold: no spike at t=0
    oracle.write_voltage(1, 2)  # onto threshold: a spike at t=0
    assert oracle.consult(time_limit=2)[0].events == [(0, 1)]
    assert starts == [{}, {0: 2, 1: 3}]
    assert [oracle.read_voltage(nid) for nid in range(3)] == [2, 3, 2]  # 2 was never written
    with pytest.raises(UnknownNeuronError):
        oracle.read_voltage(3)
    with pytest.raises(UnknownNeuronError):
        oracle.write_voltage(3, 1)
    oracle.consult(time_limit=2)
    assert starts[-1] == {0: 2, 1: 3}  # a refused write leaves nothing behind


def test_metering_counts_abstract_ops():
    report = ResourceReport()
    assert report.controller_time == 0
    oracle = NeuromorphicOracle(report)
    oracle.write_neurons([Neuron(0, 1, 0, ONE, v0=0)])
    oracle.write_voltage(0, 1)
    oracle.read_voltage(0)
    assert report.controller_time == 3


def test_bulk_writes_charge_one_op_per_row_and_equal_single_writes():
    net, _ = build_chain_search_net()
    neuron_rows = [tuple(n) for n in net.neurons.values()]
    synapse_rows = [tuple(s) for out in net.out_synapses.values() for s in out]
    bulk = NeuromorphicOracle()
    bulk.write_neurons(neuron_rows)
    bulk.write_synapses(synapse_rows)
    single = NeuromorphicOracle()
    for row in neuron_rows:
        single.write_neurons([row])
    for row in synapse_rows:
        single.write_synapses([row])
    assert bulk.report.controller_time == single.report.controller_time == len(neuron_rows) + len(synapse_rows)
    assert bulk.net.size() == single.net.size() == net.size()
    assert dict(bulk.net.neurons) == dict(single.net.neurons) == dict(net.neurons)
    assert dict(bulk.net.out_synapses) == dict(single.net.out_synapses) == dict(net.out_synapses)
    assert [bulk.read_voltage(i) for i in range(7)] == [n.v0 for n in net.neurons.values()]
    assert bulk.consult(6)[0].events == single.consult(6)[0].events


@pytest.mark.parametrize(
    "neurons,synapses,error,message",
    [
        ([(0, 1, 0, 1, 0, Role.STANDARD)] * 2, [], ValueError, "duplicate neuron id 0"),
        ([(3, 0, 0, 1, 0, Role.STANDARD)], [], ValueError, "neuron 3: threshold must be >= 1"),
        ([(3, 1, 0, 1, -1, Role.STANDARD)], [], ValueError, "neuron 3: initial potential must be >= 0"),
        ([(0, 1, 0, 1, 0, Role.STANDARD)], [(0, 0, -1, 1)], ValueError, "synapse delay must be >= 0"),
        ([(0, 1, 0, 1, 0, Role.STANDARD)], [(0, 0, 1, 1), (0, 5, 1, 1)], UnknownNeuronError, "endpoint 5"),
    ],
)
def test_bulk_writes_check_every_row(neurons, synapses, error, message):
    oracle = NeuromorphicOracle()
    with pytest.raises(error, match=message):
        oracle.write_neurons(neurons)
        oracle.write_synapses(synapses)


def test_resource_report_aggregates():
    report = ResourceReport()
    oracle = NeuromorphicOracle(report)
    oracle.write_neurons([Neuron(0, 1, 0, ONE, v0=1, role=Role.READOUT)])
    oracle.write_neurons([Neuron(1, 1, 0, ONE, v0=0)])
    oracle.write_synapses([Synapse(0, 1, 1, 1)])
    oracle.consult(time_limit=2)
    oracle.consult(time_limit=4)
    assert report.oracle_time == 4
    assert report.oracle_space == 3
    assert report.oracle_energy == 2 + 2  # readout plus driven neuron, twice
    data = report.to_dict()
    assert data["oracle_energy"] == report.oracle_energy
    assert len(data["consultations"]) == 2


def test_working_memory_capacity_and_peak():
    report = ResourceReport()
    wm = WorkingMemory(("a", "b"), report)
    assert report.controller_time == 2  # one op per word of the frame
    assert report.controller_wm_peak == 2
    assert wm.read("b") == 0
    wm.write("a", 1)
    wm.write("a", 3)  # overwrite is fine
    assert wm.read("a") == 3
    assert report.controller_time == 2 + 4
    assert wm.peak_bits == 2  # 3 is the widest value written
    with pytest.raises(WorkingMemoryExceeded):
        wm.write("c", 4)
    assert report.controller_time == 2 + 4  # a refused write costs nothing
    wm.write("a", -9)
    wm.write("a", 0)
    assert wm.peak_bits == 4
    assert report.controller_wm_peak == 2


def test_time_limit_must_be_positive():
    oracle = NeuromorphicOracle()
    with pytest.raises(ValueError):
        oracle.consult(time_limit=0)


def _consult_or_undecided(oracle, limit, stop):
    try:
        return oracle.consult(time_limit=limit, stop_on_fire=stop)
    except UndecidedError:
        return None, oracle.report.consultations[-1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_replayed_consultations_equal_fresh_runs(data):
    """Random consults with random stop sets and limits, with voltage and
    synapse writes in between: every tape and record equals a fresh run.
    When every neuron has a tape role, the tape is the whole trace, so each
    spike is compared.  A network with an accept or reject neuron is
    consulted as a decider, and any other as a transducer."""
    oracle = NeuromorphicOracle()
    n = data.draw(st.integers(2, 6))
    roles = [Role.READOUT]
    if data.draw(st.booleans()):
        roles += [Role.ACCEPT, Role.REJECT]
    if data.draw(st.booleans()):
        roles.append(Role.STANDARD)
    resting = {}
    for nid in range(n):
        neuron = Neuron(
            nid,
            threshold=data.draw(st.integers(1, 4)),
            reset=data.draw(st.integers(0, 2)),
            leak=data.draw(st.sampled_from([Fraction(0), ONE])),
            v0=data.draw(st.integers(0, 4)),
            role=data.draw(st.sampled_from(roles)),
        )
        oracle.write_neurons([neuron])
        resting[nid] = neuron.v0
    synapses = st.builds(
        Synapse, st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3), st.integers(-2, 3)
    )
    for syn in data.draw(st.lists(synapses, max_size=10)):
        oracle.write_synapses([syn])
    for _ in range(data.draw(st.integers(1, 12))):
        action = data.draw(st.sampled_from(["consult", "consult", "consult", "voltage", "synapse"]))
        if action == "voltage":
            nid = data.draw(st.integers(0, n - 1))
            delta = data.draw(st.integers(-resting[nid], 3))
            oracle.write_voltage(nid, delta)
            resting[nid] += delta
            continue
        if action == "synapse":
            oracle.write_synapses([data.draw(synapses)])
            continue
        stop = data.draw(st.none() | st.sets(st.integers(0, n - 1), max_size=3))
        limit = data.draw(st.integers(1, 16))
        tape, record = _consult_or_undecided(oracle, limit, stop)
        bits = {i: int(nr.role is Role.ACCEPT) for i, nr in oracle.net.neurons.items() if nr.role in DECIDER_ROLES}
        if bits and stop is None:
            stop = set(bits)
        fresh = run(oracle.net.copy(), limit, stop_on_fire=stop, initial_potentials=dict(resting))
        read = {bits[nid] for _, nid in fresh.trace if nid in bits}
        assert record.mode == ("decider" if bits else "transducer")
        assert record.bit == (max(read) if read else None)
        assert (tape is None) == bool(bits and not read)
        assert record.timesteps == fresh.steps_used
        assert record.spikes == len(fresh.trace)
        assert record.stop_step == (fresh.t if fresh.halted else None)
        assert record.repeat_spikes == len(fresh.trace) - len({nid for _, nid in fresh.trace})
        assert record.network_size == len(oracle.net.neurons) + sum(
            len(out) for out in oracle.net.out_synapses.values()
        )
        if tape is not None:
            roles = oracle.net.neurons
            assert tape.events == [(t, i) for t, i in fresh.trace if roles[i].role in TAPE_ROLES]


def test_one_simulation_per_network_version(monkeypatch):
    calls = []

    def counting_run(net, max_steps, **kwargs):
        calls.append(max_steps)
        return run(net, max_steps, **kwargs)

    monkeypatch.setattr(spikeflow.oracle, "run", counting_run)
    net, (T, H1, H2, R1, R2, C1, C2) = build_chain_search_net()
    oracle = NeuromorphicOracle()
    oracle.write_neurons(list(net.neurons.values()))
    oracle.write_synapses([s for out in net.out_synapses.values() for s in out])
    first_tape, first = oracle.consult(time_limit=5, stop_on_fire={R2})
    again_tape, again = oracle.consult(time_limit=5, stop_on_fire={R2})
    shorter_tape, shorter = oracle.consult(time_limit=5, stop_on_fire={H1})
    assert calls == [5]
    assert first_tape.events == again_tape.events == [(3, R1), (4, R2)]
    assert (first.spikes, first.timesteps, first.stop_step) == (again.spikes, again.timesteps, 4)
    assert first.spikes == 5 and first.timesteps == 5
    # T, H2 and H1 spike, at steps 0, 1 and 2
    assert shorter_tape.events == [] and shorter.spikes == 3
    assert shorter.stop_step == 2 and shorter.timesteps == 3
    # a consultation the saved run cannot decide runs the version afresh
    longer_tape, longer = oracle.consult(time_limit=9)
    assert calls == [5, 9]
    assert longer_tape.events == first_tape.events and longer.spikes == first.spikes
    assert longer.timesteps == 9 and longer.stop_step is None
    oracle.consult(time_limit=7)
    assert calls == [5, 9]  # the longer run is kept for the version
    # R2 spikes at step 4 of the kept run, past a limit of 4: cut at the limit
    limited_tape, limited = oracle.consult(time_limit=4, stop_on_fire={R2})
    assert calls == [5, 9]
    assert limited_tape.events == [(3, R1)] and limited.spikes == 4
    assert limited.timesteps == 4 and limited.stop_step is None
    # a write starts a new version: the next consultation simulates afresh
    oracle.write_voltage(C2, 5)
    blocked_tape, blocked = oracle.consult(time_limit=5, stop_on_fire={R2})
    assert calls == [5, 9, 5]
    # only T and the saturated C2 spike, at step 0; the wave is blocked
    assert blocked_tape.events == [] and blocked.spikes == 2
    assert blocked.timesteps == 5 and blocked.stop_step is None
    assert all(r.repeat_spikes == 0 for r in (first, again, shorter, longer, blocked))


def test_first_consultation_equals_its_replay(monkeypatch):
    # neuron 0 is a readout that fires every step (repeats); 1 fires at 2 and
    # 3, and 2 once at 3 from 1's delay-1 synapse
    calls = []

    def counting_run(net, max_steps, **kwargs):
        calls.append(max_steps)
        return run(net, max_steps, **kwargs)

    monkeypatch.setattr(spikeflow.oracle, "run", counting_run)
    oracle = NeuromorphicOracle()
    oracle.write_neurons([
        (0, 1, 1, 1, 1, Role.READOUT),
        (1, 1, 0, 1, 0, Role.STANDARD),
        (2, 1, 0, 1, 0, Role.READOUT),
    ])
    oracle.write_schedule(1, 2)
    oracle.write_schedule(1, 3)
    oracle.write_synapses([(1, 2, 1, 1)])
    for stop, limit in ((None, 6), ({2}, 6)):
        first_tape, first = oracle.consult(time_limit=limit, stop_on_fire=stop)
        again_tape, again = oracle.consult(time_limit=limit, stop_on_fire=stop)
        assert again_tape.events == first_tape.events
        assert (again.spikes, again.repeat_spikes, again.timesteps, again.stop_step) == (
            first.spikes, first.repeat_spikes, first.timesteps, first.stop_step
        )
        oracle.write_voltage(2, 0)  # a new version for the next pair
    assert calls == [6, 6]
    # the halting pair: 0 at steps 0..3, 1 at 2 and 3, 2 at 3
    assert (first.spikes, first.repeat_spikes, first.timesteps, first.stop_step) == (7, 4, 4, 3)
    assert first_tape.events == [(0, 0), (1, 0), (2, 0), (3, 0), (3, 2)]


def test_decider_sees_accept_and_reject_neurons_written_after_a_consultation():
    oracle = NeuromorphicOracle()
    oracle.write_neurons([Neuron(0, 1, 1, ONE, v0=1, role=Role.READOUT)])
    _, record = oracle.consult(time_limit=3)
    assert (record.mode, record.stop_step) == ("transducer", None)
    oracle.write_neurons([Neuron(1, 10, 0, ONE, role=Role.ACCEPT)])
    oracle.write_schedule(1, 4)
    tape, record = oracle.consult(time_limit=8)
    assert record.mode == "decider"
    assert (record.bit, record.stop_step, tape.events[-1]) == (1, 4, (4, 1))
    oracle.write_neurons([Neuron(2, 10, 0, ONE, role=Role.REJECT)])
    oracle.write_schedule(2, 2)
    tape, record = oracle.consult(time_limit=8)
    assert (record.bit, record.stop_step, tape.events[-1]) == (0, 2, (2, 2))


def test_threshold_of_charges_one_op_and_rejects_unknown_ids():
    oracle = NeuromorphicOracle()
    oracle.write_neurons([Neuron(0, 7, 0, ONE, v0=2)])
    before = oracle.report.controller_time
    assert oracle.threshold_of(0) == 7
    assert oracle.report.controller_time == before + 1
    with pytest.raises(UnknownNeuronError):
        oracle.threshold_of(1)
