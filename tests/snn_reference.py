"""Reference simulator: a direct, dict-based reading of the LIF step rule.

It reads every neuron and synapse through the public ``SpikingNetwork``
records (``neurons``, ``out_synapses``, ``schedule``) and reads each
neuron's leak one neuron at a time, with no precomputed tables.
It exists only to check ``spikeflow.snn`` against; it shares no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from spikeflow.snn import SpikingNetwork


@dataclass
class RefState:
    t: int = 0
    potentials: dict[int, int] = field(default_factory=dict)
    last_update: dict[int, int] = field(default_factory=dict)
    pending: dict[int, dict[int, int]] = field(default_factory=dict)
    trace: list[tuple[int, int]] = field(default_factory=list)
    halted: bool = False
    recheck: set[int] = field(default_factory=set)

    @classmethod
    def initial(cls, net: SpikingNetwork) -> "RefState":
        state = cls()
        for nid, neuron in net.neurons.items():
            state.potentials[nid] = neuron.v0
            state.last_update[nid] = 0
        state.recheck = {
            nid for nid, n in net.neurons.items() if state.potentials[nid] >= n.threshold
        }
        return state

    @property
    def steps_used(self) -> int:
        return self.t + 1 if self.halted else self.t


def materialize(net: SpikingNetwork, state: RefState, nid: int, t: int) -> int:
    """Bring V up to time ``t`` and return it: a leak-0 neuron last updated
    before ``t`` has forgotten its potential; a leak-1 neuron holds it."""
    if state.last_update[nid] == t:
        return state.potentials[nid]
    v = state.potentials[nid]
    if v and net.neurons[nid].leak == 0:
        v = 0
    state.potentials[nid] = v
    state.last_update[nid] = t
    return v


def step(net: SpikingNetwork, state: RefState) -> frozenset[int]:
    """Execute timestep ``state.t``; returns the spike set of the step.

    Scheduled fires, then rounds until a round queues no delay-0 output:
    deliver a batch (first the arrivals due now, then the delay-0 output
    not yet delivered), check each neuron it reached (in the first round
    also those left at threshold), and fire those at threshold that have
    not fired this step.  Then the clamp at zero.
    """
    t = state.t
    fired: set[int] = set()
    touched: set[int] = set()
    zero_queue: list[tuple[int, int]] = []

    def do_fire(nid: int) -> None:
        fired.add(nid)
        neuron = net.neurons[nid]
        v = materialize(net, state, nid, t)
        if net.overflow_reset:
            state.potentials[nid] = v - neuron.threshold
        else:
            state.potentials[nid] = neuron.reset
        touched.add(nid)
        for syn in net.out_synapses[nid]:
            if syn.delay == 0:
                zero_queue.append((syn.post, syn.weight))
            else:
                bucket = state.pending.setdefault(t + syn.delay, {})
                bucket[syn.post] = bucket.get(syn.post, 0) + syn.weight

    for nid, time in net.schedule:
        if time == t and nid not in fired:
            do_fire(nid)

    batch = list(state.pending.pop(t, {}).items())
    check = state.recheck
    state.recheck = set()
    while True:
        for post, weight in batch:
            materialize(net, state, post, t)
            state.potentials[post] += weight
            touched.add(post)
            check.add(post)
        for nid in sorted(check):
            if nid not in fired and materialize(net, state, nid, t) >= net.neurons[nid].threshold:
                do_fire(nid)
        if not zero_queue:
            break
        batch = list(zero_queue)
        zero_queue.clear()
        check = set()

    for nid in touched:
        if state.potentials[nid] < 0:
            state.potentials[nid] = 0
        elif state.potentials[nid] >= net.neurons[nid].threshold:
            state.recheck.add(nid)

    state.trace.extend((t, nid) for nid in sorted(fired))
    state.t = t + 1
    return frozenset(fired)


def run(net: SpikingNetwork, max_steps: int, stop_on_fire: Iterable[int] | None = None) -> RefState:
    """Step from a fresh state until ``max_steps`` or the first stop spike."""
    state = RefState.initial(net)
    stop_set = frozenset(stop_on_fire) if stop_on_fire is not None else None
    while state.t < max_steps:
        fired = step(net, state)
        if stop_set is not None and not stop_set.isdisjoint(fired):
            state.t -= 1
            state.halted = True
            break
    return state


def current_potentials(net: SpikingNetwork, state: RefState) -> dict[int, int]:
    """Every neuron's potential with its leak applied up to ``state.t``."""
    return {nid: materialize(net, state, nid, state.t) for nid in net.neurons}
