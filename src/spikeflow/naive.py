"""Exponential single-consultation decider for the max-flow decision problem.

Enumerates every candidate flow whose source outflow exceeds the threshold
and builds, per candidate and interior node, a spiking comparison circuit
that reports conservation violations.  A candidate's violation neuron feeds
a global reject latch; an accept neuron fires on schedule unless the latch
silences it.  Intentionally desk-scale only: the network is exponential in
the instance size, which is the point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GuardExceeded
from .flow import FlowNetwork
from .oracle import NeuromorphicOracle, ResourceReport
from .snn import Role

STANDARD = Role.STANDARD

CANDIDATE_GUARD = 4096


def candidate_count_bound(net: FlowNetwork) -> int:
    bound = 1
    for e in net.edges:
        bound *= e.cap + 1
        if bound > CANDIDATE_GUARD:
            return bound
    return bound


def enumerate_candidates(net: FlowNetwork, d: int):
    """All per-edge flow assignments with source outflow > d, in lexicographic
    edge-id order.  Conservation is deliberately not filtered here: testing it
    is the spiking network's job."""
    domains = [range(e.cap + 1) for e in net.edges]
    source_ids = [e.id for e in net.out_edges[net.source]]
    for combo in itertools.product(*domains):
        if sum(combo[i] for i in source_ids) > d:
            yield combo


@dataclass
class DeciderLayout:
    accept_id: int
    reject_id: int
    accept_time: int
    f_max: int
    n_candidates: int
    n_neurons: int
    n_interior: int


def add_conservation_subnet(
    neurons: list[tuple],
    synapses: list[tuple],
    metronome: int,
    flow_in: int,
    flow_out: int,
) -> int:
    """Detector for one (candidate, node) pair: appends its neuron and synapse
    rows and returns the neuron that fires at ``min(flow_in, flow_out) + 2``
    iff the two values differ.  A neuron's id is its row's index in
    ``neurons``, so the subnet takes the next seven ids.

    Two single-shot timers fire at their respective values: the metronome
    feeds each one unit per step against a value+1 threshold, and a latch
    cancels the drive once it has fired.  Each of two one-sided coincidence
    detectors (memoryless, leak 0) fires when its timer fired unaccompanied
    one step earlier; either detector trips the output, which uses the
    single-spike offset idiom so later events cannot re-trip it.
    """
    timer_in = len(neurons)
    latch_in, timer_out, latch_out, out, det_in, det_out = range(timer_in + 1, timer_in + 7)
    neurons += (
        (timer_in, flow_in + 1, 0, 1, 0, STANDARD), (latch_in, 1, 0, 1, 0, STANDARD),
        (timer_out, flow_out + 1, 0, 1, 0, STANDARD), (latch_out, 1, 0, 1, 0, STANDARD),
        (out, 3, 0, 1, 2, STANDARD), (det_in, 1, 0, 0, 0, STANDARD), (det_out, 1, 0, 0, 0, STANDARD),
    )
    synapses += (
        # per timer: metronome drive, fire sets the latch, the latch holds and cancels the drive
        (metronome, timer_in, 0, 1), (timer_in, latch_in, 0, 1),
        (latch_in, latch_in, 1, 1), (latch_in, timer_in, 0, -1),
        (metronome, timer_out, 0, 1), (timer_out, latch_out, 0, 1),
        (latch_out, latch_out, 1, 1), (latch_out, timer_out, 0, -1),
        # per detector: its timer excites, the other timer inhibits, it trips the output
        (timer_in, det_in, 1, 1), (timer_out, det_in, 1, -1), (det_in, out, 1, 1),
        (timer_out, det_out, 1, 1), (timer_in, det_out, 1, -1), (det_out, out, 1, 1),
    )
    return out


def _interior_nodes(net: FlowNetwork) -> list[int]:
    return [
        v
        for v in range(net.n_nodes)
        if v not in (net.source, net.sink) and (net.in_edges[v] or net.out_edges[v])
    ]


def _worst_detector_latency(net: FlowNetwork) -> int:
    """Upper bound on any violation detector's firing time.

    A detector fires at min(flow_in, flow_out) + 2 and only when the two
    differ, so the worst case over a node is min of the incident capacity
    sums, less one when those sums are equal (equal maxima cannot differ).
    """
    worst = 0
    for v in _interior_nodes(net):
        cap_in = sum(e.cap for e in net.in_edges[v])
        cap_out = sum(e.cap for e in net.out_edges[v])
        if cap_in == 0 and cap_out == 0:
            continue
        bound = min(cap_in, cap_out) - (1 if cap_in == cap_out else 0)
        worst = max(worst, bound)
    return worst + 2


def build_decider(net: FlowNetwork, d: int, oracle: NeuromorphicOracle) -> DeciderLayout:
    """Write the full pre-processing decider network onto the oracle: its
    neuron rows, then its synapse rows, then the two schedules."""
    bound = candidate_count_bound(net)
    if bound > CANDIDATE_GUARD:
        raise GuardExceeded(f"candidate bound {bound} exceeds {CANDIDATE_GUARD}")
    f_max = max((e.cap for e in net.edges), default=0)
    interior = _interior_nodes(net)
    metronome = 0
    neurons: list[tuple] = [(metronome, 1, 1, 1, 1, Role.INPUT)]
    synapses: list[tuple] = []

    candidate_outputs: list[int] = []
    for combo in enumerate_candidates(net, d):
        violation = len(neurons)  # fires once if any conservation constraint breaks
        neurons.append((violation, net.n_nodes + 2, 0, 1, net.n_nodes + 1, STANDARD))
        for v in interior:
            flow_in = sum(combo[e.id] for e in net.in_edges[v])
            flow_out = sum(combo[e.id] for e in net.out_edges[v])
            detector = add_conservation_subnet(neurons, synapses, metronome, flow_in, flow_out)
            synapses.append((detector, violation, 0, 1))
        candidate_outputs.append(violation)

    n_candidates = len(candidate_outputs)
    # the reject latch must hear from every candidate before it may fire
    reject = len(neurons)
    reject_threshold = max(n_candidates, 1)
    neurons.append((reject, reject_threshold, 0, 1, 0, Role.REJECT))
    synapses.append((reject, reject, 1, reject_threshold))
    synapses += [(violation, reject, 0, 1) for violation in candidate_outputs]

    # accept fires on schedule unless the reject latch keeps inhibiting it.
    # The latch fires in the step of the last violation report, at most the
    # worst detector latency, and inhibits accept from the next step on; the
    # schedule keeps one step of slack beyond that, and at least f_max + 5
    accept_time = max(f_max + 5, _worst_detector_latency(net) + 2)
    accept, starter = reject + 1, reject + 2
    neurons += [(accept, 1, 0, 1, 0, Role.ACCEPT), (starter, accept_time + 2, 0, 1, 0, Role.SCHEDULED)]
    synapses += [(starter, accept, 0, 1), (reject, accept, 1, -2)]

    oracle.write_neurons(neurons)
    oracle.write_synapses(synapses)
    if n_candidates == 0:
        oracle.write_schedule(reject, 0)
    oracle.write_schedule(starter, accept_time)

    return DeciderLayout(
        accept_id=accept,
        reject_id=reject,
        accept_time=accept_time,
        f_max=f_max,
        n_candidates=n_candidates,
        n_neurons=len(neurons),
        n_interior=len(interior),
    )


@dataclass
class NaiveDecision:
    accepted: bool
    accept_fire_time: int | None
    layout: DeciderLayout
    report: ResourceReport


def decide_naive(net: FlowNetwork, d: int) -> NaiveDecision:
    """Single oracle consultation (pre-processing model): build, run, read a bit."""
    report = ResourceReport()
    oracle = NeuromorphicOracle(report)
    layout = build_decider(net, d, oracle)
    # the run halts at its first accept or reject spike, so an accepting
    # run's stop step is the accept neuron's firing time
    _, record = oracle.consult(time_limit=layout.accept_time + 2)
    accepted = record.bit == 1
    return NaiveDecision(
        accepted=accepted,
        accept_fire_time=record.stop_step if accepted else None,
        layout=layout,
        report=report,
    )
