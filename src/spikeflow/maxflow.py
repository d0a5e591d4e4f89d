"""Spiking Edmonds-Karp: capacity/search/readout constructions plus the controller loop.

Neuron families per arc (offset K):

* capacity ``C``: threshold ``cap + K``, potential ``K + flow`` -- fires at
  step 0 exactly when the arc is exhausted, and its delay-0 inhibition of the
  arc's wave neurons lands before the delay-1 wave.
* search ``H``: threshold ``K + 1``, potential ``K`` -- a backward wave from
  the sink edges; fires once, at ``1 + (shortest hop count from the arc's
  head to the sink)``.
* readout ``R`` (forward-decode mode only): same idiom, flooded forward from
  source edges whose ``H`` fired; sink-edge readouts fire at ``2 * L`` for an
  augmenting path of ``L`` edges.

A wave crosses a node v from one side's arcs to the other's.  Where
``in(v) * out(v) > in(v) + out(v) + 1`` it goes through one hub neuron per
wave family (threshold ``K + 1``, potential ``K``, not on the tape) instead
of one synapse per arc pair: the arcs on the wave's upstream side excite the
hub with delay 0 and the hub excites the other side with delay 1.  An arc
neuron fires in the first round of its step, so its hub fires in the next
round of the same step, which delivers the arc's delay-0 output, and every
arc neuron fires at the step it would with direct wiring; the hub's fan-in
is below K, so it fires once.
Each family thus costs at most ``in(v) + out(v) + 1`` neurons and synapses
per node, and the oracle network is linear in ``n + m``.

``solve`` offers two modes.  ``paper-faithful`` augments greedily over
forward arcs only and decodes one readout tape per episode; it is feasible
but not always optimal.  ``residual`` materializes a reverse companion arc
(with a mirror capacity neuron) per edge and walks the search wave one arc
per consultation, which makes it exactly Edmonds-Karp.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ConstructionBugError
from .flow import Edge, FlowAssignment, FlowNetwork
from .oracle import ConsultMode, ConsultRecord, NeuromorphicOracle, OutputTape, ResourceReport, WorkingMemory
from .snn import Role

PAPER_FAITHFUL = "paper-faithful"
RESIDUAL = "residual"

# The controller's fixed working-memory frame: the eight words it ever uses,
# in any mode.  ``solve`` allocates the whole frame before the first query,
# so the frame, not the words a given input happens to touch, sets the peak.
_WM_WORDS = ("head", "min_cap", "started", "episodes", "jams", "delta", "value", "tmp")


class DecodeJamError(ConstructionBugError):
    """Greedy tape decoding started a path but could not complete it."""


class Arc(NamedTuple):
    idx: int
    tail: int
    head: int
    cap: int      # 0 for reverse companions; their headroom lives in the mirror


def _companion_edges(net: FlowNetwork) -> list[Edge]:
    """The edges that get a reverse companion in residual mode: an arc into
    the source or out of the sink can never lie on an augmenting path."""
    return [e for e in net.edges if e.tail != net.source and e.head != net.sink]


class EdgeNeuronMap:
    """Arc table plus the arithmetic neuron-id layout for one oracle network.

    Ids: transmitter 0, capacity family ``1..U``, search family ``U+1..2U``,
    readout family ``2U+1..3U`` (forward-decode mode only), where U is the
    arc count, then the hubs from ``first_hub_id()`` (``3U+1``, or ``2U+1``
    in residual mode): search hubs in node order, then readout hubs.
    Readout/search ids ascend with arc index, so the oracle's (time, id)
    tape order breaks same-step ties by arc index.
    """

    def __init__(self, net: FlowNetwork, residual: bool):
        self.net = net
        self.residual = residual
        arcs = [Arc(e.id, e.tail, e.head, e.cap) for e in net.edges]
        # mirror[i]: the index of arc i's reverse companion, or of the forward
        # arc a companion reverses; None for an arc without one
        mirror: list[int | None] = [None] * len(arcs)
        if residual:
            for e in _companion_edges(net):
                mirror[e.id] = len(arcs)
                mirror.append(e.id)
                arcs.append(Arc(len(arcs), e.head, e.tail, 0))
        self.arcs = arcs
        self.n_arcs = len(arcs)
        self.mirror = mirror
        # offset: |E|+1 in forward-decode mode.  In residual mode the fixed
        # arc-universe bound 2|E|+1, so capacity thresholds survive flow
        # updates, or the largest capacity if that is more: a mirror rests at
        # K minus its forward arc's flow and must not go below zero
        if residual:
            self.K = max([2 * net.n_edges + 1] + [e.cap for e in net.edges])
        else:
            self.K = net.n_edges + 1
        self.arcs_by_tail: dict[int, list[Arc]] = {}
        self.arcs_by_head: dict[int, list[Arc]] = {}
        for a in arcs:
            self.arcs_by_tail.setdefault(a.tail, []).append(a)
            self.arcs_by_head.setdefault(a.head, []).append(a)

    # --- id layout ---

    transmitter_id = 0

    def cap_id(self, arc_idx: int) -> int:
        return 1 + arc_idx

    def search_id(self, arc_idx: int) -> int:
        return 1 + self.n_arcs + arc_idx

    def readout_id(self, arc_idx: int) -> int:
        return 1 + 2 * self.n_arcs + arc_idx

    def first_hub_id(self) -> int:
        return 1 + (2 if self.residual else 3) * self.n_arcs

    def arc_of_readout(self, neuron_id: int) -> Arc:
        return self.arcs[neuron_id - 1 - 2 * self.n_arcs]

    def arc_of_search(self, neuron_id: int) -> Arc:
        return self.arcs[neuron_id - 1 - self.n_arcs]

    def sink_arc_idxs(self) -> list[int]:
        return [a.idx for a in self.arcs_by_head.get(self.net.sink, [])]

    def source_arc_idxs(self) -> list[int]:
        return [a.idx for a in self.arcs_by_tail.get(self.net.source, [])]

    def query_time_limit(self) -> int:
        return 2 * self.n_arcs + 1


@dataclass
class PathRecord:
    arcs: list[Arc]
    min_cap: int

    def __post_init__(self):
        if not self.arcs:
            raise ConstructionBugError("empty path")
        if self.min_cap < 1:
            raise ConstructionBugError("augmenting path with no headroom")
        for prev, nxt in zip(self.arcs, self.arcs[1:]):
            if prev.head != nxt.tail:
                raise ConstructionBugError("path edges do not chain")


def build_capacity_neurons(oracle: NeuromorphicOracle, emap: EdgeNeuronMap) -> None:
    """One accumulator neuron per arc; its potential above K is the arc's flow."""
    K, C = emap.K, emap.cap_id(0)
    # a fresh reverse companion has no headroom until flow is pushed,
    # so it starts exactly at threshold and silences its wave neuron
    oracle.write_neurons([(C + a.idx, a.cap + K, 0, 1, K, Role.CAPACITY) for a in emap.arcs])


def build_search_network(oracle: NeuromorphicOracle, emap: EdgeNeuronMap) -> None:
    """Transmitter, backward search wave, and (forward-decode mode) the
    forward readout network, wired against the already-written capacities.

    The search wave runs from a node's out-arcs to its in-arcs and the
    readout wave from its in-arcs to its out-arcs, through a hub where that
    takes fewer synapses (see the module docstring)."""
    K, C, S, R = emap.K, emap.cap_id(0), emap.search_id(0), emap.readout_id(0)
    arcs, by_tail, by_head = emap.arcs, emap.arcs_by_tail, emap.arcs_by_head
    with_readout = not emap.residual
    search_role = Role.READOUT if emap.residual else Role.STANDARD
    neurons = [(emap.transmitter_id, 1, 0, 1, 1, Role.TRANSMITTER)]
    neurons += [(S + a.idx, 1 + K, 0, 1, K, search_role) for a in arcs]
    synapses = [(C + a.idx, S + a.idx, 0, -K) for a in arcs]
    if with_readout:
        neurons += [(R + a.idx, 1 + K, 0, 1, K, Role.READOUT) for a in arcs]
        synapses += [(C + a.idx, R + a.idx, 0, -K) for a in arcs]
    synapses += [(emap.transmitter_id, S + idx, 1, 1) for idx in emap.sink_arc_idxs()]
    if with_readout:
        synapses += [(S + idx, R + idx, 1, 1) for idx in emap.source_arc_idxs()]
    # (family base, the arcs at a node that fire first, the arcs they excite)
    waves = [(S, by_tail, by_head)]
    if with_readout:
        waves.append((R, by_head, by_tail))
    hub = emap.first_hub_id()
    for base, senders_at, receivers_at in waves:
        for v in range(emap.net.n_nodes):
            senders, receivers = senders_at.get(v, ()), receivers_at.get(v, ())
            if len(senders) * len(receivers) > len(senders) + len(receivers) + 1:
                neurons.append((hub, 1 + K, 0, 1, K, Role.STANDARD))
                synapses += [(base + a.idx, hub, 0, 1) for a in senders]
                synapses += [(hub, base + a.idx, 1, 1) for a in receivers]
                hub += 1
            else:
                synapses += [(base + a.idx, base + b.idx, 1, 1) for a in senders for b in receivers]
    oracle.write_neurons(neurons)
    oracle.write_synapses(synapses)


def run_search_query(oracle: NeuromorphicOracle, emap: EdgeNeuronMap) -> tuple[OutputTape, ConsultRecord]:
    """One episode's query: run until a sink-edge readout spikes, or for the
    full 2*arcs+1 steps when no augmenting path remains."""
    stop = {emap.readout_id(i) for i in emap.sink_arc_idxs()}
    return oracle.consult(
        ConsultMode.TRANSDUCER,
        time_limit=emap.query_time_limit(),
        stop_on_fire=stop or None,
    )


def _remaining_capacity(oracle: NeuromorphicOracle, emap: EdgeNeuronMap, arc: Arc) -> int:
    cid = emap.cap_id(arc.idx)
    return oracle.threshold_of(cid) - oracle.read_voltage(cid)


def decode_path(
    tape: OutputTape,
    emap: EdgeNeuronMap,
    oracle: NeuromorphicOracle,
    wm: WorkingMemory,
) -> PathRecord | None:
    """Single forward scan of a readout tape.

    Starts at the first source-edge event, accepts an event exactly when its
    arc continues the previous one, tracks the minimum remaining capacity and
    stops at an accepted sink-edge event.  Only three working-memory words
    are live (continuation head, running minimum, progress flag); the path
    itself is written back onto the oracle's path store.

    Returns None when the tape holds no source-edge event.  A tape that
    starts a path the scan cannot finish raises :class:`DecodeJamError`
    (the readout flood can outrun a greedy scan on branchy graphs).
    """
    source, sink = emap.net.source, emap.net.sink
    wm.write("started", 0)
    wm.write("min_cap", 0)
    wm.write("head", source)
    for _, nid in tape:
        arc = emap.arc_of_readout(nid)
        if not wm.read("started"):
            if arc.tail != source:
                continue
        elif arc.tail != wm.read("head"):
            continue
        wm.write("tmp", _remaining_capacity(oracle, emap, arc))
        if wm.read("tmp") < 1:
            raise ConstructionBugError("saturated arc fired a readout")
        if not wm.read("started") or wm.read("tmp") < wm.read("min_cap"):
            wm.write("min_cap", wm.read("tmp"))
        wm.write("started", 1)
        wm.write("head", arc.head)
        oracle.write_path(arc.idx)
        if arc.head == sink:
            return _path_from_store(oracle, emap, wm.read("min_cap"))
    if not wm.read("started"):
        return None
    raise DecodeJamError(
        "readout tape started a path but offered no continuation to the sink"
    )


def _path_from_store(
    oracle: NeuromorphicOracle, emap: EdgeNeuronMap, min_cap: int, reverse: bool = False
) -> PathRecord:
    arcs = [emap.arcs[idx] for idx in oracle.read_path()]
    if reverse:
        arcs.reverse()
    return PathRecord(arcs, min_cap)


def recover_path_backward(
    oracle: NeuromorphicOracle,
    emap: EdgeNeuronMap,
    wm: WorkingMemory,
) -> PathRecord:
    """Jam recovery: rebuild a path by chaining readout events backward in time.

    A jammed tape still ends in a sink-edge readout, and every fired readout
    was excited by an event exactly one step earlier, so walking "who fired
    at t-1 into my tail" from the first sink event always reaches a source
    edge.  Each hop is a new metered consultation that yields the identical
    tape (the network has not changed since the jammed query), and the scan
    reads it afresh; the oracle serves these consultations by replaying its
    one run of the network rather than simulating it again.
    """
    oracle.clear_path()
    source = emap.net.source
    sink_ids = {emap.readout_id(i) for i in emap.sink_arc_idxs()}
    tape, _ = run_search_query(oracle, emap)
    wm.write("started", 0)
    for t, nid in tape:
        if nid in sink_ids:
            arc = emap.arc_of_readout(nid)
            wm.write("tmp", t)
            wm.write("min_cap", _remaining_capacity(oracle, emap, arc))
            wm.write("head", arc.tail)
            oracle.write_path(arc.idx)
            wm.write("started", 1)
            break
    if not wm.read("started"):
        raise ConstructionBugError("jammed tape holds no sink-edge readout")
    while wm.read("head") != source:
        tape, _ = run_search_query(oracle, emap)
        for t, nid in tape:
            if t >= wm.read("tmp"):
                raise ConstructionBugError("backward chain lost its exciter")
            arc = emap.arc_of_readout(nid)
            if t == wm.read("tmp") - 1 and arc.head == wm.read("head"):
                if _remaining_capacity(oracle, emap, arc) < wm.read("min_cap"):
                    wm.write("min_cap", _remaining_capacity(oracle, emap, arc))
                oracle.write_path(arc.idx)
                wm.write("head", arc.tail)
                wm.write("tmp", wm.read("tmp") - 1)
                break
        else:
            raise ConstructionBugError("backward chain lost its exciter")
    return _path_from_store(oracle, emap, wm.read("min_cap"), reverse=True)


def descend_path(
    oracle: NeuromorphicOracle,
    emap: EdgeNeuronMap,
    wm: WorkingMemory,
) -> PathRecord | None:
    """Residual-mode path extraction: one consultation per path arc.

    Every consultation is metered as a fresh run of the (identical,
    deterministic) backward wave that stops at the first fired search neuron
    among the current node's out-arcs; the oracle serves it by cutting its
    one run of the network at that spike.  That arc's head is one hop closer
    to the sink, so the walk terminates at the sink in shortest-path length
    many steps.
    """
    source, sink = emap.net.source, emap.net.sink
    wm.write("head", source)
    wm.write("min_cap", 0)
    wm.write("started", 0)
    while True:
        out_arcs = emap.arcs_by_tail.get(wm.read("head"), [])
        stop = {emap.search_id(a.idx) for a in out_arcs}
        if not stop:
            if not wm.read("started"):
                return None
            raise ConstructionBugError("descent reached a node with no out-arcs")
        tape, _ = oracle.consult(
            ConsultMode.TRANSDUCER, time_limit=emap.query_time_limit(), stop_on_fire=stop
        )
        for _, nid in tape:
            accepted = emap.arc_of_search(nid)
            if accepted.tail == wm.read("head"):
                break
        else:
            if not wm.read("started"):
                return None  # no augmenting path at all
            raise ConstructionBugError("descent wave died before the sink")
        wm.write("tmp", _remaining_capacity(oracle, emap, accepted))
        if wm.read("tmp") < 1:
            raise ConstructionBugError("inhibited arc fired in the search wave")
        if not wm.read("started") or wm.read("tmp") < wm.read("min_cap"):
            wm.write("min_cap", wm.read("tmp"))
        wm.write("started", wm.read("started") + 1)
        if wm.read("started") > emap.n_arcs:
            raise ConstructionBugError("descent exceeded the arc count")
        oracle.write_path(accepted.idx)
        wm.write("head", accepted.head)
        if accepted.head == sink:
            return _path_from_store(oracle, emap, wm.read("min_cap"))


def apply_flow_update(
    oracle: NeuromorphicOracle,
    emap: EdgeNeuronMap,
    path: PathRecord,
    wm: WorkingMemory,
) -> None:
    """Add the path's bottleneck onto every traversed arc's capacity neuron
    (and subtract it from the mirror companion, when one exists)."""
    wm.write("delta", path.min_cap)
    for idx in oracle.read_path():
        arc = emap.arcs[idx]
        cid = emap.cap_id(arc.idx)
        oracle.write_voltage(cid, wm.read("delta"))
        if oracle.read_voltage(cid) > oracle.threshold_of(cid):
            raise ConstructionBugError("flow pushed past an arc's capacity")
        mirror = emap.mirror[arc.idx]
        if mirror is not None:
            oracle.write_voltage(emap.cap_id(mirror), -wm.read("delta"))
    oracle.clear_path()


def read_max_flow(
    oracle: NeuromorphicOracle,
    emap: EdgeNeuronMap,
    wm: WorkingMemory,
) -> tuple[int, dict[int, int], int]:
    """Read per-edge flows (capacity potential minus K) and the net source
    outflow; also returns the raw potential sum over all capacity neurons."""
    net = emap.net
    wm.write("value", 0)
    voltage_sum = 0
    flows: dict[int, int] = {}
    for e in net.edges:
        wm.write("tmp", oracle.read_voltage(emap.cap_id(e.id)))
        voltage_sum += wm.read("tmp")
        flows[e.id] = wm.read("tmp") - emap.K
        if e.tail == net.source:
            wm.write("value", wm.read("value") + flows[e.id])
    return wm.read("value"), flows, voltage_sum


def verify_episode_properties(net: FlowNetwork, result: "SolveResult") -> list[str]:
    """Re-check the per-episode resource invariants on a finished solve:
    timestep and spike ceilings per query, single-spike wave and hub neurons,
    and (forward-decode mode) the episode budget of one saturation per edge.

    Only wave (search and readout) neurons and hubs have in-synapses; the
    transmitter and the capacity neurons fire at most once, at step 0.  So a
    repeated spike in a query is a wave neuron or a hub spiking twice.

    The paper-faithful ceiling of 3m+1 spikes per query: an arc spikes at
    most twice (its capacity neuron, or its search and readout neurons, which
    an exhausted capacity silences), plus the transmitter.  A node gets a hub
    only when in(v) + out(v) >= 6 (in * out > in + out + 1 is
    (in - 1)(out - 1) > 2), and the degrees sum to 2m, so each family has at
    most m/3 hubs and a query makes at most 2m + 1 + 2m/3 spikes.
    """
    violations: list[str] = []
    m = net.n_edges
    arcs = m + (len(_companion_edges(net)) if result.mode == RESIDUAL else 0)
    horizon = 2 * arcs + 1  # EdgeNeuronMap.query_time_limit, without the arc table
    for i, rec in enumerate(result.query_records):
        if rec.timesteps > horizon:
            violations.append(f"query {i}: {rec.timesteps} steps > {horizon}")
        if result.mode == PAPER_FAITHFUL and rec.spikes > 3 * m + 1:
            violations.append(f"query {i}: {rec.spikes} spikes > {3 * m + 1}")
        if rec.repeat_spikes:
            violations.append(f"query {i}: {rec.repeat_spikes} repeated wave-neuron spikes")
    if result.mode == PAPER_FAITHFUL and result.episodes > m:
        violations.append(f"{result.episodes} augmenting episodes > {m} edges")
    return violations


@dataclass
class SolveResult:
    assignment: FlowAssignment
    report: ResourceReport
    mode: str
    episodes: int                 # augmenting episodes (each saturates an arc)
    total_consults: int
    decode_jams: int
    voltage_sum: int              # literal sum of capacity-neuron potentials
    query_records: list[ConsultRecord] = field(default_factory=list)
    wm_peak_bits: int = 0         # widest working-memory word written; not in the JSON
    path_arcs: int = 0            # arcs summed over the augmenting paths; not in the JSON

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "value": self.assignment.value,
            "flows": sorted(self.assignment.flows.items()),
            "episodes": self.episodes,
            "total_consults": self.total_consults,
            "decode_jams": self.decode_jams,
            "capacity_voltage_sum": self.voltage_sum,
            "report": self.report.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def solve(net: FlowNetwork, mode: str = PAPER_FAITHFUL) -> SolveResult:
    """Full controller loop: build the oracle network once, then alternate
    search queries, path decoding and flow updates until no path remains.

    The controller's working memory is the fixed ``_WM_WORDS`` frame,
    allocated (as zeros) before the first query, so its peak is the frame
    size on every input.
    """
    if mode not in (PAPER_FAITHFUL, RESIDUAL):
        raise ValueError(f"unknown mode {mode!r}")
    report = ResourceReport()
    oracle = NeuromorphicOracle(report)
    emap = EdgeNeuronMap(net, residual=(mode == RESIDUAL))
    build_capacity_neurons(oracle, emap)
    build_search_network(oracle, emap)

    wm = WorkingMemory(_WM_WORDS, report)
    wm.write("episodes", 0)
    wm.write("jams", 0)
    path_arcs = 0
    while True:
        if mode == PAPER_FAITHFUL:
            tape, _ = run_search_query(oracle, emap)
            try:
                path = decode_path(tape, emap, oracle, wm)
            except DecodeJamError:
                # The greedy scan lost the path even though the query proved
                # one exists; chain the (deterministic) tape backward instead.
                wm.write("jams", wm.read("jams") + 1)
                path = recover_path_backward(oracle, emap, wm)
        else:
            path = descend_path(oracle, emap, wm)
        if path is None:
            break
        apply_flow_update(oracle, emap, path, wm)
        path_arcs += len(path.arcs)
        wm.write("episodes", wm.read("episodes") + 1)
        if mode == PAPER_FAITHFUL and wm.read("episodes") > net.n_edges:
            raise ConstructionBugError("more augmenting episodes than edges")

    value, flows, voltage_sum = read_max_flow(oracle, emap, wm)
    return SolveResult(
        assignment=FlowAssignment(flows, value),
        report=report,
        mode=mode,
        episodes=wm.read("episodes"),
        total_consults=len(report.consultations),
        decode_jams=wm.read("jams"),
        voltage_sum=voltage_sum,
        query_records=list(report.consultations),
        wm_peak_bits=wm.peak_bits,
        path_arcs=path_arcs,
    )
