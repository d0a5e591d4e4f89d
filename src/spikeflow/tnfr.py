"""Threshold network flow with reservoirs: problem type, reduction, exact checker.

A TNFR instance is a digraph whose arc flows are each either zero or within
the arc's [c_min, c_max] interval, with conservation everywhere except the
master source/sink and designated reservoir nodes (auxiliary sinks R and
sources P).  ``reduce_network`` unrolls a constrained spiking network over
its time bound into such an instance so that a flow of 3 can cross from
master source to master sink exactly when the network accepts within its
time and energy budgets; ``check_feasible`` decides instances exactly at
desk scale; ``verify_reduction`` exercises both directions.  An instance
is its node-kind table ``kinds`` and its arc list ``arcs``, nothing more,
and an arc is its endpoints and its interval: no arc flows into the master
source or out of the master sink.

Every path runs the network once: ``simulate_constrained`` validates and
simulates the configuration, and ``reduce_network`` lays the instance out
from that run, checks its dynamic range and keeps an accepting run's flow.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .errors import GuardExceeded, ParseError, SearchBudgetExceeded
from .snn import SimulationState, SpikingNetwork
from .snn import step as snn_step

PLAIN, SOURCE, SINK, RES_SINK, RES_SOURCE = "plain", "s", "t", "r", "p"

MAX_DOMAIN = 129  # check_feasible bound on c_max - c_min + 2, an arc domain's size


class TnfrArc:
    """One arc.  Slotted: cheaper to build than a dataclass, as fast to read."""

    __slots__ = ("idx", "tail", "head", "c_min", "c_max")

    def __init__(self, idx: int, tail: str, head: str, c_min: int, c_max: int):
        self.idx, self.tail, self.head, self.c_min, self.c_max = idx, tail, head, c_min, c_max


class TNFRInstance:
    """A TNFR instance holds each fact once: ``kinds`` maps every node name to
    its kind, in the order the nodes were added, and ``arcs`` lists the arcs
    by index.  A node's name says which gadget it belongs to."""

    def __init__(self, d: int):
        if d < 0:
            raise ValueError("decision threshold must be >= 0")
        self.d = d
        self.kinds: dict[str, str] = {}
        self.arcs: list[TnfrArc] = []
        self.source: str | None = None
        self.sink: str | None = None
        # a value-3 flow (arc index -> flow), set by reduce_network from an accepting run
        self.witness: dict[int, int] | None = None

    def add_node(self, name: str, kind: str = PLAIN) -> str:
        if name in self.kinds:
            raise ValueError(f"duplicate node {name!r}")
        if kind == SOURCE:
            if self.source is not None:
                raise ValueError("a second master source")
            self.source = name
        if kind == SINK:
            if self.sink is not None:
                raise ValueError("a second master sink")
            self.sink = name
        self.kinds[name] = kind
        return name

    def add_arc(self, tail: str, head: str, c_min: int, c_max: int) -> TnfrArc:
        if tail not in self.kinds or head not in self.kinds:
            raise ValueError(f"arc ({tail!r},{head!r}) references unknown node")
        if not (0 <= c_min <= c_max):
            raise ValueError(f"bad capacity interval [{c_min},{c_max}]")
        if head == self.source:
            raise ValueError("master source must have no incoming arcs")
        if tail == self.sink:
            raise ValueError("master sink must have no outgoing arcs")
        arc = TnfrArc(len(self.arcs), tail, head, c_min, c_max)
        self.arcs.append(arc)
        return arc

    def conserving_nodes(self) -> list[str]:
        return [n for n, kind in self.kinds.items() if kind == PLAIN]


def validate_witness(inst: TNFRInstance, flows: dict[int, int]) -> list[str]:
    """All threshold/conservation violations of a flow assignment (empty = valid)."""
    problems = []
    inflow, outflow = dict.fromkeys(inst.kinds, 0), dict.fromkeys(inst.kinds, 0)
    for arc in inst.arcs:
        f = flows.get(arc.idx, 0)
        if f != 0 and not (arc.c_min <= f <= arc.c_max):
            problems.append(
                f"arc {arc.idx} ({arc.tail} -> {arc.head}): flow {f} outside {{0}} u [{arc.c_min},{arc.c_max}]"
            )
        if f < 0:
            problems.append(f"arc {arc.idx}: negative flow")
        outflow[arc.tail] += f
        inflow[arc.head] += f
    for node in inst.conserving_nodes():
        if inflow[node] != outflow[node]:
            problems.append(f"node {node}: {inflow[node]} in != {outflow[node]} out")
    return problems


def witness_value(inst: TNFRInstance, flows: dict[int, int]) -> int:
    return sum(flows.get(a.idx, 0) for a in inst.arcs if a.tail == inst.source)


# --- exact feasibility search ------------------------------------------------


def _topological_arc_order(inst: TNFRInstance) -> list[TnfrArc]:
    indegree = dict.fromkeys(inst.kinds, 0)
    out_arcs: dict[str, list[TnfrArc]] = {n: [] for n in inst.kinds}
    for arc in inst.arcs:
        indegree[arc.head] += 1
        out_arcs[arc.tail].append(arc)
    queue = deque(n for n, deg in indegree.items() if deg == 0)
    node_rank: dict[str, int] = {}
    while queue:
        n = queue.popleft()
        node_rank[n] = len(node_rank)
        for arc in out_arcs[n]:
            indegree[arc.head] -= 1
            if indegree[arc.head] == 0:
                queue.append(arc.head)
    if len(node_rank) < len(inst.kinds):  # cyclic: fall back to insertion order
        node_rank = {n: i for i, n in enumerate(inst.kinds)}
    return sorted(inst.arcs, key=lambda a: (node_rank[a.tail], node_rank[a.head], a.idx))


def check_feasible(
    inst: TNFRInstance,
    max_arcs: int = 64,
    budget: int = 10**8,
) -> tuple[bool, dict[int, int] | None]:
    """Exact backtracking search for a feasible flow with source outflow > ``inst.d``.

    Arcs are assigned one at a time (in topological order on an acyclic
    instance) from the domains {0} u [c_min, c_max], largest flow first.
    Four running tables hold each node's attainable in- and outflow:
    ``in_lo``/``out_lo`` sum the flows assigned so far, and ``in_hi``/``out_hi``
    add the c_max of every arc not yet assigned.  An assignment updates its
    tail's and head's entries and backtracking undoes them.  A partial
    assignment is pruned when the source's outflow can no longer exceed d or
    when a conserving endpoint's in- and outflow intervals no longer meet.
    Raises on oversized instances or when the expansion budget runs out.
    """
    if inst.source is None or inst.sink is None:
        raise ValueError("instance needs a master source and sink")
    if len(inst.arcs) > max_arcs:
        raise GuardExceeded(f"{len(inst.arcs)} arcs exceed the limit {max_arcs}")
    for arc in inst.arcs:
        if arc.c_max - arc.c_min + 2 > MAX_DOMAIN:
            raise GuardExceeded(f"arc {arc.idx} domain too large")

    order = _topological_arc_order(inst)
    index = {name: i for i, name in enumerate(inst.kinds)}
    in_lo, out_lo, in_hi, out_hi = ([0] * len(index) for _ in range(4))
    for arc in inst.arcs:
        in_hi[index[arc.head]] += arc.c_max
        out_hi[index[arc.tail]] += arc.c_max
    conserving = set(inst.conserving_nodes())
    # per position: the arc, its endpoints, whether each conserves flow, and
    # the arc's domain, largest flow first
    steps = [
        (
            arc, index[arc.tail], index[arc.head], arc.tail in conserving, arc.head in conserving,
            list(range(arc.c_max, arc.c_min - 1, -1)) + ([0] if arc.c_min else []),
        )
        for arc in order
    ]
    source, d = index[inst.source], inst.d
    flows: dict[int, int] = {}  # filled as a successful search unwinds
    expansions = 0

    def rec(i: int) -> bool:
        nonlocal expansions
        if i == len(steps):
            return out_lo[source] > d
        arc, tail, head, check_tail, check_head, domain = steps[i]
        expansions += 1
        if expansions > budget:
            raise SearchBudgetExceeded(f"exceeded {budget} expansions")
        for f in domain:
            gap = f - arc.c_max
            out_lo[tail] += f
            out_hi[tail] += gap
            in_lo[head] += f
            in_hi[head] += gap
            if (
                out_hi[source] > d
                and (not check_tail or (in_lo[tail] <= out_hi[tail] and out_lo[tail] <= in_hi[tail]))
                and (not check_head or (in_lo[head] <= out_hi[head] and out_lo[head] <= in_hi[head]))
                and rec(i + 1)
            ):
                flows[arc.idx] = f
                return True
            out_lo[tail] -= f
            out_hi[tail] -= gap
            in_lo[head] -= f
            in_hi[head] -= gap
        return False

    try:
        if rec(0):
            return True, {arc.idx: flows[arc.idx] for arc in inst.arcs}
        return False, None
    finally:
        del rec  # rec refers to itself: free its tables now, not at the next gc pass


# --- the reduction -----------------------------------------------------------


@dataclass
class ReductionConfig:
    """A constrained spiking network plus its time and energy budgets.

    The network must use overflow resets, leak 1, non-negative integer
    weights/delays and no schedule; ``constant_id`` is the single always-firing
    input (unit threshold, no incoming synapses) and ``accept_id`` the
    acceptance neuron.
    The rejection neuron is behavioral (fires until acceptance) and is
    represented in the flow instance by forced per-step tokens.
    """

    net: SpikingNetwork
    constant_id: int
    accept_id: int
    time_bound: int
    energy_bound: int

    def validate(self) -> None:
        n = self.net
        if self.time_bound < 1:
            raise ValueError("time bound must be >= 1")
        if not n.overflow_reset:
            raise ValueError("assumption 5 violated: network must use overflow resets")
        if n.schedule:
            raise ValueError("assumption 2 violated: the constant input is the only forced firing")
        if self.constant_id not in n.neurons or self.accept_id not in n.neurons:
            raise ValueError("assumption 2 violated: constant or accept neuron missing")
        for neuron in n.neurons.values():
            if neuron.leak != 1:
                raise ValueError(f"assumption 4 violated: neuron {neuron.id} leak {neuron.leak}")
            if neuron.v0 != 0 and neuron.id != self.constant_id:
                raise ValueError(
                    f"assumption 2 violated: neuron {neuron.id} has a bias potential"
                )
        for syns in n.out_synapses.values():
            for s in syns:
                if s.weight < 0:
                    raise ValueError(
                        f"assumption 3 violated: synapse {s.pre}->{s.post} has negative weight"
                    )
                if s.delay < 1:
                    # delay-0 deliveries cannot be unrolled into a time-forward
                    # flow graph; one step is the model's minimum latency here
                    raise ValueError(
                        f"assumption 3 violated: synapse {s.pre}->{s.post} needs delay >= 1"
                    )
                if s.post == self.constant_id:
                    raise ValueError("assumption 2 violated: the constant input has an incoming synapse")
        if n.neurons[self.constant_id].threshold != 1:
            raise ValueError("assumption 2 violated: the constant input must have unit threshold")
        if not (0 <= self.energy_bound <= len(n.neurons) * self.time_bound):
            raise ValueError("energy bound must satisfy 0 <= e <= n*t")


@dataclass
class SimulationOutcome:
    accepted: bool
    accept_step: int | None
    spikes: int
    fires: dict[int, set[int]]          # neuron -> steps fired
    potential_after: dict[int, list[int]]  # neuron -> V at end of each step


def simulate_constrained(cfg: ReductionConfig) -> SimulationOutcome:
    """Run the network for the time bound with the constant input forced on."""
    cfg.validate()
    t_bound = cfg.time_bound
    sim = cfg.net.copy()
    for step_idx in range(t_bound):
        sim.add_schedule(cfg.constant_id, step_idx)

    state = SimulationState.initial(sim)
    fires: dict[int, set[int]] = {nid: set() for nid in sim.neurons}
    potential_after: dict[int, list[int]] = {nid: [] for nid in sim.neurons}
    for s_idx in range(t_bound):
        _, fired = snn_step(sim, state)
        for nid in fired:
            fires[nid].add(s_idx)
        for nid, after in potential_after.items():
            # leak is 1 throughout, so an untouched potential is current
            after.append(state.potentials[nid])
    accept_steps = fires[cfg.accept_id]
    accept_step = min(accept_steps) if accept_steps else None
    spikes = sum(len(v) for v in fires.values())
    accepted = accept_step is not None and spikes <= cfg.energy_bound
    return SimulationOutcome(accepted, accept_step, spikes, fires, potential_after)


def reduce_network(cfg: ReductionConfig, run: SimulationOutcome) -> TNFRInstance:
    """Unroll the constrained network into a TNFR instance with d = 2.

    Flow semantics: a neuron's carried potential rides its chain arcs, a
    firing pushes exactly the threshold through that column's distribution
    gadget (tapping one energy unit and feeding post-synaptic columns), and
    three master channels (energy, time, failure) each admit one unit exactly
    when the corresponding global constraint holds, so value 3 is attainable
    iff the network accepts within its bounds.

    ``run`` is ``simulate_constrained(cfg)``, which has validated ``cfg``.
    The arcs do not depend on the run; each gets the run's flow as it is laid
    out, and ``inst.witness`` keeps that value-3 flow when the run accepts
    (None otherwise).  Raises ``GuardExceeded`` when the run, accepting or
    not, carries a potential its chain arcs cannot.
    """
    t_bound, e_bound = cfg.time_bound, cfg.energy_bound
    inst = TNFRInstance(d=2)
    witness: dict[int, int] = {}
    if run.accepted:
        inst.witness = witness

    def arc(tail: str, head: str, c_min: int, c_max: int, flow: int = 0) -> None:
        witness[inst.add_arc(tail, head, c_min, c_max).idx] = flow

    # the energy chain carries the channel unit plus every spike so far; the
    # silence chain carries one unit per acceptance firing so far
    spikes_per_step = [0] * t_bound
    for steps in run.fires.values():
        for step_idx in steps:
            spikes_per_step[step_idx] += 1
    energy_carried = list(itertools.accumulate(spikes_per_step, initial=1))
    accept_fires = run.fires[cfg.accept_id]
    silence_carried = list(itertools.accumulate(int(step_idx in accept_fires) for step_idx in range(t_bound)))

    s = inst.add_node("src", SOURCE)
    t = inst.add_node("sink", SINK)

    # step 4: energy gadget (unit passes iff total spikes <= e)
    s_e = inst.add_node("e:in")
    t_e = inst.add_node("e:out")
    r_e = inst.add_node("e:res", RES_SINK)
    j = [inst.add_node(f"e:j{k}") for k in range(1, t_bound + 1)]
    arc(s, s_e, 0, 1, 1)
    arc(s_e, j[0], 0, 1, 1)
    for k in range(t_bound - 1):
        arc(j[k], j[k + 1], 0, e_bound + 1, energy_carried[k + 1])
    arc(j[-1], r_e, 0, e_bound, run.spikes)
    arc(j[-1], t_e, 0, 1, 1)
    arc(t_e, t, 0, 1, 1)

    # step 5: time gadget.  The channel unit can only cross the pairing gate
    # together with a silencing unit, and silencing units exist exactly when
    # the acceptance neuron fired inside the unrolled window (the window is
    # the time bound, so "accepted in time" and "accepted at all" coincide).
    # The rejection stream is therefore represented by the *absence* of its
    # silencing evidence: an idle network leaves the gate starved, which is
    # what "the rejection neuron keeps firing" must mean flow-side.
    s_t = inst.add_node("t:in")
    t_t = inst.add_node("t:out")
    r_t = inst.add_node("t:res", RES_SINK)
    gate = inst.add_node("t:gate")
    burn = inst.add_node("t:burn")
    arc(s, s_t, 0, 1, 1)
    arc(s_t, gate, 0, 1, 1)
    arc(gate, burn, 2, 2, 2)
    arc(burn, t_t, 0, 1, 1)
    arc(burn, r_t, 0, 1, 1)
    arc(t_t, t, 0, 1, 1)

    # step 7: failure gadget (unit passes iff no forced fire was dodged)
    s_f = inst.add_node("f:in")
    t_f = inst.add_node("f:out")
    f_nodes = [inst.add_node(f"f:f{k}") for k in range(1, t_bound + 1)]
    arc(s, s_f, 0, 1, 1)
    arc(s_f, f_nodes[0], 0, 1, 1)
    for k in range(t_bound - 1):
        arc(f_nodes[k], f_nodes[k + 1], 0, 1)
    for k in range(t_bound):
        arc(f_nodes[k], t_f, 0, 1, int(k == 0))
    arc(t_f, t, 0, 1, 1)

    # step 1: the constant input fires all-or-nothing
    p_con = inst.add_node("p:con", RES_SOURCE)
    con_src = inst.add_node("con:src")
    arc(p_con, con_src, t_bound, t_bound, t_bound)
    con_cols = []
    for k in range(1, t_bound + 1):
        col = inst.add_node(f"n:{cfg.constant_id}:{k}")
        con_cols.append(col)
        arc(con_src, col, 1, 1, 1)

    # step 2: unrolled potential chains for every other neuron; each carries
    # the neuron's end-of-step potential
    unrolled: dict[tuple[int, int], str] = {}
    for k, col in enumerate(con_cols, start=1):
        unrolled[(cfg.constant_id, k)] = col
    plain_ids = [nid for nid in sorted(cfg.net.neurons) if nid != cfg.constant_id]
    for nid in plain_ids:
        T_i = cfg.net.threshold(nid)
        cap = max(T_i - 1, 0)
        carried = run.potential_after[nid]
        if max(carried) > cap:
            raise GuardExceeded(
                f"neuron {nid} carries potential {max(carried)} >= threshold {T_i}: "
                "outside the reduction's dynamic range"
            )
        for k in range(1, t_bound + 1):
            unrolled[(nid, k)] = inst.add_node(f"n:{nid}:{k}")
        for k in range(1, t_bound):
            arc(unrolled[(nid, k)], unrolled[(nid, k + 1)], 0, cap, carried[k - 1])
        # carried potential at the horizon drains to a reservoir
        leftover = inst.add_node(f"r:fin:{nid}", RES_SINK)
        arc(unrolled[(nid, t_bound)], leftover, 0, cap, carried[-1])
        for k in range(1, t_bound + 1):
            arc(unrolled[(nid, k)], f_nodes[k - 1], 0, 1)

    # the silencing stream: one unit per acceptance firing, ferried along a
    # per-timestep chain to the time gate; surplus drains to a reservoir
    z_nodes = [inst.add_node(f"z:{k}") for k in range(1, t_bound + 1)]
    r_z = inst.add_node("r:z", RES_SINK)
    for k in range(t_bound - 1):
        arc(z_nodes[k], z_nodes[k + 1], 0, t_bound, silence_carried[k])
    arc(z_nodes[-1], gate, 0, 1, 1)
    arc(z_nodes[-1], r_z, 0, t_bound, silence_carried[-1] - 1)  # one unit keys the gate

    # steps 3 and 6: one distribution gadget per (neuron, column).  The merge
    # vertex collects the firing plus any auxiliary-source residue and must
    # forward the exact total through one all-or-nothing arc; only then is
    # the total split over taps and deliveries.  Without that serializer, an
    # auxiliary source could push its residue through a subset of the out-arcs
    # and fabricate deliveries or silence units without the neuron firing.
    # Every gadget arc is all-or-nothing: it carries its capacity exactly when
    # the neuron fires in that column.
    for nid in sorted(cfg.net.neurons):
        is_accept = nid == cfg.accept_id
        T_i = cfg.net.threshold(nid)  # 1 for the constant, as validate checks
        fires = run.fires[nid]
        synapses = cfg.net.out_synapses[nid]
        for k in range(1, t_bound + 1):
            # deliveries that land within the horizon: (post, arrival column, weight)
            live = [
                (syn.post, k + syn.delay, syn.weight)
                for syn in synapses
                if syn.weight and k + syn.delay <= t_bound
            ]
            w_live = sum(w for _, _, w in live)
            drained = 1 + w_live + is_accept
            res = T_i - drained
            total = drained + max(res, 0)
            on = 1 if k - 1 in fires else 0

            out_node = inst.add_node(f"g:out:{nid}:{k}")
            dist = inst.add_node(f"g:dist:{nid}:{k}")
            arc(unrolled[(nid, k)], out_node, T_i, T_i, on * T_i)
            if res < 0:
                p_node = inst.add_node(f"p:g:{nid}:{k}", RES_SOURCE)
                arc(p_node, out_node, -res, -res, on * -res)
            arc(out_node, dist, total, total, on * total)
            arc(dist, j[k - 1], 1, 1, on)
            if w_live > 0:
                ass = inst.add_node(f"g:ass:{nid}:{k}")
                arc(dist, ass, w_live, w_live, on * w_live)
                for post, arrival, w in live:
                    arc(ass, unrolled[(post, arrival)], w, w, on * w)
            if is_accept:
                arc(dist, z_nodes[k - 1], 1, 1, on)
            if res > 0:
                r_node = inst.add_node(f"r:g:{nid}:{k}", RES_SINK)
                arc(dist, r_node, res, res, on * res)
    return inst


@dataclass
class ReductionVerdict:
    snn_accepts: bool
    accept_step: int | None
    spikes: int
    flow_feasible: bool
    witness_valid: bool | None
    witness_value: int | None
    passed: bool
    details: list[str] = field(default_factory=list)


def verify_reduction(cfg: ReductionConfig) -> ReductionVerdict:
    """Check the biconditional on one configuration, both directions, from
    one run: an accepting run's valid witness is its own certificate, and
    ``check_feasible`` searches every other instance."""
    outcome = simulate_constrained(cfg)
    inst = reduce_network(cfg, outcome)
    details: list[str] = []
    witness_ok: bool | None = None
    value: int | None = None
    if outcome.accepted:
        witness = inst.witness
        problems = validate_witness(inst, witness)
        value = witness_value(inst, witness)
        witness_ok = not problems and value == 3
        details.extend(problems)
        if value != 3:
            details.append(f"witness value {value} != 3")
    feasible = bool(witness_ok)  # a valid witness is itself the certificate
    if not feasible:
        feasible, found = check_feasible(inst, max_arcs=len(inst.arcs))
        if feasible and not outcome.accepted:
            details.append(f"rejecting network but flow of value > 2 exists: {found}")
    passed = (outcome.accepted == feasible) and (witness_ok is not False)
    return ReductionVerdict(
        snn_accepts=outcome.accepted,
        accept_step=outcome.accept_step,
        spikes=outcome.spikes,
        flow_feasible=feasible,
        witness_valid=witness_ok,
        witness_value=value,
        passed=passed,
        details=details,
    )


# --- text formats ------------------------------------------------------------


def format_tnfr(inst: TNFRInstance) -> str:
    ids = {name: i + 1 for i, name in enumerate(inst.kinds)}
    lines = [f"p tnfr {len(inst.kinds)} {len(inst.arcs)} {inst.d}"]
    for name, kind in inst.kinds.items():
        if kind != PLAIN:
            lines.append(f"n {ids[name]} {kind}")
    for arc in inst.arcs:
        lines.append(f"a {ids[arc.tail]} {ids[arc.head]} {arc.c_min} {arc.c_max}")
    return "\n".join(lines) + "\n"


def parse_tnfr(text: str) -> TNFRInstance:
    inst: TNFRInstance | None = None
    n_nodes = n_arcs = None
    kinds: dict[int, tuple[str, int]] = {}  # node id -> (kind, line number)
    arcs: list[tuple[int, int, int, int, int]] = []  # (u, v, cmin, cmax, line number)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "p":
                if inst is not None:
                    raise ValueError("duplicate problem line")
                if len(fields) != 5 or fields[1] != "tnfr":
                    raise ValueError("expected: p tnfr <nodes> <arcs> <d>")
                n_nodes, n_arcs = int(fields[2]), int(fields[3])
                inst = TNFRInstance(d=int(fields[4]))
            elif fields[0] == "n":
                if len(fields) != 3 or fields[2] not in (SOURCE, SINK, RES_SINK, RES_SOURCE):
                    raise ValueError("expected: n <id> s|t|r|p")
                node = int(fields[1])
                if node in kinds:
                    raise ValueError(f"a second record for node {node}")
                kinds[node] = (fields[2], line_no)
            elif fields[0] == "a":
                if len(fields) != 5:
                    raise ValueError("expected: a <u> <v> <cmin> <cmax>")
                arcs.append((int(fields[1]), int(fields[2]), int(fields[3]), int(fields[4]), line_no))
            else:
                raise ValueError(f"unknown record kind {fields[0]!r}")
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
    if inst is None or n_nodes is None:
        raise ParseError("missing problem line")
    for i, (_, line_no) in kinds.items():
        if not 1 <= i <= n_nodes:
            raise ParseError(f"node id {i} outside 1..{n_nodes}", line_no)
    for i in range(1, n_nodes + 1):
        kind, _ = kinds.get(i, (PLAIN, None))
        try:
            inst.add_node(str(i), kind)
        except ValueError as exc:  # a second master source or sink: blame the second such record
            raise ParseError(str(exc), sorted(ln for k, ln in kinds.values() if k == kind)[1]) from exc
    for u, v, lo, hi, line_no in arcs:
        try:
            inst.add_arc(str(u), str(v), lo, hi)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
    if n_arcs is not None and n_arcs != len(inst.arcs):
        raise ParseError(f"problem line promises {n_arcs} arcs, file has {len(inst.arcs)}")
    if inst.source is None or inst.sink is None:
        raise ParseError("missing master source or sink")
    return inst


def format_witness_csv(flows: dict[int, int]) -> str:
    lines = ["arc,flow"]
    for idx in sorted(flows):
        lines.append(f"{idx},{flows[idx]}")
    return "\n".join(lines) + "\n"
