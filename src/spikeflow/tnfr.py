"""Threshold network flow with reservoirs: problem type, reduction, exact checker.

A TNFR instance is a digraph whose arc flows are each either zero or within
the arc's [c_min, c_max] interval, with conservation everywhere except the
master source/sink and designated reservoir nodes (auxiliary sinks R and
sources P).  ``reduce_network`` unrolls a constrained spiking network over
its time bound into such an instance so that a flow of 3 can cross from
master source to master sink exactly when the network accepts within its
time and energy budgets; ``check_feasible`` decides instances exactly at
desk scale; ``verify_reduction`` exercises both directions.  An instance
is its node-kind table ``kinds`` and its arc list ``arcs``, nothing more.
An arc is its endpoints and its bounds, the row ``(tail, head, c_min,
c_max)``, and its index is its position in ``arcs``; no arc flows into the
master source or out of the master sink.

Every path runs the network once: ``simulate_constrained`` validates and
simulates the configuration, and ``reduce_network`` lays the instance out
from that run, checks its dynamic range and keeps an accepting run's flow.
A run is ``fired``, the spike set of each step, and ``potential_after``, each
neuron's potential after each step (see ``SimulationOutcome``).
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import GuardExceeded, ParseError, SearchBudgetExceeded
from .flow import NODE_GUARD, check_node_guard
from .snn import SimulationState, SpikingNetwork
from .snn import step as snn_step

PLAIN, SOURCE, SINK, RES_SINK, RES_SOURCE = "plain", "s", "t", "r", "p"

MAX_DOMAIN = 129  # check_feasible bound on c_max - c_min + 2, an arc domain's size


class TNFRInstance:
    """A TNFR instance holds each fact once: ``kinds`` maps every node name to
    its kind, in the order the nodes were added, and ``arcs`` lists each arc
    as the row ``(tail, head, c_min, c_max)``; an arc's index is its
    position in ``arcs``.  A node's name says which gadget it belongs to."""

    def __init__(self, d: int):
        if d < 0:
            raise ValueError("decision threshold must be >= 0")
        self.d = d
        self.kinds: dict[str, str] = {}
        self.arcs: list[tuple[str, str, int, int]] = []
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

    def add_arcs(self, rows: Iterable[tuple]) -> None:
        """Check and append the arcs ``(tail, head, c_min, c_max, ...)`` in
        order; fields past the fourth are ignored.  A bad row raises
        ValueError with the rows before it appended, so ``len(self.arcs)``
        is then the bad row's position in ``rows``."""
        kinds, source, sink, append = self.kinds, self.source, self.sink, self.arcs.append
        for row in rows:
            arc = row[:4]  # the row itself when it has four fields
            tail, head, c_min, c_max = arc
            if tail not in kinds or head not in kinds:
                raise ValueError(f"arc ({tail!r},{head!r}) references unknown node")
            if not (0 <= c_min <= c_max):
                raise ValueError(f"bad capacity interval [{c_min},{c_max}]")
            if head == source:
                raise ValueError("master source must have no incoming arcs")
            if tail == sink:
                raise ValueError("master sink must have no outgoing arcs")
            append(arc)


def validate_witness(inst: TNFRInstance, flows: dict[int, int]) -> list[str]:
    """All threshold/conservation violations of a flow assignment (empty = valid)."""
    problems = []
    inflow, outflow = dict.fromkeys(inst.kinds, 0), dict.fromkeys(inst.kinds, 0)
    for idx, (tail, head, c_min, c_max) in enumerate(inst.arcs):
        f = flows.get(idx, 0)
        if f != 0 and not (c_min <= f <= c_max):
            problems.append(f"arc {idx} ({tail} -> {head}): flow {f} outside {{0}} u [{c_min},{c_max}]")
        if f < 0:
            problems.append(f"arc {idx}: negative flow")
        outflow[tail] += f
        inflow[head] += f
    for node, kind in inst.kinds.items():
        if kind == PLAIN and inflow[node] != outflow[node]:
            problems.append(f"node {node}: {inflow[node]} in != {outflow[node]} out")
    return problems


def witness_value(inst: TNFRInstance, flows: dict[int, int]) -> int:
    source = inst.source
    return sum(flows.get(idx, 0) for idx, (tail, _, _, _) in enumerate(inst.arcs) if tail == source)


# --- exact feasibility search ------------------------------------------------


def _topological_arc_order(inst: TNFRInstance) -> list[int]:
    """Arc indices ordered by tail rank, then head rank, then index.  Only
    the nodes some arc names are ranked, ties in ``kinds`` order."""
    arcs = inst.arcs
    named = {node for arc in arcs for node in arc[:2]}
    nodes = [n for n in inst.kinds if n in named]
    indegree = dict.fromkeys(nodes, 0)
    out_heads: dict[str, list[str]] = {n: [] for n in nodes}
    for tail, head, _, _ in arcs:
        indegree[head] += 1
        out_heads[tail].append(head)
    queue = deque(n for n, deg in indegree.items() if deg == 0)
    node_rank: dict[str, int] = {}
    while queue:
        n = queue.popleft()
        node_rank[n] = len(node_rank)
        for head in out_heads[n]:
            indegree[head] -= 1
            if indegree[head] == 0:
                queue.append(head)
    if len(node_rank) < len(nodes):  # cyclic: fall back to insertion order
        node_rank = {n: i for i, n in enumerate(nodes)}
    return sorted(range(len(arcs)), key=lambda i: (node_rank[arcs[i][0]], node_rank[arcs[i][1]], i))


def check_feasible(inst: TNFRInstance, budget: int = 10**8) -> tuple[bool, dict[int, int] | None]:
    """Exact backtracking search for a feasible flow with source outflow > ``inst.d``.

    Arcs are assigned one at a time (in topological order on an acyclic
    instance) from the domains {0} u [c_min, c_max], largest flow first.
    Four running tables hold each node's attainable in- and outflow:
    ``in_lo``/``out_lo`` sum the flows assigned so far, and ``in_hi``/``out_hi``
    add the c_max of every arc not yet assigned.  Each value tried moves its
    tail's and head's entries by its change from the position's previous
    contribution, and a position out of values is unassigned.  A partial
    assignment is pruned when the source's outflow can no longer exceed d or
    when a conserving endpoint's in- and outflow intervals no longer meet.
    One loop walks the positions with an explicit stack, and two bounds stop
    it: an arc domain of more than ``MAX_DOMAIN`` values raises
    ``GuardExceeded``, and more than ``budget`` node expansions (positions
    entered) raise ``SearchBudgetExceeded``.
    """
    if inst.source is None or inst.sink is None:
        raise ValueError("instance needs a master source and sink")
    arcs = inst.arcs
    for idx, (_, _, c_min, c_max) in enumerate(arcs):
        if c_max - c_min + 2 > MAX_DOMAIN:
            raise GuardExceeded(f"arc {idx} domain too large")

    # table rows for the source and the nodes arcs name; no other node moves flow
    named = dict.fromkeys([inst.source, *(n for arc in arcs for n in arc[:2])])
    index = {name: i for i, name in enumerate(named)}
    in_lo, out_lo, in_hi, out_hi = ([0] * len(index) for _ in range(4))
    for tail, head, _, c_max in arcs:
        in_hi[index[head]] += c_max
        out_hi[index[tail]] += c_max
    kinds = inst.kinds
    # per position: the arc's index and c_max, its endpoints, whether each
    # conserves flow, and the arc's domain, largest flow first
    steps = []
    for idx in _topological_arc_order(inst):
        tail, head, c_min, c_max = arcs[idx]
        steps.append((
            idx, c_max, index[tail], index[head], kinds[tail] == PLAIN, kinds[head] == PLAIN,
            list(range(c_max, c_min - 1, -1)) + ([0] if c_min else []),
        ))
    source, d = index[inst.source], inst.d
    expansions = 0
    # per assigned position, in order: its values not yet tried and its flow
    stack: list[tuple[Iterator[int], int]] = []
    while len(stack) < len(steps):  # enter the next position
        _, c_max, tail, head, check_tail, check_head, domain = steps[len(stack)]
        expansions += 1
        if expansions > budget:
            raise SearchBudgetExceeded(f"exceeded {budget} expansions")
        # the position's contribution to the lo and hi tables: (0, c_max) unassigned
        values, lo, hi = iter(domain), 0, c_max
        while True:  # try the position's values left; back up a position while none passes
            for f in values:
                out_lo[tail] += f - lo
                in_lo[head] += f - lo
                out_hi[tail] += f - hi
                in_hi[head] += f - hi
                lo = hi = f
                if (
                    out_hi[source] > d
                    and (not check_tail or (in_lo[tail] <= out_hi[tail] and out_lo[tail] <= in_hi[tail]))
                    and (not check_head or (in_lo[head] <= out_hi[head] and out_lo[head] <= in_hi[head]))
                ):
                    break
            else:  # unassign the position and resume the one before it
                if not stack:
                    return False, None
                out_lo[tail] -= lo
                in_lo[head] -= lo
                out_hi[tail] += c_max - hi
                in_hi[head] += c_max - hi
                values, lo = stack.pop()
                _, c_max, tail, head, check_tail, check_head, _ = steps[len(stack)]
                hi = lo
                continue
            break
        stack.append((values, f))
    # the prune held at the last arc, where the source's outflow is out_lo; with no arcs it is 0
    if out_lo[source] > d:
        return True, dict(sorted((step[0], f) for step, (_, f) in zip(steps, stack)))
    return False, None


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
    ``validate`` refuses, with ``GuardExceeded``, a configuration whose
    ``node_bound`` exceeds ``NODE_GUARD``, before anything is simulated.
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
        bound = self.node_bound
        if bound > NODE_GUARD:
            raise GuardExceeded(f"the instance may lay out {bound} nodes, more than the node guard {NODE_GUARD}")

    @property
    def node_bound(self) -> int:
        """An upper bound on the nodes ``reduce_network`` lays out for n
        neurons and time bound t, 5nt + 3t + n + 14: 15 fixed nodes, 4 per
        step, t + 1 per neuron other than the constant, and at most 4 gadget
        nodes per neuron and step."""
        n, t = len(self.net.neurons), self.time_bound
        return 5 * n * t + 3 * t + n + 14


@dataclass
class SimulationOutcome:
    """One run over the time bound: ``fired[k]`` is the frozenset of neurons
    that fired at step ``k``, as ``snn.step`` returned it, and
    ``potential_after[nid][k]`` is neuron ``nid``'s potential at the end of
    step ``k``.  ``accept_step`` and ``spikes`` are read from ``fired``."""

    accepted: bool
    accept_step: int | None
    spikes: int
    fired: list[frozenset[int]]
    potential_after: dict[int, list[int]]


def simulate_constrained(cfg: ReductionConfig) -> SimulationOutcome:
    """Run the network for the time bound with the constant input forced on."""
    cfg.validate()
    t_bound = cfg.time_bound
    sim = cfg.net.copy()
    for step_idx in range(t_bound):
        sim.add_schedule(cfg.constant_id, step_idx)

    state = SimulationState.initial(sim)
    fired: list[frozenset[int]] = []
    potential_after: dict[int, list[int]] = {nid: [] for nid in sim.neurons}
    for _ in range(t_bound):
        fired.append(snn_step(sim, state))
        for nid, after in potential_after.items():
            # leak is 1 throughout, so an untouched potential is current
            after.append(state.potentials[nid])
    accept_step = next((k for k, ids in enumerate(fired) if cfg.accept_id in ids), None)
    spikes = sum(map(len, fired))
    accepted = accept_step is not None and spikes <= cfg.energy_bound
    return SimulationOutcome(accepted, accept_step, spikes, fired, potential_after)


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
    # one row per arc, (tail, head, c_min, c_max, the run's flow), in index order
    rows: list[tuple[str, str, int, int, int]] = []
    row = rows.append

    # the energy chain carries the channel unit plus every spike so far; the
    # silence chain carries one unit per acceptance firing so far
    energy_carried = list(itertools.accumulate(map(len, run.fired), initial=1))
    accept_id = cfg.accept_id
    silence_carried = list(itertools.accumulate(int(accept_id in ids) for ids in run.fired))

    s = inst.add_node("src", SOURCE)
    t = inst.add_node("sink", SINK)

    # step 4: energy gadget (unit passes iff total spikes <= e)
    s_e = inst.add_node("e:in")
    t_e = inst.add_node("e:out")
    r_e = inst.add_node("e:res", RES_SINK)
    j = [inst.add_node(f"e:j{k}") for k in range(1, t_bound + 1)]
    row((s, s_e, 0, 1, 1))
    row((s_e, j[0], 0, 1, 1))
    for k in range(t_bound - 1):
        row((j[k], j[k + 1], 0, e_bound + 1, energy_carried[k + 1]))
    row((j[-1], r_e, 0, e_bound, run.spikes))
    row((j[-1], t_e, 0, 1, 1))
    row((t_e, t, 0, 1, 1))

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
    row((s, s_t, 0, 1, 1))
    row((s_t, gate, 0, 1, 1))
    row((gate, burn, 2, 2, 2))
    row((burn, t_t, 0, 1, 1))
    row((burn, r_t, 0, 1, 1))
    row((t_t, t, 0, 1, 1))

    # step 7: failure gadget (unit passes iff no forced fire was dodged)
    s_f = inst.add_node("f:in")
    t_f = inst.add_node("f:out")
    f_nodes = [inst.add_node(f"f:f{k}") for k in range(1, t_bound + 1)]
    row((s, s_f, 0, 1, 1))
    row((s_f, f_nodes[0], 0, 1, 1))
    for k in range(t_bound - 1):
        row((f_nodes[k], f_nodes[k + 1], 0, 1, 0))
    for k in range(t_bound):
        row((f_nodes[k], t_f, 0, 1, int(k == 0)))
    row((t_f, t, 0, 1, 1))

    # step 1: the constant input fires all-or-nothing
    p_con = inst.add_node("p:con", RES_SOURCE)
    con_src = inst.add_node("con:src")
    row((p_con, con_src, t_bound, t_bound, t_bound))
    con_cols = []
    for k in range(1, t_bound + 1):
        col = inst.add_node(f"n:{cfg.constant_id}:{k}")
        con_cols.append(col)
        row((con_src, col, 1, 1, 1))

    # step 2: unrolled potential chains for every other neuron; each carries
    # the neuron's end-of-step potential
    unrolled = {(cfg.constant_id, k): col for k, col in enumerate(con_cols, start=1)}
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
            row((unrolled[(nid, k)], unrolled[(nid, k + 1)], 0, cap, carried[k - 1]))
        # carried potential at the horizon drains to a reservoir
        leftover = inst.add_node(f"r:fin:{nid}", RES_SINK)
        row((unrolled[(nid, t_bound)], leftover, 0, cap, carried[-1]))
        for k in range(1, t_bound + 1):
            row((unrolled[(nid, k)], f_nodes[k - 1], 0, 1, 0))

    # the silencing stream: one unit per acceptance firing, ferried along a
    # per-timestep chain to the time gate; surplus drains to a reservoir
    z_nodes = [inst.add_node(f"z:{k}") for k in range(1, t_bound + 1)]
    r_z = inst.add_node("r:z", RES_SINK)
    for k in range(t_bound - 1):
        row((z_nodes[k], z_nodes[k + 1], 0, t_bound, silence_carried[k]))
    row((z_nodes[-1], gate, 0, 1, 1))
    row((z_nodes[-1], r_z, 0, t_bound, silence_carried[-1] - 1))  # one unit keys the gate

    # steps 3 and 6: one distribution gadget per (neuron, column).  The merge
    # vertex collects the firing plus any auxiliary-source residue and must
    # forward the exact total through one all-or-nothing arc; only then is
    # the total split over taps and deliveries.  Without that serializer, an
    # auxiliary source could push its residue through a subset of the out-arcs
    # and fabricate deliveries or silence units without the neuron firing.
    # Every gadget arc is all-or-nothing: it carries its capacity exactly when
    # the neuron fires in that column.
    for nid in sorted(cfg.net.neurons):
        is_accept = nid == accept_id
        T_i = cfg.net.threshold(nid)  # 1 for the constant, as validate checks
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
            on = int(nid in run.fired[k - 1])

            out_node = inst.add_node(f"g:out:{nid}:{k}")
            dist = inst.add_node(f"g:dist:{nid}:{k}")
            row((unrolled[(nid, k)], out_node, T_i, T_i, on * T_i))
            if res < 0:
                p_node = inst.add_node(f"p:g:{nid}:{k}", RES_SOURCE)
                row((p_node, out_node, -res, -res, on * -res))
            row((out_node, dist, total, total, on * total))
            row((dist, j[k - 1], 1, 1, on))
            if w_live > 0:
                ass = inst.add_node(f"g:ass:{nid}:{k}")
                row((dist, ass, w_live, w_live, on * w_live))
                for post, arrival, w in live:
                    row((ass, unrolled[(post, arrival)], w, w, on * w))
            if is_accept:
                row((dist, z_nodes[k - 1], 1, 1, on))
            if res > 0:
                r_node = inst.add_node(f"r:g:{nid}:{k}", RES_SINK)
                row((dist, r_node, res, res, on * res))
    inst.add_arcs(rows)
    if run.accepted:
        inst.witness = {idx: r[4] for idx, r in enumerate(rows)}
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
        feasible, found = check_feasible(inst)
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
    for tail, head, c_min, c_max in inst.arcs:
        lines.append(f"a {ids[tail]} {ids[head]} {c_min} {c_max}")
    return "\n".join(lines) + "\n"


def parse_tnfr(text: str) -> TNFRInstance:
    inst: TNFRInstance | None = None
    n_nodes = n_arcs = None
    kinds: dict[int, tuple[str, int]] = {}  # node id -> (kind, line number)
    arcs: list[tuple[str, str, int, int, int]] = []  # (u, v, cmin, cmax, line number)
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
                check_node_guard(n_nodes)
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
                arcs.append((str(int(fields[1])), str(int(fields[2])), int(fields[3]), int(fields[4]), line_no))
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
    try:
        inst.add_arcs(arcs)
    except ValueError as exc:  # the arcs before the bad one were added
        raise ParseError(str(exc), arcs[len(inst.arcs)][4]) from exc
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
