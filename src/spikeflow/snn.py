"""Deterministic discrete-time simulator for integer leaky integrate-and-fire networks.

The membrane update per timestep is ``V <- leak * V + sum(arriving weights)``;
a neuron fires when V reaches its threshold and its potential then drops to the
reset value (or, in overflow mode, the threshold is subtracted).  Potentials
are clamped at zero only after all same-step arrivals have been summed, so
inhibition can cancel excitation within a step.

One timestep ``t`` runs in this order:

1. scheduled neurons fire, whatever their potential;
2. delayed spikes due at ``t`` are added;
3. every neuron that received them, or sat at threshold after step ``t-1``
   (or at the start), fires if ``V >= threshold``;
4. the delay-0 output of every fire so far is added, and the neurons it
   reached fire if they are now at threshold (one re-check);
5. the delay-0 output of those re-check fires is added with no further check;
6. touched potentials are clamped at zero, and any left at threshold are
   checked first thing in step ``t+1``.

So delay-0 propagation reaches two levels per step.  In a chain 0 -> 1 -> 2
-> 3 of delay-0 synapses where neuron 0 fires at ``t``, neuron 1 fires at
``t``, while neuron 2, which receives its input in (5), and neuron 3 fire at
``t+1``.  The naive decider's timers and reject latch are two levels deep
and rely on this (its ``accept_time`` is at least ``f_max + 5``).  A neuron
fires at most once per step, and the trace lists each step's spikes by
neuron id.

Neurons with leak 1 keep a current potential and never decay; other leaks
(0 or any fraction) are applied lazily when the neuron is next read.

A network is written through one path, as rows of plain tuples that are
checked, stored as given and copied into the simulator's flat tables in one
pass (see :class:`SpikingNetwork`); ``Neuron`` and ``Synapse`` records are
rebuilt from the rows only when a reader asks for them.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple, TextIO

from .errors import ParseError, UnknownNeuronError


class Role(enum.Enum):
    STANDARD = "standard"
    READOUT = "readout"
    SCHEDULED = "scheduled"
    INPUT = "input"
    ACCEPT = "accept"
    REJECT = "reject"
    TRANSMITTER = "transmitter"
    CAPACITY = "capacity"


# Roles whose spikes are visible on an oracle's output tape.
TAPE_ROLES = frozenset({Role.READOUT, Role.ACCEPT, Role.REJECT})

_first = itemgetter(0)

_Pairs = list[tuple[int, int]]  # (post, weight) deliveries


class Neuron(NamedTuple):
    id: int
    threshold: int
    reset: int
    leak: Fraction | int
    v0: int = 0
    role: Role = Role.STANDARD


class Synapse(NamedTuple):
    pre: int
    post: int
    delay: int
    weight: int


class _Records(Mapping):
    """A read-only view that rebuilds records from a row table on access."""

    def __init__(self, table: dict, record):
        self._table, self._record = table, record

    def __getitem__(self, nid):
        return self._record(self._table[nid])

    def __contains__(self, nid) -> bool:
        return nid in self._table

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)


class SpikingNetwork:
    """A static network: neurons, synapses and a forced-fire schedule.

    ``overflow_reset=True`` switches firing to subtract-threshold semantics
    instead of jumping to the reset value (used by the reduction module).

    The one write path is ``add_neurons`` (rows ``(id, threshold, reset,
    leak, v0, role)``) and ``add_synapses`` (rows ``(pre, post, delay,
    weight)``); ``add_neuron``/``add_synapse`` write one row, such as a
    :class:`Neuron` or :class:`Synapse` record.  Each row is checked
    (duplicate id, threshold >= 1, v0 >= 0, delay >= 0, unknown endpoint),
    stored as given, and copied into the flat tables :func:`step` reads:
    threshold, reset, initial potential, the leak of every neuron whose leak
    is not 1 (``0`` when it is 0), the tape-role set and the synapse count.
    ``neurons`` and ``out_synapses`` rebuild records from the rows.

    In the first run of a network a firing neuron's output is read from its
    out-synapse rows.  From the second run on, a neuron that fires has them
    split into a delay-0 ``(post, weight)`` list and ``(delay, [(post,
    weight), ...])`` groups, which its spikes then queue whole; the split
    lives until a synapse is added to the neuron.  So a network that serves
    many runs (an oracle's) is compiled once, while one written and run once
    (the naive decider's, the reduction's) pays for no split.
    """

    def __init__(self, overflow_reset: bool = False):
        self.schedule: list[tuple[int, int]] = []  # (neuron id, fire time)
        self.overflow_reset = overflow_reset
        self._schedule_by_time: dict[int, list[int]] = {}
        self._rows: dict[int, tuple] = {}  # nid -> neuron row
        self._syn: dict[int, list[tuple]] = {}  # nid -> its out-synapse rows
        self._threshold: dict[int, int] = {}
        self._reset: dict[int, int] = {}
        self._v0: dict[int, int] = {}
        self._leaky: dict[int, Fraction | int] = {}  # leak-1 neurons are absent
        self._tape: set[int] = set()
        self._out: dict[int, tuple[_Pairs, list[tuple[int, _Pairs]]]] = {}  # nid -> split
        self._runs = 0  # simulations started on this network
        self._n_synapses = 0

    @property
    def neurons(self) -> Mapping[int, Neuron]:
        return _Records(self._rows, Neuron._make)

    @property
    def out_synapses(self) -> Mapping[int, list[Synapse]]:
        return _Records(self._syn, lambda rows: list(map(Synapse._make, rows)))

    def add_neurons(self, rows: Iterable[tuple]) -> None:
        known, out = self._rows, self._syn
        threshold, reset, v0, leaky, tape = self._threshold, self._reset, self._v0, self._leaky, self._tape
        for row in rows:
            nid, th, r, leak, v, role = row
            if th < 1:
                raise ValueError(f"neuron {nid}: threshold must be >= 1")
            if v < 0:
                raise ValueError(f"neuron {nid}: initial potential must be >= 0")
            if nid in known:
                raise ValueError(f"duplicate neuron id {nid}")
            known[nid] = row
            out[nid] = []
            threshold[nid] = th
            reset[nid] = r
            v0[nid] = v
            if leak != 1:
                leaky[nid] = leak if leak else 0
            if role in TAPE_ROLES:
                tape.add(nid)

    def add_synapses(self, rows: Iterable[tuple]) -> None:
        out, split = self._syn, self._out
        for row in rows:
            pre, post, delay, _ = row
            if delay < 0:
                raise ValueError("synapse delay must be >= 0")
            if pre not in out or post not in out:
                missing = pre if pre not in out else post
                raise UnknownNeuronError(f"synapse endpoint {missing} not in network")
            out[pre].append(row)
            self._n_synapses += 1
            if split:
                # Spikes already in flight keep the old lists; the next fire re-splits.
                split.pop(pre, None)

    def add_neuron(self, neuron: Neuron) -> Neuron:
        self.add_neurons((neuron,))
        return neuron

    def add_synapse(self, synapse: Synapse) -> Synapse:
        self.add_synapses((synapse,))
        return synapse

    def _split_out(self, nid: int) -> tuple[_Pairs, list[tuple[int, _Pairs]]]:
        """The neuron's out-synapses as delay-0 pairs and per-delay groups."""
        by_delay: dict[int, _Pairs] = {}
        for _, post, delay, weight in self._syn[nid]:
            by_delay.setdefault(delay, []).append((post, weight))
        out = self._out[nid] = (by_delay.pop(0, []), list(by_delay.items()))
        return out

    def add_schedule(self, neuron_id: int, time: int) -> None:
        if neuron_id not in self._rows:
            raise UnknownNeuronError(f"scheduled neuron {neuron_id} not in network")
        if time < 0:
            raise ValueError("scheduled fire time must be >= 0")
        self.schedule.append((neuron_id, time))
        self._schedule_by_time.setdefault(time, []).append(neuron_id)

    def copy(self) -> "SpikingNetwork":
        """A never-run copy: same neurons, synapses, schedule, reset mode."""
        clone = SpikingNetwork(overflow_reset=self.overflow_reset)
        clone.add_neurons(self._rows.values())
        clone.add_synapses(chain.from_iterable(self._syn.values()))
        for nid, time in self.schedule:
            clone.add_schedule(nid, time)
        return clone

    def scheduled_at(self, t: int) -> list[int]:
        return self._schedule_by_time.get(t, [])

    def size(self) -> int:
        """Neuron count plus synapse count (the oracle's space measure)."""
        return len(self._rows) + self._n_synapses

    @property
    def tape_ids(self) -> set[int]:
        """Ids of the neurons whose spikes appear on an oracle's output tape."""
        return self._tape

    def neurons_with_role(self, role: Role) -> list[int]:
        return sorted(nid for nid, row in self._rows.items() if row[5] is role)


@dataclass
class SimulationState:
    """Mutable run state; ``t`` is the next step to execute (or the halting
    step once a stop condition has triggered inside :func:`run`).

    ``potentials`` holds every neuron's V.  A leak-1 potential is always
    current; a leaky one is current as of ``last_update`` and decays lazily.
    """

    t: int = 0
    potentials: dict[int, int] = field(default_factory=dict)
    last_update: dict[int, int] = field(default_factory=dict)
    pending: dict[int, list[_Pairs]] = field(default_factory=dict)  # step -> batches due
    trace: list[tuple[int, int]] = field(default_factory=list)
    halted: bool = False
    _recheck: set[int] = field(default_factory=set)

    @classmethod
    def initial(
        cls, net: SpikingNetwork, potentials: dict[int, int] | None = None
    ) -> "SimulationState":
        state = cls()
        values = dict(net._v0)
        if potentials is not None:
            if potentials.keys() <= values.keys():
                values.update(potentials)
            else:  # ids outside the network are ignored
                for nid in values.keys() & potentials.keys():
                    values[nid] = potentials[nid]
        state.potentials = values
        state.last_update = dict.fromkeys(net._leaky, 0)
        net._runs += 1
        # Neurons already at threshold fire at t=0, before any synaptic input.
        threshold = net._threshold
        state._recheck = {nid for nid, v in values.items() if v >= threshold[nid]}
        return state

    @property
    def steps_used(self) -> int:
        """Timesteps consumed: t+1 when halted mid-run, t when run to the limit."""
        return self.t + 1 if self.halted else self.t


def _materialize(net: SpikingNetwork, state: SimulationState, nid: int, t: int) -> int:
    """Apply the multiplicative leak lazily up to time ``t`` and return V."""
    leak = net._leaky.get(nid)
    if leak is None or state.last_update[nid] == t:
        return state.potentials[nid]
    v = state.potentials[nid]
    if v:
        if leak == 0:
            v = 0
        else:
            scaled = v * leak ** (t - state.last_update[nid])
            v = int(scaled) if scaled.denominator == 1 else scaled
        state.potentials[nid] = v
    state.last_update[nid] = t
    return v


def _fire(
    net: SpikingNetwork, state: SimulationState, nids: list[int], t: int, zero_queue: list[_Pairs]
) -> None:
    """Fire every neuron in ``nids`` at step ``t``: drop its potential, put
    its delay-0 pairs on ``zero_queue`` and its delayed ones in
    ``state.pending``.  A firing changes no other neuron's potential."""
    potentials = state.potentials
    if net._leaky:
        for nid in net._leaky.keys() & nids:
            _materialize(net, state, nid, t)
    if net.overflow_reset:
        threshold = net._threshold
        for nid in nids:
            potentials[nid] -= threshold[nid]
    else:
        reset = net._reset
        for nid in nids:
            potentials[nid] = reset[nid]
    # pending[s][0] collects single pairs; split groups are queued whole after it
    pending = state.pending
    outs = net._out
    split = net._runs > 1
    loose: _Pairs = []
    for nid in nids:
        out = outs.get(nid)
        if out is None:
            if split:
                out = net._split_out(nid)
            else:
                for _, post, delay, weight in net._syn[nid]:
                    if delay:
                        batches = pending.get(t + delay)
                        if batches is None:
                            pending[t + delay] = [[(post, weight)]]
                        else:
                            batches[0].append((post, weight))
                    else:
                        loose.append((post, weight))
                continue
        zero, delayed = out
        if zero:
            zero_queue.append(zero)
        for delay, pairs in delayed:
            batches = pending.get(t + delay)
            if batches is None:
                pending[t + delay] = [[], pairs]
            else:
                batches.append(pairs)
    if loose:
        zero_queue.append(loose)


def _deliver(
    net: SpikingNetwork, state: SimulationState, batches: list[_Pairs], t: int
) -> set[int]:
    """Add batches of ``(post, weight)`` pairs now; returns the neurons reached."""
    pairs = list(chain.from_iterable(batches))
    posts = set(map(_first, pairs))
    if net._leaky:
        for nid in net._leaky.keys() & posts:
            _materialize(net, state, nid, t)
    potentials = state.potentials
    for post, weight in pairs:
        potentials[post] += weight
    return posts


def step(net: SpikingNetwork, state: SimulationState) -> tuple[SimulationState, frozenset[int]]:
    """Execute timestep ``state.t`` and advance.  Returns the spike set of the step.

    Order within a step: scheduled fires, delayed-arrival integration,
    threshold check, delay-0 propagation, one threshold re-check, a second
    delay-0 delivery with no check, clamp (see the module docstring).
    A neuron fires at most once per timestep.  Since a firing changes only
    its own potential before the next delivery, each check finds all its
    firing neurons first and then fires them together.
    """
    t = state.t
    potentials = state.potentials
    threshold = net._threshold
    zero_queue: list[_Pairs] = []

    # 1. Scheduled fires happen unconditionally.
    scheduled = net._schedule_by_time.get(t)
    if scheduled:
        firing = list(dict.fromkeys(scheduled))
        _fire(net, state, firing, t, zero_queue)
        fired = set(firing)
    else:
        fired = set()
    touched = set(fired)

    # 2. Integrate arrivals due now; 3. threshold check.
    check = state._recheck
    state._recheck = set()
    arrivals = state.pending.pop(t, None)
    if arrivals:
        reached = _deliver(net, state, arrivals, t)
        touched |= reached
        check |= reached
    if check:
        check -= fired
        if net._leaky:
            for nid in net._leaky.keys() & check:
                _materialize(net, state, nid, t)
        firing = [nid for nid in check if potentials[nid] >= threshold[nid]]
        if firing:
            _fire(net, state, firing, t, zero_queue)
            fired.update(firing)
            touched.update(firing)

    # 4. Same-step delivery over delay-0 synapses; 5. one re-check pass.
    if zero_queue:
        reached = _deliver(net, state, zero_queue, t)
        touched |= reached
        reached -= fired
        firing = [nid for nid in reached if potentials[nid] >= threshold[nid]]
        if firing:
            second_queue: list[_Pairs] = []
            _fire(net, state, firing, t, second_queue)
            fired.update(firing)
            touched.update(firing)
            # Delay-0 output of re-check fires still lands this step, unchecked.
            if second_queue:
                touched |= _deliver(net, state, second_queue, t)

    # 6. Clamp after all same-step arrivals, never per synapse.
    recheck_next = state._recheck
    for nid in touched:
        v = potentials[nid]
        if v < 0:
            potentials[nid] = 0
        elif v >= threshold[nid]:
            recheck_next.add(nid)

    if fired:
        state.trace.extend([(t, nid) for nid in sorted(fired)])
    state.t = t + 1
    return state, frozenset(fired)


def run(
    net: SpikingNetwork,
    max_steps: int,
    stop_on_fire: Iterable[int] | None = None,
    initial_potentials: dict[int, int] | None = None,
) -> SimulationState:
    """Drive :func:`step` from a fresh state for up to ``max_steps`` timesteps.

    With ``stop_on_fire`` the run halts at the first step in which any listed
    neuron spikes; ``state.t`` then names that step and ``halted`` is set.
    ``initial_potentials`` overrides per-neuron starting values.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    stop_set = frozenset(stop_on_fire) if stop_on_fire is not None else None
    state = SimulationState.initial(net, initial_potentials)
    while state.t < max_steps:
        _, fired = step(net, state)
        if stop_set is not None and not stop_set.isdisjoint(fired):
            state.t -= 1
            state.halted = True
            break
    return state


def energy(state: SimulationState) -> int:
    """Total spike count of the run (one unit of energy per spike)."""
    return len(state.trace)


# --- netlist and trace I/O -------------------------------------------------

_ROLES_BY_NAME = {r.value: r for r in Role}


def format_netlist(net: SpikingNetwork) -> str:
    lines = []
    neurons, synapses = net.neurons, net.out_synapses
    for nid in sorted(neurons):
        n = neurons[nid]
        lines.append(f"N {n.id} {n.threshold} {n.reset} {n.leak} {n.v0} {n.role.value}")
    for nid in sorted(synapses):
        for s in synapses[nid]:
            lines.append(f"S {s.pre} {s.post} {s.delay} {s.weight}")
    for nid, time in net.schedule:
        lines.append(f"SCHED {nid} {time}")
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> SpikingNetwork:
    net = SpikingNetwork()
    pending_synapses: list[tuple[int, Synapse]] = []
    pending_schedule: list[tuple[int, int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "N":
                if len(fields) != 7:
                    raise ValueError("expected: N <id> <threshold> <reset> <leak> <v0> <role>")
                role = _ROLES_BY_NAME.get(fields[6])
                if role is None:
                    raise ValueError(f"unknown role {fields[6]!r}")
                values = (int(fields[1]), int(fields[2]), int(fields[3]), Fraction(fields[4]), int(fields[5]))
                net.add_neuron(Neuron(*values, role))
            elif kind == "S":
                if len(fields) != 5:
                    raise ValueError("expected: S <pre> <post> <delay> <weight>")
                pending_synapses.append(
                    (line_no, Synapse(int(fields[1]), int(fields[2]), int(fields[3]), int(fields[4])))
                )
            elif kind == "SCHED":
                if len(fields) != 3:
                    raise ValueError("expected: SCHED <id> <time>")
                pending_schedule.append((line_no, int(fields[1]), int(fields[2])))
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except ParseError:
            raise
        except (ValueError, UnknownNeuronError) as exc:
            raise ParseError(str(exc), line_no) from exc
        except ZeroDivisionError as exc:  # only the leak is a fraction
            raise ParseError(f"leak {fields[4]} has a zero denominator", line_no) from exc
    # Synapses may reference neurons declared later in the file.
    for line_no, syn in pending_synapses:
        try:
            net.add_synapse(syn)
        except (ValueError, UnknownNeuronError) as exc:
            raise ParseError(str(exc), line_no) from exc
    for line_no, nid, time in pending_schedule:
        try:
            net.add_schedule(nid, time)
        except (ValueError, UnknownNeuronError) as exc:
            raise ParseError(str(exc), line_no) from exc
    return net


def write_trace_csv(state: SimulationState, out: TextIO) -> None:
    out.write("time,neuron_id\n")
    for time, nid in state.trace:
        out.write(f"{time},{nid}\n")
