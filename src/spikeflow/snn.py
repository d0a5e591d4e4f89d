"""Deterministic discrete-time simulator for integer leaky integrate-and-fire networks.

The membrane update per timestep is ``V <- leak * V + sum(arriving weights)``;
a neuron fires when V reaches its threshold and its potential then drops to the
reset value (or, in overflow mode, the threshold is subtracted).  Potentials
are clamped at zero only after all same-step arrivals have been summed, so
inhibition can cancel excitation within a step.

One timestep ``t`` fires the neurons scheduled at ``t``, whatever their
potential, and then runs rounds to a fixed point.  Each round delivers a
batch of spikes, checks the neurons the batch reached, and fires every
checked neuron with ``V >= threshold`` that has not fired in this step.
The first round's batch is the spikes due at ``t``, and it also checks the
neurons left at threshold after step ``t-1`` (or at the start).  Each later
round's batch is the delay-0 output of the fires before it that no round
has delivered yet; the scheduled fires count as fires of the first round.
The step ends with the first round that queues no delay-0 output.  Touched
potentials are then clamped at zero, and any left at threshold are checked
in the first round of step ``t+1``.

Every neuron a delivery reaches is checked in that round, so delay-0
propagation has no depth limit: in a chain 0 -> 1 -> 2 -> 3 of delay-0
synapses where neuron 0 fires at ``t``, all four fire at ``t``.  A neuron
fires at most once per step, so a step runs at most one round per neuron,
and the trace lists each step's spikes by neuron id.

Neurons with leak 1 keep a current potential and never decay.  Leak-0
neurons are memoryless: those a step touched (at step 1 also those with a
nonzero start) are zeroed as the next step begins.  A run that halts or ends
leaves their last step's values, and :func:`_materialize` reads them as 0
once ``t`` reaches the next step.  A fractional leak is applied lazily when
the neuron is next read.  An empty step therefore changes nothing but ``t``,
and :func:`run` skips to its limit once a run is quiescent: no spike in
flight, no neuron at threshold and no scheduled fire still to come.

A network is written through one path, as rows of plain tuples that are
checked, stored as given and copied into the simulator's flat tables in one
pass (see :class:`SpikingNetwork`); ``Neuron`` and ``Synapse`` records are
rebuilt from the rows only when a reader asks for them.
"""

from __future__ import annotations

import enum
from collections.abc import Collection, Mapping
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


# Roles whose spikes are visible on an oracle's output tape.  A tuple, so a
# membership test compares by identity and calls no Python-level Enum.__hash__.
TAPE_ROLES = (Role.READOUT, Role.ACCEPT, Role.REJECT)

_post = itemgetter(1)

_Rows = list[tuple]  # synapse rows (pre, post, delay, weight), the unit of delivery


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
    (duplicate id, threshold >= 1, v0 >= 0, leak in [0, 1], delay >= 0,
    unknown endpoint), stored as given, and copied into the flat tables
    :func:`step` reads: threshold, reset, initial potential, the set of
    leak-0 neurons, the fractional leaks, the set of neurons whose initial
    potential is at threshold, the tape-role set, the decider bits (accept
    1, reject 0) and the synapse count.
    ``neurons`` and ``out_synapses`` rebuild records from the rows.

    A spike delivers the synapse rows themselves: a firing neuron queues
    its out-synapse rows one by one, by delay, into its run's state.
    :func:`run` and :func:`step` write nothing here, so a network is the
    same before and after any number of runs.
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
        self._at_threshold: set[int] = set()  # v0 >= threshold: fires at t=0
        self._leak0: set[int] = set()
        self._leaky: dict[int, Fraction] = {}  # fractional leaks only
        self.tape_ids: set[int] = set()  # neurons whose spikes an oracle's output tape shows
        self.decider_bits: dict[int, int] = {}  # accept id -> 1, reject id -> 0
        self._n_synapses = 0

    @property
    def neurons(self) -> Mapping[int, Neuron]:
        return _Records(self._rows, Neuron._make)

    @property
    def out_synapses(self) -> Mapping[int, list[Synapse]]:
        return _Records(self._syn, lambda rows: list(map(Synapse._make, rows)))

    def add_neurons(self, rows: Iterable[tuple]) -> None:
        known, out = self._rows, self._syn
        threshold, reset, v0, leaky, tape = self._threshold, self._reset, self._v0, self._leaky, self.tape_ids
        at_threshold, leak0, decider = self._at_threshold, self._leak0, self.decider_bits
        for row in rows:
            nid, th, r, leak, v, role = row
            if th < 1:
                raise ValueError(f"neuron {nid}: threshold must be >= 1")
            if v < 0:
                raise ValueError(f"neuron {nid}: initial potential must be >= 0")
            if not 0 <= leak <= 1:
                raise ValueError(f"neuron {nid}: leak must be in [0, 1]")
            if nid in known:
                raise ValueError(f"duplicate neuron id {nid}")
            known[nid] = row
            out[nid] = []
            threshold[nid] = th
            reset[nid] = r
            v0[nid] = v
            if v >= th:
                at_threshold.add(nid)
            if not leak:
                leak0.add(nid)
            elif leak != 1:
                leaky[nid] = leak
            if role in TAPE_ROLES:
                tape.add(nid)
                if role is not Role.READOUT:
                    decider[nid] = int(role is Role.ACCEPT)

    def add_synapses(self, rows: Iterable[tuple]) -> None:
        out = self._syn
        for row in rows:
            pre, post, delay, _ = row
            if delay < 0:
                raise ValueError("synapse delay must be >= 0")
            if pre not in out or post not in out:
                missing = pre if pre not in out else post
                raise UnknownNeuronError(f"synapse endpoint {missing} not in network")
            out[pre].append(row)
            self._n_synapses += 1

    def add_neuron(self, neuron: Neuron) -> None:
        self.add_neurons((neuron,))

    def add_synapse(self, synapse: Synapse) -> None:
        self.add_synapses((synapse,))

    def add_schedule(self, neuron_id: int, time: int) -> None:
        if neuron_id not in self._rows:
            raise UnknownNeuronError(f"scheduled neuron {neuron_id} not in network")
        if time < 0:
            raise ValueError("scheduled fire time must be >= 0")
        self.schedule.append((neuron_id, time))
        self._schedule_by_time.setdefault(time, []).append(neuron_id)

    def copy(self) -> "SpikingNetwork":
        """An independent copy: same neurons, synapses, schedule, reset mode."""
        clone = SpikingNetwork(overflow_reset=self.overflow_reset)
        clone.add_neurons(self._rows.values())
        clone.add_synapses(chain.from_iterable(self._syn.values()))
        for nid, time in self.schedule:
            clone.add_schedule(nid, time)
        return clone

    def resting_potential(self, nid: int) -> int:
        """The neuron's initial potential v0; ``KeyError`` for an unknown id."""
        return self._v0[nid]

    def threshold(self, nid: int) -> int:
        """The neuron's threshold; ``KeyError`` for an unknown id."""
        return self._threshold[nid]

    def size(self) -> int:
        """Neuron count plus synapse count (the oracle's space measure)."""
        return len(self._rows) + self._n_synapses


@dataclass
class SimulationState:
    """Mutable run state; ``t`` is the next step to execute (or the halting
    step once a stop condition has triggered inside :func:`run`).

    ``potentials`` holds every neuron's V.  A leak-1 potential is always
    current, a fractional-leak one as of ``last_update``; the leak-0 ones
    in ``_zero`` read 0 from step ``_zero_at`` on, when :func:`step` zeroes them.
    """

    t: int = 0
    potentials: dict[int, int] = field(default_factory=dict)
    last_update: dict[int, int] = field(default_factory=dict)
    pending: dict[int, _Rows] = field(default_factory=dict)  # step -> synapse rows due
    trace: list[tuple[int, int]] = field(default_factory=list)
    halted: bool = False
    _recheck: set[int] = field(default_factory=set)
    _zero: set[int] = field(default_factory=set)
    _zero_at: int = 1

    @classmethod
    def initial(
        cls, net: SpikingNetwork, potentials: dict[int, int] | None = None
    ) -> "SimulationState":
        state = cls()
        values = dict(net._v0)
        # Neurons already at threshold fire at t=0, before any synaptic input.
        recheck = set(net._at_threshold)
        if potentials:
            threshold = net._threshold
            for nid, v in potentials.items():
                th = threshold.get(nid)
                if th is None:  # ids outside the network are ignored
                    continue
                values[nid] = v
                if v >= th:
                    recheck.add(nid)
                else:
                    recheck.discard(nid)
        state.potentials = values
        state.last_update = dict.fromkeys(net._leaky, 0)
        state._zero = {nid for nid in net._leak0 if values[nid]}
        state._recheck = recheck
        return state

    @property
    def steps_used(self) -> int:
        """Timesteps consumed: t+1 when halted mid-run, t when run to the limit."""
        return self.t + 1 if self.halted else self.t


def _materialize(net: SpikingNetwork, state: SimulationState, nid: int, t: int) -> int:
    """V at time ``t``: a fractional leak is applied lazily, and a leak-0
    neuron still due to be zeroed reads 0 from its zeroing step on."""
    leak = net._leaky.get(nid)
    if leak is None:
        return 0 if t >= state._zero_at and nid in state._zero else state.potentials[nid]
    if state.last_update[nid] == t:
        return state.potentials[nid]
    v = state.potentials[nid]
    if v:
        scaled = v * leak ** (t - state.last_update[nid])
        v = int(scaled) if scaled.denominator == 1 else scaled
        state.potentials[nid] = v
    state.last_update[nid] = t
    return v


def _fire(
    net: SpikingNetwork, state: SimulationState, nids: Collection[int], t: int, zero_queue: _Rows
) -> None:
    """Fire every neuron in ``nids`` at step ``t``: drop its potential and
    queue each of its synapse rows, a delay-0 one on ``zero_queue`` and a
    delayed one on ``state.pending[t + delay]``.  A firing changes no other
    neuron's potential."""
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
    pending = state.pending
    syn = net._syn
    for nid in nids:
        for row in syn[nid]:
            delay = row[2]
            if delay:
                due = pending.get(t + delay)
                if due is None:
                    pending[t + delay] = [row]
                else:
                    due.append(row)
            else:
                zero_queue.append(row)


def _deliver(net: SpikingNetwork, state: SimulationState, rows: _Rows, t: int) -> set[int]:
    """Add the weights of synapse rows now; returns the neurons reached."""
    posts = set(map(_post, rows))
    if net._leaky:
        for nid in net._leaky.keys() & posts:
            _materialize(net, state, nid, t)
    potentials = state.potentials
    for _, post, _, weight in rows:
        potentials[post] += weight
    return posts


def step(net: SpikingNetwork, state: SimulationState) -> tuple[SimulationState, frozenset[int]]:
    """Execute timestep ``state.t`` and advance.  Returns the spike set of the step.

    The leak-0 zeroing, scheduled fires, then deliver-check-fire rounds
    until a round queues no delay-0 output, then the clamp (see the module
    docstring).  Since a firing changes only its own potential before the
    next delivery, each round finds all its firing neurons first and then
    fires them together.
    """
    t = state.t
    potentials = state.potentials
    threshold = net._threshold
    zero_queue: _Rows = []
    stale = state._zero
    if stale and state._zero_at == t:
        potentials.update(dict.fromkeys(stale, 0))
        stale.clear()

    fired = set(net._schedule_by_time.get(t, ()))
    if fired:
        _fire(net, state, fired, t, zero_queue)
    touched: set[int] = set()

    # Each round checks the neurons its batch reached, fires those at
    # threshold, and delivers their delay-0 output as the next batch.
    check = state._recheck
    state._recheck = set()
    if net._leaky:
        for nid in net._leaky.keys() & check:
            _materialize(net, state, nid, t)
    arrivals = state.pending.pop(t, None)
    if arrivals:
        check |= _deliver(net, state, arrivals, t)
    while True:
        touched |= check
        check -= fired
        firing = [nid for nid in check if potentials[nid] >= threshold[nid]]
        if firing:
            _fire(net, state, firing, t, zero_queue)
            fired.update(firing)
        if not zero_queue:
            break
        check = _deliver(net, state, zero_queue, t)
        zero_queue = []

    # Clamp after all same-step arrivals, never per synapse.
    touched |= fired
    recheck_next = state._recheck
    for nid in touched:
        v = potentials[nid]
        if v < 0:
            potentials[nid] = 0
        elif v >= threshold[nid]:
            recheck_next.add(nid)
    if net._leak0:  # zeroed as step t+1 begins; after step 0 with the nonzero starts
        state._zero, state._zero_at = net._leak0 & touched | state._zero, t + 1

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

    A run that falls quiescent, with no spike pending, no neuron due a
    re-check and none scheduled at or after ``t``, can fire no more: it jumps
    to ``t = max_steps`` and returns the trace, ``steps_used`` and potentials
    that stepping on would give.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    stop_set = frozenset(stop_on_fire) if stop_on_fire is not None else None
    state = SimulationState.initial(net, initial_potentials)
    last_scheduled = max(net._schedule_by_time, default=-1)
    while state.t < max_steps:
        if state.t > last_scheduled and not state.pending and not state._recheck:
            state.t = max_steps
            break
        _, fired = step(net, state)
        if stop_set is not None and not stop_set.isdisjoint(fired):
            state.t -= 1
            state.halted = True
            break
    return state


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
