"""Controller/oracle interaction: output tapes, resource metering, working memory.

The conventional controller builds a spiking network on the oracle through
metered write operations, consults it, and reads time-ordered spike events
back.  Every abstract controller operation costs one time unit, and each
primitive charges its own: a bulk write of neuron or synapse rows costs one
per row, iterating an output tape one per event it yields (a scan that stops
early pays only for what it read), and the working memory one per word when
its fixed frame is allocated and one per read or write.  Oracle resources
(timesteps, network size, spikes) are tallied per consultation.

A consultation is deterministic in the network and its resting potentials,
and a stop set only truncates the run.  So the oracle keeps one simulation
per network version and answers each consultation from it; the metering is
that of a fresh run all the same.  The run is indexed once, by step, in one
pass over its record of the steps that fired: each such step's time, and
the spikes, repeats (spikes of a neuron that had already spiked) and tape
events up to and including it.  A consultation's cut is the first recorded
step in which its stop set fired, or else its limit; it bisects the step
times there, so it costs the steps it walks and its tape, not the spikes.
The controller sees only the output tape, and no record keeps a
consultation's spikes.

``write_voltage`` rewrites a neuron's resting potential in the network
itself (``SpikingNetwork.set_resting_potential``), so the network's rows,
its copies and its netlist carry every written value, and a run starts from
the network's v0 table as it stands.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass, field

from .errors import UndecidedError, UnknownNeuronError, WorkingMemoryExceeded
from .snn import SimulationState, SpikingNetwork, run

SpikeEvent = tuple[int, int]  # (time, neuron id)


class OutputTape:
    """Time-ordered spike events of readout/accept/reject neurons.

    Iterating the tape reads it, at one controller op on ``report`` per event
    yielded; ``events`` is the tape as the oracle wrote it, unmetered.  The
    events arrive in ``(t, id)`` order and are stored as given.
    """

    def __init__(self, events: list[SpikeEvent], report: ResourceReport):
        self.events = events
        self.report = report

    def __iter__(self) -> Iterator[SpikeEvent]:
        report = self.report
        for event in self.events:
            report.controller_time += 1
            yield event


@dataclass
class ConsultRecord:
    mode: str
    timesteps: int
    spikes: int
    network_size: int
    bit: int | None = None
    # for property checks, not part of the JSON report: the step of the stop
    # spike that ended the run (None when it ran to its limit), and how many
    # spikes came from a neuron that had already spiked in it
    stop_step: int | None = None
    repeat_spikes: int = 0


@dataclass
class ResourceReport:
    """Append-only resource meter for one controller/oracle pair."""

    controller_time: int = 0
    controller_wm_peak: int = 0
    consultations: list[ConsultRecord] = field(default_factory=list)

    @property
    def oracle_time(self) -> int:
        return max((c.timesteps for c in self.consultations), default=0)

    @property
    def oracle_space(self) -> int:
        return max((c.network_size for c in self.consultations), default=0)

    @property
    def oracle_energy(self) -> int:
        return sum(c.spikes for c in self.consultations)

    def to_dict(self) -> dict:
        return {
            "controller_time": self.controller_time,
            "controller_wm_peak": self.controller_wm_peak,
            "oracle_time": self.oracle_time,
            "oracle_space": self.oracle_space,
            "oracle_energy": self.oracle_energy,
            "consultations": [
                {
                    "mode": c.mode,
                    "timesteps": c.timesteps,
                    "spikes": c.spikes,
                    "network_size": c.network_size,
                    "bit": c.bit,
                }
                for c in self.consultations
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


class WorkingMemory:
    """The controller's fixed frame of named integer words.

    The frame is allocated at once, as zeros, at one controller op per word,
    and its size is the report's ``controller_wm_peak``.  Every read and
    write costs one op; writing a word outside the frame raises
    :class:`WorkingMemoryExceeded`.  ``peak_bits`` is the bit width of the
    widest value ever written, so the words' size, and not only their count,
    can be checked against the logspace bound.
    """

    def __init__(self, frame: Sequence[str], report: ResourceReport):
        self.cells = dict.fromkeys(frame, 0)
        self.report = report
        self.peak_bits = 0
        report.controller_time += len(self.cells)
        report.controller_wm_peak = len(self.cells)

    def write(self, name: str, value: int) -> None:
        cells = self.cells
        if name not in cells:
            raise WorkingMemoryExceeded(f"{name!r} is not one of the {len(cells)} words of the frame")
        cells[name] = value
        if value.bit_length() > self.peak_bits:
            self.peak_bits = value.bit_length()
        self.report.controller_time += 1

    def read(self, name: str) -> int:
        self.report.controller_time += 1
        return self.cells[name]


class NeuromorphicOracle:
    """Holds a network under construction and simulates it on demand.

    Controller-facing writes mutate the stored network (including per-neuron
    resting potentials); each consultation answers as a run from those
    potentials in a fresh state would, so values written between
    consultations persist while within-episode dynamics do not.

    Neurons and synapses go through one write path, ``write_neurons`` and
    ``write_synapses``, at one controller op per row.

    Every network write (neuron, synapse, schedule, voltage) starts a new
    network version.  The first consultation of a version runs the
    simulator and keeps the run, indexed by step; later ones cut it at their
    own stop spike or limit, and run the version afresh, keeping the new
    run, only when the saved run ends before either.  Metering does not
    change: every consultation is recorded as the fresh run it replays.
    """

    def __init__(self, report: ResourceReport | None = None):
        self.report = report or ResourceReport()
        self.net = SpikingNetwork()
        self._path: list[int] = []
        self._saved: _IndexedRun | None = None  # run of the current version

    # --- construction (communication counts toward controller time) ---

    def write_neurons(self, rows: Sequence[tuple]) -> None:
        """Write neuron rows ``(id, threshold, reset, leak, v0, role)``, one op each."""
        self.report.controller_time += len(rows)
        self._saved = None
        self.net.add_neurons(rows)

    def write_synapses(self, rows: Sequence[tuple]) -> None:
        """Write synapse rows ``(pre, post, delay, weight)``, one op each."""
        self.report.controller_time += len(rows)
        self._saved = None
        self.net.add_synapses(rows)

    def write_schedule(self, neuron_id: int, time: int) -> None:
        self.report.controller_time += 1
        self._saved = None
        self.net.add_schedule(neuron_id, time)

    def write_voltage(self, neuron_id: int, delta: int) -> None:
        """Additively adjust a neuron's resting potential (Write_Voltage)."""
        self.report.controller_time += 1
        self._saved = None
        self.net.set_resting_potential(neuron_id, self._resting(neuron_id) + delta)

    def read_voltage(self, neuron_id: int) -> int:
        self.report.controller_time += 1
        return self._resting(neuron_id)

    def _resting(self, neuron_id: int) -> int:
        try:
            return self.net.resting_potential(neuron_id)
        except KeyError:
            raise UnknownNeuronError(f"no neuron {neuron_id}") from None

    def threshold_of(self, neuron_id: int) -> int:
        self.report.controller_time += 1
        try:
            return self.net.threshold(neuron_id)
        except KeyError:
            raise UnknownNeuronError(f"no neuron {neuron_id}") from None

    # --- path store (the oracle-side network that "maintains the path") ---

    def write_path(self, marker: int) -> None:
        """Append one marker to the oracle-held path (Write_Path)."""
        self.report.controller_time += 1
        self._path.append(marker)

    def read_path(self) -> list[int]:
        """Read the stored path back in write order (Read_Path), metered per item."""
        self.report.controller_time += max(1, len(self._path))
        return list(self._path)

    def clear_path(self) -> None:
        self.report.controller_time += 1
        self._path = []

    # --- consultation ---

    def _replay(self, time_limit: int, stop: frozenset[int]) -> tuple[_IndexedRun, int, int | None]:
        """A run of the current version that answers a fresh run to
        ``time_limit`` halting at the first spike in ``stop``: the saved run
        when its fired steps decide that, else a new one.  Also the answer's
        step count and halting step (None when it runs to the limit)."""
        saved = self._saved
        cut = None if saved is None else saved.first_spike(stop, time_limit)
        if cut is None and (saved is None or saved.steps < time_limit):
            state = run(self.net, time_limit, stop_on_fire=stop)
            saved = self._saved = _IndexedRun(state, self.net.tape_ids)
            cut = state.t if state.halted else None
        steps = time_limit if cut is None else cut + 1
        return saved, steps, cut

    def consult(
        self, time_limit: int, stop_on_fire: Collection[int] | None = None
    ) -> tuple[OutputTape, ConsultRecord]:
        """Run the network for ``time_limit`` steps, halting at the first
        spike in ``stop_on_fire``.  A network with accept or reject neurons
        is a decider: with no stop set it halts at their first spike, and its
        record holds the bit read (an accept outweighs a reject), or it
        raises :class:`UndecidedError` when neither fired.  Any other
        network is a transducer, read only through its tape."""
        if time_limit < 1:
            raise ValueError("time_limit must be >= 1")
        net = self.net
        bits = net.decider_bits
        if bits and stop_on_fire is None:
            stop_on_fire = bits.keys()
        saved, steps, cut = self._replay(time_limit, frozenset(stop_on_fire or ()))
        tape_events, spikes, repeats = saved.cut(steps)
        tape = OutputTape(tape_events, self.report)
        record = ConsultRecord(
            mode="decider" if bits else "transducer",
            timesteps=steps,
            spikes=spikes,
            network_size=net.size(),
            stop_step=cut,
            repeat_spikes=repeats,
        )
        self.report.consultations.append(record)
        if bits:
            read = {bits[nid] for _, nid in tape_events if nid in bits}
            if not read:
                raise UndecidedError(f"decider ran {steps} steps with neither accept nor reject")
            record.bit = max(read)  # an accept outweighs a reject
        return tape, record


class _IndexedRun:
    """One simulation of a network version, indexed by step in one pass
    over its ``fired_steps``: the times of the steps that fired, the tape,
    and the counts of spikes, repeated spikes and tape events before each
    of those steps and at the end."""

    __slots__ = ("steps", "fired_steps", "times", "counts", "tape")

    def __init__(self, state: SimulationState, tape_ids: set[int]):
        self.steps = state.steps_used
        fired_steps = self.fired_steps = state.fired_steps
        self.times = [t for t, _ in fired_steps]
        counts = self.counts = [(0, 0, 0)]  # (spikes, repeats, tape events)
        tape = self.tape = []
        seen: set[int] = set()
        spikes = repeats = 0
        for t, fired in fired_steps:
            spikes += len(fired)
            repeats += len(fired & seen)
            seen |= fired
            taped = fired & tape_ids
            if taped:
                tape += [(t, nid) for nid in sorted(taped)]
            counts.append((spikes, repeats, len(tape)))

    def first_spike(self, stop: frozenset[int], time_limit: int) -> int | None:
        """The first step before ``time_limit`` in which a neuron in ``stop``
        fired, if any."""
        for t, fired in self.fired_steps:
            if t >= time_limit:
                break
            if not stop.isdisjoint(fired):
                return t
        return None

    def cut(self, steps: int) -> tuple[list[SpikeEvent], int, int]:
        """The tape events, spike count and repeated-spike count of the
        run's first ``steps`` timesteps."""
        spikes, repeats, taped = self.counts[bisect_left(self.times, steps)]
        return self.tape[:taped], spikes, repeats
