"""Controller/oracle interaction: output tapes, resource metering, working memory.

The conventional controller builds a spiking network on the oracle through
metered write operations, consults it, and reads time-ordered spike events
back.  Every abstract controller operation costs one time unit (a bulk write
of neuron or synapse rows costs one per row); oracle
resources (timesteps, network size, spikes) are tallied per consultation.

A consultation is deterministic in the network and its resting potentials,
and a stop set only truncates the run.  So the oracle keeps one simulation
per network version and answers each consultation from its trace; the
metering is that of a fresh run all the same.  The controller sees only the
output tape: a consultation's spikes are counted while it is cut, and no
record keeps them.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import UndecidedError, UnknownNeuronError, WorkingMemoryExceeded
from .snn import Role, SimulationState, SpikingNetwork, run

SpikeEvent = tuple[int, int]  # (time, neuron id)
_neuron_id = itemgetter(1)


class ConsultMode(enum.Enum):
    TRANSDUCER = "transducer"
    DECIDER = "decider"


class OutputTape:
    """Time-ordered spike events of readout/accept/reject neurons, read once."""

    def __init__(self, events: list[SpikeEvent]):
        self.events = sorted(events)
        self.cursor = 0

    def end(self) -> bool:
        return self.cursor >= len(self.events)

    def read(self) -> SpikeEvent:
        if self.end():
            raise IndexError("read past end of output tape")
        event = self.events[self.cursor]
        self.cursor += 1
        return event


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

    def charge(self, n: int = 1) -> None:
        self.controller_time += n

    def note_wm_cells(self, in_use: int) -> None:
        if in_use > self.controller_wm_peak:
            self.controller_wm_peak = in_use

    def add_consultation(self, record: ConsultRecord) -> None:
        self.consultations.append(record)

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
    """A bounded set of named integer cells; going over capacity is an error."""

    def __init__(self, capacity: int, report: ResourceReport | None = None):
        self.capacity = capacity
        self.report = report
        self.cells: dict[str, int] = {}

    def write(self, name: str, value: int) -> None:
        if name not in self.cells and len(self.cells) >= self.capacity:
            raise WorkingMemoryExceeded(
                f"cannot allocate {name!r}: all {self.capacity} words in use"
            )
        self.cells[name] = value
        if self.report is not None:
            self.report.charge()
            self.report.note_wm_cells(len(self.cells))

    def read(self, name: str) -> int:
        if self.report is not None:
            self.report.charge()
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
    simulator; later ones cut that run's trace at their own stop spike or
    limit, and run the version afresh, keeping the new run, only when the
    saved run ends before either.  Metering does not change: every
    consultation is recorded as the fresh run it replays.
    """

    def __init__(self, report: ResourceReport | None = None, overflow_reset: bool = False):
        self.report = report or ResourceReport()
        self.net = SpikingNetwork(overflow_reset=overflow_reset)
        self._v: dict[int, int] = {}
        self._path: list[int] = []
        self._sim: SimulationState | None = None  # run of the current version
        self._charge = self.report.charge

    # --- construction (communication counts toward controller time) ---

    def write_neurons(self, rows: Sequence[tuple]) -> None:
        """Write neuron rows ``(id, threshold, reset, leak, v0, role)``, one op each."""
        self._charge(len(rows))
        self._sim = None
        self.net.add_neurons(rows)
        self._v.update({row[0]: row[4] for row in rows})

    def write_synapses(self, rows: Sequence[tuple]) -> None:
        """Write synapse rows ``(pre, post, delay, weight)``, one op each."""
        self._charge(len(rows))
        self._sim = None
        self.net.add_synapses(rows)

    def write_schedule(self, neuron_id: int, time: int) -> None:
        self._charge()
        self._sim = None
        self.net.add_schedule(neuron_id, time)

    def write_voltage(self, neuron_id: int, delta: int) -> None:
        """Additively adjust a neuron's resting potential (Write_Voltage)."""
        self._charge()
        self._sim = None
        if neuron_id not in self._v:
            raise UnknownNeuronError(f"no neuron {neuron_id}")
        value = self._v[neuron_id] + delta
        if value < 0:
            raise ValueError(f"write would drive neuron {neuron_id} below zero")
        self._v[neuron_id] = value

    def read_voltage(self, neuron_id: int) -> int:
        self._charge()
        if neuron_id not in self._v:
            raise UnknownNeuronError(f"no neuron {neuron_id}")
        return self._v[neuron_id]

    def threshold_of(self, neuron_id: int) -> int:
        self._charge()
        neurons = self.net.neurons
        if neuron_id not in neurons:
            raise UnknownNeuronError(f"no neuron {neuron_id}")
        return neurons[neuron_id].threshold

    # --- path store (the oracle-side network that "maintains the path") ---

    def write_path(self, marker: int) -> None:
        """Append one marker to the oracle-held path (Write_Path)."""
        self._charge()
        self._path.append(marker)

    def read_path(self) -> list[int]:
        """Read the stored path back in write order (Read_Path), metered per item."""
        self._charge(max(1, len(self._path)))
        return list(self._path)

    def clear_path(self) -> None:
        self._charge()
        self._path = []

    # --- consultation ---

    def _replay(self, time_limit: int, stop: frozenset[int]) -> tuple[list[SpikeEvent], int, int | None]:
        """The trace and step count of a fresh run of the current version to
        ``time_limit`` that halts at the first spike in ``stop``, and the
        halting step (None when it runs to the limit)."""
        sim = self._sim
        cut = None if sim is None else _first_stop_time(sim.trace, stop, time_limit)
        if cut is None and (sim is None or sim.steps_used < time_limit):
            sim = self._sim = run(self.net, time_limit, stop_on_fire=stop, initial_potentials=self._v)
            cut = sim.t if sim.halted else None
        steps = time_limit if cut is None else cut + 1
        return sim.trace[: bisect_left(sim.trace, (steps,))], steps, cut

    def consult(
        self,
        mode: ConsultMode,
        time_limit: int,
        stop_on_fire: set[int] | None = None,
    ) -> tuple[OutputTape, ConsultRecord]:
        if time_limit < 1:
            raise ValueError("time_limit must be >= 1")
        net = self.net
        if mode is ConsultMode.DECIDER and stop_on_fire is None:
            stop_on_fire = set(net.neurons_with_role(Role.ACCEPT)) | set(
                net.neurons_with_role(Role.REJECT)
            )
        trace, steps, cut = self._replay(time_limit, frozenset(stop_on_fire or ()))
        tape_ids = net.tape_ids
        tape = OutputTape([event for event in trace if event[1] in tape_ids])
        record = ConsultRecord(
            mode=mode.value,
            timesteps=steps,
            spikes=len(trace),
            network_size=net.size(),
            stop_step=cut,
            repeat_spikes=len(trace) - len(set(map(_neuron_id, trace))),
        )
        if mode is ConsultMode.DECIDER:
            roles = {net.neurons[nid].role for _, nid in tape.events}
            accepted = Role.ACCEPT in roles
            rejected = Role.REJECT in roles
            if accepted:
                record.bit = 1
            elif rejected:
                record.bit = 0
            else:
                self.report.add_consultation(record)
                raise UndecidedError(
                    f"decider ran {record.timesteps} steps with neither accept nor reject"
                )
        self.report.add_consultation(record)
        return tape, record


def _first_stop_time(trace: list[SpikeEvent], stop: frozenset[int], time_limit: int) -> int | None:
    """Time of the first spike in ``stop`` before ``time_limit``, if any."""
    for t, nid in trace:
        if t >= time_limit:
            return None
        if nid in stop:
            return t
    return None
