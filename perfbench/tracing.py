"""Spans around spikeflow's public functions, installed from outside the package.

A target names a function as ``"module:attr"`` or a method as
``"module:Class.method"``.  A function is replaced in every loaded
``spikeflow`` module that binds it (``oracle`` imports ``run`` from ``snn``,
``bench`` imports ``solve`` from ``maxflow``), so calls through either name
are seen.  A target that no longer exists is reported as missing and skipped;
renaming or deleting a function never crashes a run.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

Wrap = Callable[[Callable], Callable]


def _bindings(target: str) -> list[tuple[object, str]] | None:
    """Every (owner, attribute) pair that binds the target's current object."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    if parents:
        return [(owner, attr)]
    package = module_name.split(".")[0]
    return [
        (module, name)
        for module_key, module in list(sys.modules.items())
        if module is not None and (module_key == package or module_key.startswith(package + "."))
        for name, value in list(vars(module).items())
        if value is original
    ]


@contextmanager
def patched(wraps: dict[str, Wrap]) -> Iterator[list[str]]:
    """Install ``wrap(original)`` at every binding of each target; yields the
    targets that could not be found.  Restores every binding on exit."""
    missing: list[str] = []
    undo: list[tuple[object, str, object]] = []
    try:
        for target, wrap in wraps.items():
            bindings = _bindings(target)
            if not bindings:
                missing.append(target)
                continue
            owner, attr = bindings[0]
            replacement = wrap(getattr(owner, attr))
            for owner, attr in bindings:
                undo.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, replacement)
        yield missing
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _run_observer(tracer: "Tracer", args: tuple, kwargs: dict, state) -> None:
    """Counts for ``snn.run``: timesteps, spikes and the distinct oracle states
    simulated.  A state is the network plus the resting potentials it starts
    from; the stop set only truncates a run, so it is not part of the state."""
    tracer.count["snn.steps"] += getattr(state, "steps_used", 0)
    tracer.count["snn.spikes"] += len(getattr(state, "trace", ()) or ())
    net = args[0] if args else kwargs.get("net")
    potentials = kwargs.get("initial_potentials", args[3] if len(args) > 3 else None)
    # writes change values in place, so one state always lists its items in one order
    tracer.op_states.add((id(net), len(getattr(net, "neurons", ())), hash(tuple((potentials or {}).items()))))


def _arcs_observer(tracer: "Tracer", args: tuple, kwargs: dict, inst) -> None:
    tracer.count["tnfr.arcs"] += len(getattr(inst, "arcs", ()))


# span name -> (targets, observer of (tracer, args, kwargs, result))
SPANS: dict[str, tuple[tuple[str, ...], Callable | None]] = {
    "snn.run": (("spikeflow.snn:run",), _run_observer),
    "oracle.consult": (("spikeflow.oracle:NeuromorphicOracle.consult",), None),
    "maxflow.build": (
        ("spikeflow.maxflow:build_capacity_neurons", "spikeflow.maxflow:build_search_network"),
        None,
    ),
    "maxflow.decode_path": (("spikeflow.maxflow:decode_path",), None),
    "maxflow.recover_path_backward": (("spikeflow.maxflow:recover_path_backward",), None),
    "maxflow.descend_path": (("spikeflow.maxflow:descend_path",), None),
    "maxflow.apply_flow_update": (("spikeflow.maxflow:apply_flow_update",), None),
    "maxflow.verify_episode_properties": (("spikeflow.maxflow:verify_episode_properties",), None),
    "maxflow.solve": (("spikeflow.maxflow:solve",), None),
    "flow.generate_random": (("spikeflow.flow:generate_random",), None),
    "flow.validate_flow": (("spikeflow.flow:validate_flow",), None),
    "bench.classical_search_steps": (("spikeflow.bench:classical_search_steps",), None),
    "bench.run_instance": (("spikeflow.bench:run_instance",), None),
    "naive.decide_naive": (("spikeflow.naive:decide_naive",), None),
    "naive.build_decider": (("spikeflow.naive:build_decider",), None),
    "tnfr.verify_reduction": (("spikeflow.tnfr:verify_reduction",), None),
    "tnfr.simulate_constrained": (("spikeflow.tnfr:simulate_constrained",), None),
    "tnfr.reduce_network": (("spikeflow.tnfr:reduce_network",), _arcs_observer),
    "tnfr.check_feasible": (("spikeflow.tnfr:check_feasible",), None),
}


class Tracer:
    """Records spans (name, start, end, parent) while enabled.

    Wrappers stay installed for a whole traced run; while ``enabled`` is false
    they call straight through, so untraced executions in the same process
    pay one extra call per wrapped function and record nothing.
    """

    def __init__(self, spans: dict[str, tuple[tuple[str, ...], Callable | None]] = SPANS):
        self.spans_spec = spans
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.count: dict[str, float] = defaultdict(float)
        self.op_states: set = set()
        self.distinct_states = 0

    def _wrap(self, name: str, observer: Callable | None) -> Wrap:
        def wrap(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
                self._stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    self.spans[index][1:3] = start, end
                if observer is not None:
                    observer(self, args, kwargs, result)
                return result

            return traced

        return wrap

    @contextmanager
    def installed(self) -> Iterator[list[str]]:
        """Install every span; yields the span names whose targets are missing."""
        wraps = {
            target: self._wrap(name, observer)
            for name, (targets, observer) in self.spans_spec.items()
            for target in targets
        }
        with patched(wraps) as missing_targets:
            yield sorted(
                {name for name, (targets, _) in self.spans_spec.items() if set(targets) & set(missing_targets)}
            )

    @contextmanager
    def recording(self) -> Iterator[None]:
        """Trace one operation."""
        self.op_states = set()
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self.distinct_states += len(self.op_states)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total duration, total self time and call count.
        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on the single thread."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child):
            total[name] += end - start
            self_time[name] += end - start - inner
            calls[name] += 1
        return total, self_time, calls
