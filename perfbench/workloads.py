"""The four workloads: what one operation is, how a run's passes come from
the seed, which model meters identify each result, and how each answer is
checked.

A run executes whole passes.  Every pass of a workload has the same
composition (sizes, modes, configuration classes), so the median and the
tail percentile fall at the same place in the mix however many passes fit
in the run, and throughput is measured over a complete mix.

* ``dense``: complete DAGs, n = 10..25 with n = 20 four times and n = 25
  three times per pass, each instance as a paper-faithful and a residual
  row.  The simulator dominates; the mix has full-horizon readout floods,
  jam recoveries and residual per-arc descents, which re-run the same
  oracle state.
* ``sparse``: the sparse bench suite (m = 1.4n), n = 20..100 with n = 60
  three times and n = 80 twice per pass, paper-faithful.  Instance
  generation is nearly all of each operation and about half the instances
  have max-flow 0, so it shows generator gains and bypasses the simulator.
* ``naive``: ``decide_naive`` over the small networks of the naive-decider
  acceptance suite and thresholds d = 0..3, renamed by the seed.  Each
  operation writes tens to thousands of neurons, then consults once, so
  oracle writes sit beside one read and nothing is re-simulated.
* ``reduction``: ``verify_reduction`` on the reduction acceptance suite's
  seven constrained netlists plus longer chains, the accepting ones drawn
  eight times each per pass.  Accepting configurations finish through the
  witness in about a millisecond; rejecting ones spend nearly all their
  time in ``check_feasible``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from array import array
from dataclasses import asdict, dataclass
from fractions import Fraction

from spikeflow import bench, naive, tnfr
from spikeflow.flow import FlowNetwork
from spikeflow.maxflow import PAPER_FAITHFUL, RESIDUAL
from spikeflow.snn import Neuron, SpikingNetwork, Synapse

from . import checks
from .tracing import patched

# Bench-row fields that are model meters (everything but the instance itself).
ROW_METERS = (
    "suite", "mode", "n_nodes", "n_edges", "sample", "seed", "value", "classical_value",
    "divergence", "episodes", "total_consults", "decode_jams", "mean_spikes_per_query",
    "mean_timesteps_per_query", "max_query_timesteps", "mean_augmenting_path_len",
    "oracle_energy", "controller_time", "wm_peak", "classical_time_steps", "property_violations",
)


@dataclass
class Op:
    label: str
    args: tuple


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _trace_events(records) -> int:
    return sum(len(getattr(r, "trace", None) or ()) for r in records)


def _edges(net: FlowNetwork) -> list[checks.Edge]:
    return [(e.tail, e.head, e.cap) for e in net.edges]


def _packed(values) -> array:
    """Integers kept until the checks run, packed so that what a run holds
    for its checks adds little to its peak memory."""
    return array("i", values)


class InstanceWorkload:
    """One ``bench.run_instance`` call per operation."""

    def __init__(self, name: str, suite: str, sizes: list[int], modes: tuple[str, ...], tail_pct: float):
        self.name = name
        self.suite = suite
        self.sizes = sizes
        self.modes = modes
        self.tail_pct = tail_pct
        self._solved = None

    def expected_edges(self, n: int) -> int:
        return n * (n - 1) // 2 if self.suite == bench.DENSE else max(n - 1, int(1.4 * n))

    def build_pass(self, seed: int, index: int) -> list[Op]:
        """A size listed k times gets k instances per pass, samples
        k * index .. k * index + k - 1 of that size."""
        configs = {
            mode: bench.BenchConfig(suite=self.suite, sizes=sorted(set(self.sizes)), samples=1, seed=seed, mode=mode)
            for mode in self.modes
        }
        samples = [
            self.sizes.count(n) * index + self.sizes[:i].count(n)
            for i, n in enumerate(self.sizes)
        ]
        return [
            Op(f"{self.name}/n{n}/s{sample}/{mode}", (configs[mode], n, sample))
            for n, sample in zip(self.sizes, samples)
            for mode in self.modes
        ]

    def hooks(self):
        """Keep the SolveResult behind each bench row: its flows are checked
        and its JSON is part of the model meters."""

        def wrap(solve):
            def capture(*args, **kwargs):
                self._solved = solve(*args, **kwargs)
                return self._solved

            return capture

        return patched({"spikeflow.maxflow:solve": wrap})

    def execute(self, op: Op):
        self._solved = None
        row = bench.run_instance(*op.args)
        solved, self._solved = self._solved, None
        return row, solved

    def meters(self, result) -> str:
        row, solved = result
        return _canonical({
            "row": {k: getattr(row, k, None) for k in ROW_METERS},
            "solve": json.loads(solved.to_json()),
        })

    def check_inputs(self, op: Op, result) -> tuple:
        row, solved = result
        net = row.network
        flows = solved.assignment.flows
        return (
            op.args[0].mode, op.args[1], net.n_nodes, net.source, net.sink,
            _packed(v for e in net.edges for v in (e.tail, e.head, e.cap)),
            _packed(flows.get(i, 0) for i in range(net.n_edges)), set(flows) == set(range(net.n_edges)),
            solved.assignment.value, row.value, row.decode_jams,
        )

    def facts(self, result) -> dict[str, float]:
        row, solved = result
        return {"controller_ops": row.controller_time, "trace_events": _trace_events(solved.query_records)}

    def verify(self, inputs: list[tuple]) -> tuple[list[list[str]], dict]:
        """Residual rows must equal the reference; paper-faithful rows must be
        feasible with a value no larger."""
        refs: dict = {}
        problems = []
        zero = divergent = jams = 0
        for mode, n, n_nodes, source, sink, packed, flows, complete, value, row_value, row_jams in inputs:
            edges = list(zip(packed[0::3], packed[1::3], packed[2::3]))
            key = (n_nodes, source, sink, packed.tobytes())
            if key not in refs:
                refs[key] = checks.max_flow_value(n_nodes, edges, source, sink)
            ref = refs[key]
            found = checks.flow_problems(n_nodes, edges, source, sink, dict(enumerate(flows)), value)
            if not complete:
                found.append("flows are not keyed by exactly the edge ids")
            if len(edges) != self.expected_edges(n) or n_nodes != n:
                found.append(f"instance has {n_nodes} nodes, {len(edges)} edges")
            if row_value != value:
                found.append(f"bench row value {row_value} != solve value {value}")
            if mode == RESIDUAL and value != ref:
                found.append(f"residual value {value} != reference {ref}")
            if value > ref:
                found.append(f"value {value} > reference {ref}")
            zero += ref == 0
            divergent += mode == PAPER_FAITHFUL and value < ref
            jams += row_jams
            problems.append(found)
        shape = {"zero_flow_frac": zero / len(inputs), "divergent_pf_rows": divergent, "jams": jams}
        return problems, shape


def naive_networks(max_nodes: int = 5, max_edges: int = 4, caps: tuple[int, ...] = (1, 2)) -> list[FlowNetwork]:
    """Every ascending DAG on 2..max_nodes nodes with up to max_edges edges
    that touches every node, with every capacity assignment from ``caps``."""
    nets = []
    for n in range(2, max_nodes + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for k in range(1, min(max_edges, len(pairs)) + 1):
            for subset in itertools.combinations(pairs, k):
                if {v for uv in subset for v in uv} != set(range(n)):
                    continue
                for cs in itertools.product(caps, repeat=k):
                    nets.append(FlowNetwork(n, [(u, v, c) for (u, v), c in zip(subset, cs)], 0, n - 1))
    return nets


def relabeled(net: FlowNetwork, rng: random.Random) -> FlowNetwork:
    """An isomorphic copy: interior nodes renamed and edges reordered at random."""
    interior = [v for v in range(net.n_nodes) if v not in (net.source, net.sink)]
    names = {net.source: net.source, net.sink: net.sink, **dict(zip(interior, rng.sample(interior, len(interior))))}
    edges = [(names[e.tail], names[e.head], e.cap) for e in net.edges]
    rng.shuffle(edges)
    return FlowNetwork(net.n_nodes, edges, net.source, net.sink)


@functools.cache
def _outflows_over(source_caps: tuple[int, ...], d: int) -> int:
    return sum(1 for flows in itertools.product(*(range(c + 1) for c in source_caps)) if sum(flows) > d)


def decider_size(net: FlowNetwork, d: int) -> tuple[int, int]:
    """The size of ``decide_naive(net, d)``'s network: its gadget count,
    candidate flows (source outflow > d) times one violation neuron plus
    seven neurons per interior node, and its largest capacity, which sets
    how many steps it runs."""
    over = _outflows_over(tuple(sorted(e.cap for e in net.out_edges[net.source])), d)
    rest = math.prod(e.cap + 1 for e in net.edges if e.tail != net.source)
    interior = {v for e in net.edges for v in (e.tail, e.head)} - {net.source, net.sink}
    return over * rest * (1 + 7 * len(interior)), max((e.cap for e in net.edges), default=0)


class NaiveWorkload:
    """One ``naive.decide_naive(net, d)`` call per operation.

    Every (network, d) pair is ranked by the size of the decider it builds
    (candidate flows times the gadgets per candidate) and dealt in rank
    order into ``slices`` passes, so every pass holds the same spread of
    sizes and a run's mix does not depend on how many passes fit.  The seed
    renames each network's interior nodes, reorders its edges, breaks ties
    in the ranking and shuffles the order within a pass.
    """

    def __init__(self, name: str, nets_kwargs: dict, thresholds: int, slices: int, tail_pct: float):
        self.name = name
        self.nets_kwargs = nets_kwargs
        self.thresholds = thresholds
        self.slices = slices
        self.tail_pct = tail_pct
        self._ranked: list[tuple[FlowNetwork, int, str]] | None = None

    def build_pass(self, seed: int, index: int) -> list[Op]:
        rng = random.Random(seed * 1_000_003 + index)
        if self._ranked is None:
            keyed = []
            for i, net in enumerate(naive_networks(**self.nets_kwargs)):
                net = relabeled(net, rng)
                for d in range(self.thresholds):
                    keyed.append((decider_size(net, d), rng.random(), net, d, f"{self.name}/net{i}/d{d}"))
            keyed.sort(key=lambda k: k[:2])
            self._ranked = [(net, d, label) for _, _, net, d, label in keyed]
        ops = [Op(label, (net, d)) for net, d, label in self._ranked[index % self.slices :: self.slices]]
        rng.shuffle(ops)
        return ops

    def hooks(self):
        return patched({})

    def execute(self, op: Op):
        return naive.decide_naive(*op.args)

    def meters(self, result) -> str:
        return _canonical({
            "accepted": result.accepted,
            "accept_fire_time": result.accept_fire_time,
            "layout": asdict(result.layout),
            "report": json.loads(result.report.to_json()),
        })

    def check_inputs(self, op: Op, result) -> tuple:
        net, d = op.args
        return net, d, result.accepted

    def facts(self, result) -> dict[str, float]:
        return {
            "controller_ops": result.report.controller_time,
            "trace_events": _trace_events(result.report.consultations),
            "naive_neurons": getattr(result.layout, "n_neurons", 0),
            "naive_candidates": getattr(result.layout, "n_candidates", 0),
        }

    def verify(self, inputs: list[tuple]) -> tuple[list[list[str]], dict]:
        """The decision bit must equal [reference max-flow > d]."""
        refs: dict[int, int] = {}
        problems = []
        for net, d, accepted in inputs:
            if id(net) not in refs:
                refs[id(net)] = checks.max_flow_value(net.n_nodes, _edges(net), net.source, net.sink)
            expected = refs[id(net)] > d
            problems.append([] if accepted == expected else [f"accepted={accepted}, reference {refs[id(net)]} vs d={d}"])
        return problems, {"accept_frac": sum(accepted for _, _, accepted in inputs) / len(inputs)}


@dataclass(frozen=True)
class Chain:
    """Constant input -> intermediate neurons -> accept neuron, each hop with
    weight 1 and delay 1, run for ``time_bound`` steps under ``energy_bound``."""

    middle: tuple[int, ...]
    accept_threshold: int
    time_bound: int
    energy_bound: int

    def thresholds(self) -> list[int]:
        return [1, *self.middle, self.accept_threshold]

    def accepts(self) -> bool:
        step, spikes = checks.chain_run(self.thresholds(), self.time_bound)
        return step is not None and spikes <= self.energy_bound

    def config(self) -> tnfr.ReductionConfig:
        one = Fraction(1)
        net = SpikingNetwork(overflow_reset=True)
        net.add_neuron(Neuron(0, 1, 0, one, v0=1))
        ids = [2 + i for i in range(len(self.middle))]
        for nid, threshold in zip(ids, self.middle):
            net.add_neuron(Neuron(nid, threshold, 0, one, v0=0))
        net.add_neuron(Neuron(1, self.accept_threshold, 0, one, v0=0))
        for pre, post in zip([0, *ids], [*ids, 1]):
            net.add_synapse(Synapse(pre, post, 1, 1))
        return tnfr.ReductionConfig(net, 0, 1, self.time_bound, self.energy_bound)


# The reduction acceptance suite's seven configurations: four accept, three reject.
ACCEPTANCE_CHAINS = (
    Chain((), 1, 3, 6), Chain((), 1, 2, 4), Chain((), 1, 3, 5), Chain((), 1, 3, 4),
    Chain((), 5, 3, 6), Chain((2,), 1, 4, 8), Chain((2,), 1, 4, 5),
)
# Longer chains, by outcome and cost class: (middle thresholds, time bound).
ACCEPTING_SHAPES = (((1,), 5), ((2,), 6), ((1, 1), 6), ((), 7), ((2, 1), 6), ((1, 1, 1), 7), ((1, 2), 7))
REJECTING_SHAPES = (  # ~0.15 s, then ~0.45 s in check_feasible; the first three accept too late
    ((2, 1), 4), ((1, 2), 4), ((2, 2), 5), ((3,), 5),
    ((), 6), ((2,), 6), ((3,), 6),
)


class ReductionWorkload:
    """One ``tnfr.verify_reduction(cfg)`` call per operation.  Every energy
    bound of a longer chain lies inside the range that keeps its outcome, so
    every pass has the same accept/reject and cost composition.  The seed
    draws the accepting chains' bounds.  A rejecting chain's search cost
    depends on its bound by up to a factor of two, so its bounds are not
    drawn: pass ``index`` takes the next bound of the range in turn, from a
    start the seed picks, and every bound recurs equally often in a run.
    """

    def __init__(self, name: str, accepting: tuple, accepting_draws: int, rejecting: tuple, tail_pct: float):
        self.name = name
        self.accepting = accepting
        self.accepting_draws = accepting_draws
        self.rejecting = rejecting
        self.tail_pct = tail_pct

    def build_pass(self, seed: int, index: int) -> list[Op]:
        rng = random.Random(seed * 1_000_003 + index)
        chains = list(ACCEPTANCE_CHAINS)
        for middle, t in self.accepting:
            _, spikes = checks.chain_run([1, *middle, 1], t)
            for _ in range(self.accepting_draws):
                chains.append(Chain(middle, 1, t, rng.randint(spikes, min(spikes + 3, (len(middle) + 2) * t))))
        start = random.Random(seed).randrange(4)
        for k, (middle, t) in enumerate(self.rejecting):
            _, spikes = checks.chain_run([1, *middle, 1], t)
            bounds = range(max(0, spikes - 4), spikes)
            chains.append(Chain(middle, 1, t, bounds[(start + index + k) % len(bounds)]))
        return [
            Op(f"{self.name}/{i}/m{'-'.join(map(str, c.middle)) or 0}a{c.accept_threshold}t{c.time_bound}e{c.energy_bound}", (c, c.config()))
            for i, c in enumerate(chains)
        ]

    def hooks(self):
        return patched({})

    def execute(self, op: Op):
        return tnfr.verify_reduction(op.args[1])

    def meters(self, result) -> str:
        return _canonical(asdict(result))

    def check_inputs(self, op: Op, result) -> tuple:
        return op.args[0].accepts(), result.passed, result.snn_accepts

    def facts(self, result) -> dict[str, float]:
        return {}

    def verify(self, inputs: list[tuple]) -> tuple[list[list[str]], dict]:
        """``verify_reduction`` must pass and agree with an independent run."""
        problems = []
        for expected, passed, accepts in inputs:
            found = [] if passed else ["verify_reduction did not pass"]
            if accepts != expected:
                found.append(f"snn_accepts={accepts}, independent run says {expected}")
            problems.append(found)
        return problems, {"accept_frac": sum(expected for expected, _, _ in inputs) / len(inputs)}


def make(name: str, smoke: bool = False):
    """The named workload; ``smoke`` shrinks each pass to a second or less."""
    if name == "dense":
        # n = 20 four times and n = 25 three times, so that the median falls
        # inside the n = 20 rows and p90 inside the n = 25 rows
        sizes = [5, 8] if smoke else [10, 15, 20, 20, 20, 20, 25, 25, 25]
        return InstanceWorkload(name, bench.DENSE, sizes, (PAPER_FAITHFUL, RESIDUAL), tail_pct=90)
    if name == "sparse":
        # n = 60 three times and n = 80 twice, so that the median falls inside
        # the n = 60 rows and p75 inside the n = 80 rows
        sizes = [10, 20, 30] if smoke else [20, 40, 60, 60, 60, 80, 80, 100]
        return InstanceWorkload(name, bench.SPARSE, sizes, (PAPER_FAITHFUL,), tail_pct=75)
    if name == "naive":
        if smoke:
            return NaiveWorkload(name, {"max_nodes": 3}, thresholds=4, slices=2, tail_pct=99)
        return NaiveWorkload(name, {}, thresholds=4, slices=8, tail_pct=99)
    if name == "reduction":
        if smoke:
            return ReductionWorkload(name, ACCEPTING_SHAPES[:1], 1, REJECTING_SHAPES[:1], tail_pct=90)
        # eight draws of each accepting shape put the median well inside the
        # witness-accepted configurations and p93 inside the ~0.25 s rejections
        return ReductionWorkload(name, ACCEPTING_SHAPES, 8, REJECTING_SHAPES, tail_pct=93)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("dense", "sparse", "naive", "reduction")
