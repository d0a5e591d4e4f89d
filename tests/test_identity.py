"""Byte-identity guard for the bench rows, the ``SolveResult`` JSON, the
TNFR reduction and the oracle networks the solvers write.

A refactor or an optimisation must leave these outputs byte-identical
(ROADMAP aim 2).  The grid covers sparse n <= 40 and dense n <= 20 in all
three bench modes, plus a chain whose only augmenting path uses every arc.
The construction pins cover ``decide_naive``'s decisions, layouts and
reports, and the netlists and write counts of the naive decider and of the
max-flow search network in both modes.
A change that alters an output on purpose re-pins its hash and says why in
CHANGES.md.
"""

import hashlib
import itertools
import json
from dataclasses import asdict
from fractions import Fraction

import pytest

import spikeflow.bench as bench
from spikeflow.bench import CLASSICAL, DENSE, SPARSE, BenchConfig, run_bench
from spikeflow.errors import SearchBudgetExceeded
from spikeflow.flow import FlowNetwork, generate_random, max_feasible_edges
from spikeflow.maxflow import PAPER_FAITHFUL, RESIDUAL, EdgeNeuronMap, build_capacity_neurons, build_search_network
from spikeflow.naive import build_decider, decide_naive
from spikeflow.oracle import NeuromorphicOracle
from spikeflow.snn import Neuron, SpikingNetwork, Synapse, format_netlist
from spikeflow.tnfr import (
    ReductionConfig,
    check_feasible,
    format_tnfr,
    reduce_network,
    simulate_constrained,
    verify_reduction,
)

MODES = (PAPER_FAITHFUL, RESIDUAL, CLASSICAL)

# (suite, mode) -> (sha256 of the bench rows, sha256 of every SolveResult JSON)
PINNED = {
    (SPARSE, PAPER_FAITHFUL): (
        "b6c15bfbb7c524355f296093c812494b305f22f6f61935706520482d6116aad9",
        "a678dd23815e8fc150413798d78939bc67e92207d69d110ccb4e4bae67510f3d",
    ),
    (SPARSE, RESIDUAL): (
        "fa877c14b26f2f67447d9350ad12355f7bc2a88df8be88fdd1cfabf5ce87ffbb",
        "0791e5b04eac952882088eac6e5ae6acb6b15fbefa39cf7f9e8962b373718531",
    ),
    (SPARSE, CLASSICAL): (
        "eddb8be7c02fd9bd72097676c49f44d47a0c9c734b5da81f32255245a0b952ef",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    (DENSE, PAPER_FAITHFUL): (
        "5c1a2b8511cfa3fd26bf814778256515ec19941ebde428bd6ff5da190daa44e5",
        "3231506776c09821799ec6c79859a96cc73afb091fe8c3168c7262673aa96842",
    ),
    (DENSE, RESIDUAL): (
        "f5f8fbe5fc6911aadea5ae9b494c9d6d6a0411ef59a0055a840349b05bd2a8c7",
        "8e8954050a1e7d06c48af23a3621335c9a3a26ed8cea2e4e6b2fc1092737d449",
    ),
    (DENSE, CLASSICAL): (
        "06b706deeb65bd13a5099b37362c5c9d940d8e6f27ffb4fa306bb0173ca6aa93",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("chain", PAPER_FAITHFUL): (
        "944386b43cc5b373e8f977a5fa8c3059eaf7d31e798c8df2b8462697ec9f914b",
        "966cd7ecc19b5dccbf823ef8f5f3900f874b61c09216a40559545d2e62ed4277",
    ),
    ("chain", RESIDUAL): (
        "e78bc0bb4519b073ae90d5efb4c1210ce16b29569ea0168d4a50f94792074f6c",
        "63cfe2a7a64c32afd1843fa73bca74b9b86bd2549e69070539e3d9c5af6c9922",
    ),
    ("chain", CLASSICAL): (
        "3aa1b58e9ec888f3befdaf19853ab4d3b96832c34bab014a2d61893c6e6e10ea",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _hashes(config: BenchConfig, monkeypatch) -> tuple[str, str]:
    solved = []
    real_solve = bench.solve

    def capturing_solve(net, mode):
        result = real_solve(net, mode)
        solved.append(result.to_json())
        return result

    monkeypatch.setattr(bench, "solve", capturing_solve)
    rows, _ = run_bench(config)
    return _sha(json.dumps([row.as_csv_values() for row in rows])), _sha(json.dumps(solved))


def chain_net() -> FlowNetwork:
    return FlowNetwork(5, [(0, 1, 3), (1, 2, 1), (2, 3, 4), (3, 4, 2)], 0, 4)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("suite,sizes", [(SPARSE, list(range(5, 41, 5))), (DENSE, list(range(5, 21, 5)))])
def test_bench_grid_is_byte_identical(suite, sizes, mode, monkeypatch):
    config = BenchConfig(suite=suite, sizes=sizes, samples=4, seed=7, mode=mode)
    assert _hashes(config, monkeypatch) == PINNED[(suite, mode)]


@pytest.mark.parametrize("mode", MODES)
def test_all_arcs_chain_is_byte_identical(mode, monkeypatch):
    monkeypatch.setattr(bench, "generate_random", lambda *args: chain_net())
    config = BenchConfig(suite=SPARSE, sizes=[5], samples=1, seed=7, mode=mode)
    assert _hashes(config, monkeypatch) == PINNED[("chain", mode)]


# --- the TNFR reduction ------------------------------------------------------

# Every configuration is a chain: the constant input (neuron 0) drives the
# middle neurons in turn and then the accept neuron (1), each hop with weight
# 1 and delay 1.  Entries are (middle thresholds, accept threshold, t, e).
REDUCTION_GROUPS = {
    # the criterion 8 suite: four accept, three reject
    "criterion 8": (
        ((), 1, 3, 6), ((), 1, 2, 4), ((), 1, 3, 5), ((), 1, 3, 4),
        ((), 5, 3, 6), ((2,), 1, 4, 8), ((2,), 1, 4, 5),
    ),
    # the benchmark's accepting chain shapes, at the boundary energy bound
    "accepting": (
        ((1,), 1, 5, 12), ((2,), 1, 6, 10), ((1, 1), 1, 6, 18), ((), 1, 7, 13),
        ((2, 1), 1, 6, 11), ((1, 1, 1), 1, 7, 25), ((1, 2), 1, 7, 17),
    ),
    # the benchmark's rejecting chain shapes, one spike short of their runs
    "rejecting": (
        ((2, 1), 1, 4, 5), ((1, 2), 1, 4, 7), ((2, 2), 1, 5, 6), ((3,), 1, 5, 6),
        ((), 1, 6, 10), ((2,), 1, 6, 9), ((3,), 1, 6, 7),
    ),
}

# group -> (sha256 of the instances' text and arc endpoints and bounds, of the
# witness flows, of the verdicts)
REDUCTION_PINNED = {
    "criterion 8": (
        "9acb90c2922984e31b0d468190c8ed3c2c93716d7c31948cf090d6afcf72624a",
        "68071c477f913e2cc3311ddeb79c32543624460327b15e80f703119390853ac4",
        "89474a60d3b69795ad1bc6afa3b6a4ee4eb8ed88427c791a1020eea24d91c977",
    ),
    "accepting": (
        "853bb0c631446278f8fa69adf801b4d675c80a456c53a060869430bd1724bed9",
        "84af8bcdf08d54bf723f2a80b556242b0ead3b57d91ce8d2be5f9ace4dea6784",
        "fbffb68a96a654b7a01d59116b4b0bae0c904e55ef8b7c14f295e70c4c851f7b",
    ),
    "rejecting": (
        "228112cf0318b94305ca6811a4cfbb6cf75e89bde0ff4746d28e94ca244fde38",
        "a17291318b46dbd97e13151f681e134e67617c6ee6db95065795e1dd9eb62b25",
        "5d8a86b8453ca91a446fd7b0a1010aa7585de619d8ff65e718ef82400a29cbff",
    ),
}


def chain_config(middle, accept_threshold, t, e) -> ReductionConfig:
    net = SpikingNetwork(overflow_reset=True)
    net.add_neuron(Neuron(0, 1, 0, Fraction(1), v0=1))
    ids = [2 + i for i in range(len(middle))]
    for nid, threshold in zip(ids, middle):
        net.add_neuron(Neuron(nid, threshold, 0, Fraction(1), v0=0))
    net.add_neuron(Neuron(1, accept_threshold, 0, Fraction(1), v0=0))
    for pre, post in zip([0, *ids], [*ids, 1]):
        net.add_synapse(Synapse(pre, post, 1, 1))
    return ReductionConfig(net, 0, 1, t, e)


def reduction_hashes(group: str) -> tuple[str, str, str]:
    layouts, witnesses, verdicts = [], [], []
    for spec in REDUCTION_GROUPS[group]:
        cfg = chain_config(*spec)
        inst = reduce_network(cfg, simulate_constrained(cfg))
        layouts.append([format_tnfr(inst), [(a.tail, a.head, a.c_min, a.c_max) for a in inst.arcs]])
        witness = inst.witness
        witnesses.append(None if witness is None else list(witness.items()))
        verdicts.append(asdict(verify_reduction(chain_config(*spec))))
    return _sha(json.dumps(layouts)), _sha(json.dumps(witnesses)), _sha(json.dumps(verdicts))


@pytest.mark.parametrize("group", list(REDUCTION_GROUPS))
def test_reduction_is_byte_identical(group):
    assert reduction_hashes(group) == REDUCTION_PINNED[group]


# The exact search's effort on every rejecting configuration of the criterion
# 8 suite and of the benchmark's rejecting shapes (each energy bound the
# benchmark cycles through) that searches in well under a second: chain spec
# -> the expansion count E.  A budget of E returns and E - 1 raises, so the
# pruning is pinned without exposing the search's counter.
EXPANSIONS_PINNED = {
    ((), 1, 3, 4): 1566,
    ((), 5, 3, 6): 474,
    ((2,), 1, 4, 5): 8731,
    ((2, 1), 1, 4, 2): 41716,
    ((2, 1), 1, 4, 3): 42752,
    ((2, 1), 1, 4, 4): 43372,
    ((2, 1), 1, 4, 5): 43452,
    ((1, 2), 1, 4, 4): 42090,
    ((1, 2), 1, 4, 5): 42684,
    ((1, 2), 1, 4, 6): 42734,
    ((1, 2), 1, 4, 7): 42824,
    ((2, 2), 1, 5, 3): 37937,
    ((2, 2), 1, 5, 4): 41413,
    ((2, 2), 1, 5, 5): 44193,
    ((2, 2), 1, 5, 6): 44193,
    ((3,), 1, 5, 3): 38720,
    ((3,), 1, 5, 4): 38720,
    ((3,), 1, 5, 5): 38745,
    ((3,), 1, 5, 6): 38745,
}


@pytest.mark.parametrize(
    "spec", list(EXPANSIONS_PINNED), ids=lambda s: f"m{'-'.join(map(str, s[0])) or 0}a{s[1]}t{s[2]}e{s[3]}"
)
def test_rejecting_search_expansions_are_pinned(spec):
    cfg = chain_config(*spec)
    inst = reduce_network(cfg, simulate_constrained(cfg))
    expansions = EXPANSIONS_PINNED[spec]
    assert check_feasible(inst, max_arcs=len(inst.arcs), budget=expansions) == (False, None)
    with pytest.raises(SearchBudgetExceeded):
        check_feasible(inst, max_arcs=len(inst.arcs), budget=expansions - 1)


# --- oracle network construction ---------------------------------------------


def naive_suite() -> list[FlowNetwork]:
    """Every ascending DAG on 2..4 nodes with up to three edges that touches
    every node, capacities 1 or 2, plus two wider networks."""
    nets = []
    for n in range(2, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for k in range(1, min(3, len(pairs)) + 1):
            for subset in itertools.combinations(pairs, k):
                if {v for uv in subset for v in uv} != set(range(n)):
                    continue
                for caps in itertools.product((1, 2), repeat=k):
                    nets.append(FlowNetwork(n, [(u, v, c) for (u, v), c in zip(subset, caps)], 0, n - 1))
    nets.append(FlowNetwork(4, [(0, 1, 2), (0, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 3)], 0, 3))
    nets.append(FlowNetwork(5, [(0, 1, 2), (1, 2, 2), (2, 4, 1), (1, 3, 1), (3, 4, 2)], 0, 4))
    return nets


def search_suite() -> list[tuple[FlowNetwork, bool]]:
    """Dense (complete DAG) networks n = 2..10 and sparse ones, in both modes."""
    nets = [generate_random(n, max_feasible_edges(n), 5, 7) for n in range(2, 11)]
    nets += [generate_random(n, n * 7 // 5, 9, 11 + n) for n in (6, 12, 20, 30)]
    return [(net, residual) for net in nets for residual in (False, True)]


# (sha256 of the decisions, of the decider netlists, of the search netlists)
BUILD_PINNED = (
    "72c28219907789140f16e1530d65ff660e57598d400e2505a94a620097e7b9c6",
    "87d055f2070e26d640ad4933014d17e5d2dbdb4aa0b71ae7a594885d08817215",
    "d8439fa1d964f4bc36779b67bf1d850494db2c0eb5e12acb886f13bf1043795e",
)


def build_hashes() -> tuple[str, str, str]:
    decisions = []
    for net in naive_suite():
        for d in range(4):
            outcome = decide_naive(net, d)
            decisions.append([outcome.accepted, asdict(outcome.layout), outcome.report.to_json()])
    deciders = []
    for net in naive_suite()[-2:]:
        for d in range(4):
            oracle = NeuromorphicOracle()
            build_decider(net, d, oracle)
            deciders.append([format_netlist(oracle.net), oracle.report.controller_time])
    searches = []
    for net, residual in search_suite():
        oracle = NeuromorphicOracle()
        emap = EdgeNeuronMap(net, residual=residual)
        build_capacity_neurons(oracle, emap)
        build_search_network(oracle, emap)
        searches.append([format_netlist(oracle.net), oracle.report.controller_time])
    return _sha(json.dumps(decisions)), _sha(json.dumps(deciders)), _sha(json.dumps(searches))


def test_oracle_network_construction_is_byte_identical():
    assert build_hashes() == BUILD_PINNED
