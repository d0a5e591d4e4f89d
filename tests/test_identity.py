"""Byte-identity guard for the bench rows and the ``SolveResult`` JSON.

A refactor or an optimisation must leave these outputs byte-identical
(ROADMAP aim 2).  The grid covers sparse n <= 40 and dense n <= 20 in all
three bench modes, plus a chain whose only augmenting path uses every arc.
A change that alters an output on purpose re-pins its hash and says why in
CHANGES.md.
"""

import hashlib
import json

import pytest

import spikeflow.bench as bench
from spikeflow.bench import CLASSICAL, DENSE, SPARSE, BenchConfig, run_bench
from spikeflow.flow import FlowNetwork
from spikeflow.maxflow import PAPER_FAITHFUL, RESIDUAL

MODES = (PAPER_FAITHFUL, RESIDUAL, CLASSICAL)

# (suite, mode) -> (sha256 of the bench rows, sha256 of every SolveResult JSON)
PINNED = {
    (SPARSE, PAPER_FAITHFUL): (
        "f5b929f39023c24d71b7b3800c2cfe3d348914b9feb7ffaa88bbe8e7f12a0802",
        "aad5762e946c14f75469564d6dfd816a404286d0b1afd05228024fe255a94661",
    ),
    (SPARSE, RESIDUAL): (
        "d128b878a038664ad85cfbbe5b0cc38c83c008f7fd8aedf1bb6f7d9a036744f0",
        "18924f30e13781d368dd13e74ef2624015608f67241f429bca381d5d4e2ee670",
    ),
    (SPARSE, CLASSICAL): (
        "eddb8be7c02fd9bd72097676c49f44d47a0c9c734b5da81f32255245a0b952ef",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    (DENSE, PAPER_FAITHFUL): (
        "f7b98fc2f833344b94936ffbe29626835987b647c2ab6eadd7d0429ca73fd6be",
        "b72a31cde46fc3514b5583e6c6b525096b5eaf392d61d628fd521c2ead0467b5",
    ),
    (DENSE, RESIDUAL): (
        "b7f75ba5942df04def2fccbf1cb7abb8535cd2b5773a0e9224dcf5e81c870878",
        "50c77f78f0c685e067b8ff45db0025bcea1121d51b12407e97ec352f7c38ca99",
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
