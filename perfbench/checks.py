"""Answer checks that share no code with spikeflow.

The maximum-flow value comes from ``scipy.sparse.csgraph.maximum_flow``;
capacity and conservation are checked here; the constrained spiking chains
of the reduction workload are simulated here.  The checks run after the
timed loop, so scipy is imported only then and stays out of the timed
region and out of the peak-memory reading.
"""

from __future__ import annotations

Edge = tuple[int, int, int]  # (tail, head, capacity)


def max_flow_value(n_nodes: int, edges: list[Edge], source: int, sink: int) -> int:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    if not edges:
        return 0
    tails, heads, caps = zip(*edges)
    # parallel arcs are summed by the sparse constructor, which keeps the value
    graph = csr_matrix(
        (np.array(caps, dtype=np.int32), (np.array(tails), np.array(heads))),
        shape=(n_nodes, n_nodes),
    )
    return int(maximum_flow(graph, source, sink).flow_value)


def flow_problems(
    n_nodes: int, edges: list[Edge], source: int, sink: int, flows: dict[int, int], value: int
) -> list[str]:
    """Capacity, conservation and value of a flow given per edge index."""
    problems = []
    balance = [0] * n_nodes
    for idx, (tail, head, cap) in enumerate(edges):
        f = flows.get(idx, 0)
        if not 0 <= f <= cap:
            problems.append(f"edge {idx}: flow {f} outside [0, {cap}]")
        balance[tail] -= f
        balance[head] += f
    for v in range(n_nodes):
        if v not in (source, sink) and balance[v]:
            problems.append(f"node {v}: net inflow {balance[v]}")
    if -balance[source] != value:
        problems.append(f"value {value} != source outflow {-balance[source]}")
    return problems


def chain_run(thresholds: list[int], time_bound: int) -> tuple[int | None, int]:
    """First accept step and total spikes of a constrained chain.

    Node 0 is the constant input, forced to fire at every step; each node
    excites the next with weight 1 and delay 1; the last node is the accept
    neuron.  Leak is 1 and firing subtracts the threshold, at most once per
    step.
    """
    potential = [0] * len(thresholds)
    fired_prev = [False] * len(thresholds)
    accept_step = None
    spikes = 0
    for step in range(time_bound):
        fired = [True] + [False] * (len(thresholds) - 1)
        for i in range(1, len(thresholds)):
            potential[i] += fired_prev[i - 1]
            if potential[i] >= thresholds[i]:
                potential[i] -= thresholds[i]
                fired[i] = True
        spikes += sum(fired)
        if fired[-1] and accept_step is None:
            accept_step = step
        fired_prev = fired
    return accept_step, spikes
