"""Independent reference oracles for max-flow tests.

Deliberately dumb: `brute_force_max_flow` enumerates every integer assignment
(with conservation pruning), and `exhaustive_min_cut` enumerates every s/t
partition.  By weak duality, a feasible flow whose value equals any cut
capacity is provably optimal, so these certify optimality without trusting
any augmenting-path search.  `min_cut_capacity` reads the cut a given flow
leaves reachable from the source.  `component_labels` joins undirected pairs
by union-find, with no search at all.
"""

from collections import deque
from itertools import combinations

from spikeflow.flow import FlowNetwork


def brute_force_max_flow(net: FlowNetwork) -> int:
    m = net.n_edges
    # last edge index incident to each node, for early conservation checks
    last_incident = {}
    for v in range(net.n_nodes):
        ids = [e.id for e in net.in_edges[v]] + [e.id for e in net.out_edges[v]]
        if ids and v not in (net.source, net.sink):
            last_incident[v] = max(ids)
    check_after = {}
    for v, idx in last_incident.items():
        check_after.setdefault(idx, []).append(v)

    flows = [0] * m
    best = 0

    def conserved(v):
        inflow = sum(flows[e.id] for e in net.in_edges[v])
        outflow = sum(flows[e.id] for e in net.out_edges[v])
        return inflow == outflow

    def rec(i):
        nonlocal best
        if i == m:
            value = sum(flows[e.id] for e in net.out_edges[net.source])
            best = max(best, value)
            return
        for f in range(net.edges[i].cap + 1):
            flows[i] = f
            if all(conserved(v) for v in check_after.get(i, ())):
                rec(i + 1)
        flows[i] = 0

    rec(0)
    return best


def exhaustive_min_cut(net: FlowNetwork) -> int:
    interior = [v for v in range(net.n_nodes) if v not in (net.source, net.sink)]
    best = None
    for k in range(len(interior) + 1):
        for chosen in combinations(interior, k):
            s_side = {net.source, *chosen}
            cap = sum(
                e.cap for e in net.edges if e.tail in s_side and e.head not in s_side
            )
            if best is None or cap < best:
                best = cap
    return best


def min_cut_capacity(net: FlowNetwork, flows: dict[int, int]) -> int:
    """Capacity of the cut induced by residual reachability from the source
    under ``flows``; it equals the flow's value exactly when the flow is
    maximum."""
    seen = {net.source}
    queue = deque([net.source])
    while queue:
        v = queue.popleft()
        for e in net.out_edges[v]:
            if e.head not in seen and flows[e.id] < e.cap:
                seen.add(e.head)
                queue.append(e.head)
        for e in net.in_edges[v]:
            if e.tail not in seen and flows[e.id] > 0:
                seen.add(e.tail)
                queue.append(e.tail)
    return sum(e.cap for e in net.edges if e.tail in seen and e.head not in seen)


def weakly_connected(n_nodes: int, pairs: list[tuple[int, int]]) -> bool:
    """Whether the arcs join all nodes into one component, ignoring direction."""
    adjacency: dict[int, set[int]] = {v: set() for v in range(n_nodes)}
    for u, v in pairs:
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n_nodes


def component_labels(n_nodes: int, pairs: list[tuple[int, int]]) -> list[int]:
    """Each node's component representative, by union-find over the pairs
    taken as undirected; two nodes share a component iff their labels match."""
    parent = list(range(n_nodes))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in pairs:
        parent[find(u)] = find(v)
    return [find(v) for v in range(n_nodes)]
