"""Flow-network model, classical reference solvers, random instances, DIMACS I/O."""

from __future__ import annotations

import copy
import random
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .errors import GuardExceeded, ParseError


class Edge(NamedTuple):
    id: int
    tail: int
    head: int
    cap: int


class FlowNetwork:
    """Directed capacitated graph with a source (no incoming arcs) and a sink
    (no outgoing arcs).  Edge ids are their positions in the edge list."""

    def __init__(self, n_nodes: int, edges: list[tuple[int, int, int]], source: int, sink: int):
        if n_nodes < 2:
            raise ValueError("need at least source and sink")
        if not (0 <= source < n_nodes and 0 <= sink < n_nodes) or source == sink:
            raise ValueError("bad source/sink")
        self.n_nodes = n_nodes
        self.source = source
        self.sink = sink
        self.edges: list[Edge] = []
        self.out_edges: list[list[Edge]] = [[] for _ in range(n_nodes)]
        self.in_edges: list[list[Edge]] = [[] for _ in range(n_nodes)]
        for tail, head, cap in edges:
            self.add_edge(tail, head, cap)

    def add_edge(self, tail: int, head: int, cap: int) -> Edge:
        """Append one edge; ``ValueError`` names the edge rule it breaks."""
        if not (0 <= tail < self.n_nodes and 0 <= head < self.n_nodes):
            raise ValueError(f"edge ({tail},{head}) references unknown node")
        if tail == head:
            raise ValueError("self-loops are not allowed")
        if cap < 0:
            raise ValueError("capacities must be >= 0")
        if head == self.source:
            raise ValueError("source must have no incoming edges")
        if tail == self.sink:
            raise ValueError("sink must have no outgoing edges")
        edge = Edge(len(self.edges), tail, head, cap)
        self.edges.append(edge)
        self.out_edges[tail].append(edge)
        self.in_edges[head].append(edge)
        return edge

    def copy(self) -> FlowNetwork:
        """A network with the same ``Edge`` tuples in its own lists, so an
        edge added to the copy leaves this network unchanged; nothing is
        checked again."""
        other = copy.copy(self)
        other.edges = self.edges.copy()
        other.out_edges = [edges.copy() for edges in self.out_edges]
        other.in_edges = [edges.copy() for edges in self.in_edges]
        return other

    @property
    def n_edges(self) -> int:
        return len(self.edges)


@dataclass
class FlowAssignment:
    flows: dict[int, int]
    value: int
    search_steps: int = 0  # operations spent by edmonds_karp's searches


def validate_flow(net: FlowNetwork, assignment: FlowAssignment) -> list[str]:
    """Return all capacity/conservation/value violations (empty means valid)."""
    violations = []
    for e in net.edges:
        f = assignment.flows.get(e.id, 0)
        if f < 0 or f > e.cap:
            violations.append(f"edge {e.id}: flow {f} outside [0, {e.cap}]")
    for v in range(net.n_nodes):
        if v in (net.source, net.sink):
            continue
        inflow = sum(assignment.flows.get(e.id, 0) for e in net.in_edges[v])
        outflow = sum(assignment.flows.get(e.id, 0) for e in net.out_edges[v])
        if inflow != outflow:
            violations.append(f"node {v}: inflow {inflow} != outflow {outflow}")
    out_of_source = sum(assignment.flows.get(e.id, 0) for e in net.out_edges[net.source])
    if assignment.value != out_of_source:
        violations.append(
            f"value {assignment.value} != net source outflow {out_of_source}"
        )
    return violations


ResidualStep = tuple[int, bool]  # (edge id, traversed forward?)


def bfs_shortest_augmenting_path(
    net: FlowNetwork, flows: dict[int, int]
) -> tuple[list[ResidualStep] | None, int]:
    """Fewest-edge source-to-sink path in the residual graph (or None), and
    the search's operation count: one per node dequeued and one per residual
    arc scanned."""
    parent: dict[int, ResidualStep] = {}
    seen = {net.source}
    queue = deque([net.source])
    ops = 0
    while queue:
        v = queue.popleft()
        ops += 1
        if v == net.sink:
            break
        ops += len(net.out_edges[v]) + len(net.in_edges[v])
        for e in net.out_edges[v]:
            if e.head not in seen and flows[e.id] < e.cap:
                seen.add(e.head)
                parent[e.head] = (e.id, True)
                queue.append(e.head)
        for e in net.in_edges[v]:
            if e.tail not in seen and flows[e.id] > 0:
                seen.add(e.tail)
                parent[e.tail] = (e.id, False)
                queue.append(e.tail)
    if net.sink not in seen:
        return None, ops
    path: list[ResidualStep] = []
    v = net.sink
    while v != net.source:
        edge_id, forward = parent[v]
        path.append((edge_id, forward))
        e = net.edges[edge_id]
        v = e.tail if forward else e.head
    path.reverse()
    return path, ops


def edmonds_karp(net: FlowNetwork) -> FlowAssignment:
    """Maximum flow by shortest augmenting paths on the residual graph."""
    flows = {e.id: 0 for e in net.edges}
    value = steps = 0
    while True:
        path, ops = bfs_shortest_augmenting_path(net, flows)
        steps += ops
        if path is None:
            break
        delta = min(
            net.edges[eid].cap - flows[eid] if forward else flows[eid]
            for eid, forward in path
        )
        for eid, forward in path:
            flows[eid] += delta if forward else -delta
        value += delta
    return FlowAssignment(flows, value, steps)


def max_feasible_edges(n_nodes: int) -> int:
    return n_nodes * (n_nodes - 1) // 2


# The most candidate pairs, n(n-1)/2, that generate_random will hold.  At the
# bound (n = 1414) the pool and its adjacency sets peak at about 290 MiB of
# RSS and a complete DAG instance at about 510 MiB (CPython 3.11, x86-64);
# the bench suites stop at 4,950 pairs (n = 100).
POOL_GUARD = 10**6


def check_pool_guard(n_nodes: int) -> None:
    """Raise ``GuardExceeded`` when generate_random's pool on ``n_nodes``
    would hold more than ``POOL_GUARD`` pairs."""
    if max_feasible_edges(n_nodes) > POOL_GUARD:
        raise GuardExceeded(
            f"{n_nodes} nodes need {max_feasible_edges(n_nodes)} candidate pairs,"
            f" over the pool guard {POOL_GUARD}"
        )


# The most nodes a DIMACS or TNFR file may declare: both parsers build
# per-node tables from the problem line alone, before any arc is read.  At the
# bound a file with one arc peaks at about 155 MiB of RSS in parse_dimacs and
# through solve, and 110 MiB in parse_tnfr and through tnfr-check, whose
# search tables cover only the nodes arcs name (CPython 3.11, x86-64).
NODE_GUARD = 10**6


def check_node_guard(n_nodes: int) -> None:
    """Raise ``GuardExceeded`` when a file declares more than ``NODE_GUARD`` nodes."""
    if n_nodes > NODE_GUARD:
        raise GuardExceeded(f"{n_nodes} nodes exceed the node guard {NODE_GUARD}")


def _undirected_reachable(adjacency: dict[int, set[int]], start: int, goal: int) -> bool:
    """Whether ``goal`` lies in ``start``'s component.  A bidirectional
    breadth-first search: each round grows the smaller frontier by one level,
    the union of its nodes' neighbour sets less the nodes its side has seen,
    and stops as soon as that level meets the other side's seen set.  A side
    that runs out of frontier has seen its whole component."""
    if start == goal:
        return True
    near, far = {start}, {goal}
    near_frontier, far_frontier = {start}, {goal}
    while near_frontier and far_frontier:
        if len(near_frontier) > len(far_frontier):
            near, far = far, near
            near_frontier, far_frontier = far_frontier, near_frontier
        grown: set[int] = set()
        for v in near_frontier:
            grown |= adjacency[v]
        grown -= near
        if not far.isdisjoint(grown):
            return True
        near |= grown
        near_frontier = grown
    return False


def generate_random(n_nodes: int, n_edges: int, c_max: int, seed: int) -> FlowNetwork:
    """Random connected DAG instance: start from the complete ascending DAG,
    delete random edges while they keep the graph in one (weakly) connected
    component, then draw uniform capacities in [1, c_max].

    Node 0 is the source, node ``n_nodes - 1`` the sink; edges run from lower
    to higher node id, so every instance is acyclic.  Deterministic per seed.

    Cost: the pool holds all n(n-1)/2 candidate pairs, and every attempted
    deletion runs one bidirectional breadth-first search between the deleted
    pair's ends.  It grows the smaller side first, a whole level at a time
    with set operations, and stops when the sides meet or one runs out, so a
    deletion that would split the graph costs about the smaller part, not
    the whole component.  ``GuardExceeded`` is raised, before the pool is
    built, when the pool would exceed ``POOL_GUARD`` pairs.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if c_max < 1:
        raise ValueError("c_max must be >= 1")
    if not (n_nodes - 1 <= n_edges <= max_feasible_edges(n_nodes)):
        raise ValueError(
            f"n_edges must lie in [{n_nodes - 1}, {max_feasible_edges(n_nodes)}]"
        )
    check_pool_guard(n_nodes)
    rng = random.Random(seed)
    pool = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    adjacency: dict[int, set[int]] = {v: set() for v in range(n_nodes)}
    for u, v in pool:
        adjacency[u].add(v)
        adjacency[v].add(u)
    while len(pool) > n_edges:
        idx = rng.randrange(len(pool))
        u, v = candidate = pool.pop(idx)
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        # removing (u,v) splits the component iff v is no longer reachable
        if not _undirected_reachable(adjacency, u, v):
            pool.insert(idx, candidate)
            adjacency[u].add(v)
            adjacency[v].add(u)
    # Edge ids group by tail with higher heads first: downstream consumers
    # that break same-time ties by edge id then prefer the sink-ward branch.
    ordered = sorted(pool, key=lambda uv: (uv[0], -uv[1]))
    edges = [(u, v, rng.randint(1, c_max)) for u, v in ordered]
    return FlowNetwork(n_nodes, edges, source=0, sink=n_nodes - 1)


# --- DIMACS max-flow format -------------------------------------------------


def parse_dimacs(text: str) -> FlowNetwork:
    n_nodes = None
    n_arcs = None
    source = None
    sink = None
    arcs: list[tuple[int, int, int, int]] = []  # (tail, head, capacity, line number)
    ids: list[tuple[int, int]] = []  # every node id the file names, 1-based, with its line
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "p":
                if n_nodes is not None:
                    raise ValueError("duplicate problem line")
                if len(fields) != 4 or fields[1] != "max":
                    raise ValueError("expected: p max <nodes> <arcs>")
                n_nodes, n_arcs = int(fields[2]), int(fields[3])
                check_node_guard(n_nodes)
            elif kind == "n":
                if len(fields) != 3 or fields[2] not in ("s", "t"):
                    raise ValueError("expected: n <id> s|t")
                node = int(fields[1]) - 1
                ids.append((int(fields[1]), line_no))
                if fields[2] == "s":
                    if source is not None:
                        raise ValueError("multiple sources are not supported")
                    source = node
                else:
                    if sink is not None:
                        raise ValueError("multiple sinks are not supported")
                    sink = node
            elif kind == "a":
                if len(fields) != 4:
                    raise ValueError("expected: a <tail> <head> <capacity>")
                arcs.append((int(fields[1]) - 1, int(fields[2]) - 1, int(fields[3]), line_no))
                ids += ((int(node), line_no) for node in fields[1:3])
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
    if n_nodes is None:
        raise ParseError("missing problem line")
    if source is None or sink is None:
        raise ParseError("missing source or sink designation")
    if n_arcs is not None and n_arcs != len(arcs):
        raise ParseError(f"problem line promises {n_arcs} arcs, file has {len(arcs)}")
    for node, line_no in ids:  # checked here, where the node count is known
        if not 1 <= node <= n_nodes:
            raise ParseError(f"node id {node} outside 1..{n_nodes}", line_no)
    try:
        net = FlowNetwork(n_nodes, [], source, sink)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    for tail, head, cap, line_no in arcs:
        try:
            net.add_edge(tail, head, cap)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
    return net


def format_dimacs(net: FlowNetwork, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p max {net.n_nodes} {net.n_edges}")
    lines.append(f"n {net.source + 1} s")
    lines.append(f"n {net.sink + 1} t")
    for e in net.edges:
        lines.append(f"a {e.tail + 1} {e.head + 1} {e.cap}")
    return "\n".join(lines) + "\n"
