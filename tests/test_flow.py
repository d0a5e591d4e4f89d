import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spikeflow.flow as flow
from flow_oracles import (
    brute_force_max_flow,
    component_labels,
    exhaustive_min_cut,
    min_cut_capacity,
    weakly_connected,
)
from spikeflow.bench import DENSE_SIZES, SPARSE_SIZES
from spikeflow.errors import GuardExceeded, ParseError
from spikeflow.flow import (
    POOL_GUARD,
    FlowAssignment,
    FlowNetwork,
    _undirected_reachable,
    bfs_shortest_augmenting_path,
    edmonds_karp,
    format_dimacs,
    generate_random,
    max_feasible_edges,
    parse_dimacs,
    validate_flow,
)
from spikeflow.maxflow import PAPER_FAITHFUL, RESIDUAL, solve


def trap_graph():
    # s->a, a->b, b->t, s->c, c->b, a->e, e->t, all capacity 1;
    # greedy forward-only augmentation through a->b->t blocks the optimum 2.
    # Nodes: s=0, a=1, b=2, c=3, e=4, t=5; edges in lexicographic order.
    return FlowNetwork(
        6,
        [(0, 1, 1), (0, 3, 1), (1, 2, 1), (1, 4, 1), (2, 5, 1), (3, 2, 1), (4, 5, 1)],
        source=0,
        sink=5,
    )


def diamond_graph():
    return FlowNetwork(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)], 0, 3)


def test_network_invariants_enforced():
    with pytest.raises(ValueError):
        FlowNetwork(3, [(1, 0, 1)], 0, 2)  # incoming edge at the source
    with pytest.raises(ValueError):
        FlowNetwork(3, [(2, 1, 1)], 0, 2)  # outgoing edge at the sink
    with pytest.raises(ValueError):
        FlowNetwork(3, [(1, 1, 1)], 0, 2)  # self loop
    with pytest.raises(ValueError):
        FlowNetwork(3, [(0, 1, -2)], 0, 2)  # negative capacity


def test_copy_shares_edges_and_owns_its_lists():
    net = diamond_graph()
    twin = net.copy()
    assert (twin.n_nodes, twin.source, twin.sink) == (4, 0, 3)
    assert all(a is b for a, b in zip(twin.edges, net.edges, strict=True))
    assert twin.add_edge(2, 1, 0) == (4, 2, 1, 0)
    assert net.n_edges == 4 and net.out_edges[2] == [net.edges[3]] and net.in_edges[1] == [net.edges[0]]
    assert twin.out_edges[2][-1] is twin.in_edges[1][-1] is twin.edges[4]


def test_single_edge_max_flow():
    net = FlowNetwork(2, [(0, 1, 7)], 0, 1)
    result = edmonds_karp(net)
    assert result.value == 7
    assert validate_flow(net, result) == []


def test_diamond_max_flow():
    result = edmonds_karp(diamond_graph())
    assert result.value == 2


def test_trap_graph_optimum_is_two():
    net = trap_graph()
    assert brute_force_max_flow(net) == 2
    result = edmonds_karp(net)
    assert result.value == 2
    assert validate_flow(net, result) == []
    assert min_cut_capacity(net, result.flows) == 2


def test_bfs_none_on_saturated_edge():
    net = FlowNetwork(2, [(0, 1, 3)], 0, 1)
    # dequeue the source and scan its one arc
    assert bfs_shortest_augmenting_path(net, {0: 3}) == (None, 2)


def test_bfs_direct_path_on_empty_flow():
    net = FlowNetwork(2, [(0, 1, 3)], 0, 1)
    # dequeue the source, scan its arc, dequeue the sink
    assert bfs_shortest_augmenting_path(net, {0: 0}) == ([(0, True)], 3)


def test_bfs_uses_reverse_arc_in_trap_graph():
    # after pushing s->a->b->t the only augmenting route cancels flow on a->b:
    # s->c->b, reverse(a->b), a->e->t -- five residual steps.
    net = trap_graph()
    flows = {e.id: 0 for e in net.edges}
    for eid in (0, 2, 4):  # s->a, a->b, b->t
        flows[eid] = 1
    path, ops = bfs_shortest_augmenting_path(net, flows)
    assert path == [(1, True), (5, True), (2, False), (3, True), (6, True)]
    # s, c, b, a and e are dequeued (1 each) with their 2, 2, 3, 3 and 2
    # arcs scanned; t is dequeued last
    assert ops == 3 + 3 + 4 + 4 + 3 + 1


def test_validate_flow_reports_violations():
    net = diamond_graph()
    ok = FlowAssignment({e.id: 0 for e in net.edges}, 0)
    assert validate_flow(net, ok) == []

    over = FlowAssignment({0: 2, 1: 0, 2: 0, 3: 0}, 2)
    messages = " ".join(validate_flow(net, over))
    assert "outside" in messages

    unbalanced = FlowAssignment({0: 1, 1: 0, 2: 0, 3: 0}, 1)
    messages = " ".join(validate_flow(net, unbalanced))
    assert "node 1" in messages


def test_generator_two_nodes_single_edge():
    net = generate_random(2, 1, c_max=1, seed=0)
    assert [(e.tail, e.head, e.cap) for e in net.edges] == [(0, 1, 1)]


def test_generator_complete_dag_when_no_deletions():
    net = generate_random(3, 3, c_max=5, seed=1)
    assert sorted((e.tail, e.head) for e in net.edges) == [(0, 1), (0, 2), (1, 2)]


def test_generator_properties_and_determinism():
    net = generate_random(5, 7, c_max=10, seed=42)
    again = generate_random(5, 7, c_max=10, seed=42)
    assert [(e.tail, e.head, e.cap) for e in net.edges] == [
        (e.tail, e.head, e.cap) for e in again.edges
    ]
    assert net.source == 0 and net.sink == 4
    assert net.n_edges == 7
    assert all(e.tail < e.head for e in net.edges)  # acyclic by construction
    assert all(1 <= e.cap <= 10 for e in net.edges)
    # one weak component
    assert weakly_connected(5, [(e.tail, e.head) for e in net.edges])


def test_generator_rejects_infeasible_edge_counts():
    with pytest.raises(ValueError):
        generate_random(5, 3, c_max=1, seed=0)
    with pytest.raises(ValueError):
        generate_random(5, 11, c_max=1, seed=0)
    assert max_feasible_edges(5) == 10


def test_generator_pool_guard(monkeypatch):
    # the bench suites' largest pool is far below the guard
    assert max_feasible_edges(max(SPARSE_SIZES + DENSE_SIZES)) * 100 < POOL_GUARD
    monkeypatch.setattr(flow, "POOL_GUARD", 10)
    assert generate_random(5, 4, c_max=3, seed=0).n_edges == 4  # 10 pairs, at the guard
    with pytest.raises(GuardExceeded) as exc:
        generate_random(6, 5, c_max=3, seed=0)
    assert str(exc.value) == "6 nodes need 15 candidate pairs, over the pool guard 10"


class ReadOnce(dict):
    """Undirected adjacency sets on nodes 0..n-1 that log each node whose set
    is read and fail on a second read of one node: a search that expands an
    already seen node again would otherwise never run out of frontier."""

    def __init__(self, n: int, pairs: list[tuple[int, int]]):
        super().__init__((v, set()) for v in range(n))
        for u, v in pairs:
            super().__getitem__(u).add(v)
            super().__getitem__(v).add(u)
        self.expanded: list[int] = []

    def __getitem__(self, v):
        assert v not in self.expanded, f"node {v} expanded twice"
        self.expanded.append(v)
        return super().__getitem__(v)


@st.composite
def undirected_graphs(draw):
    """(n, pairs, start, goal): up to 16 undirected pairs on 1..9 nodes."""
    n = draw(st.integers(1, 9))
    node = st.integers(0, n - 1)
    pairs = [(u, v) for u, v in draw(st.lists(st.tuples(node, node), max_size=16)) if u != v]
    return n, pairs, draw(node), draw(node)


@settings(max_examples=300, deadline=None)
@given(graph=undirected_graphs())
@example(graph=(4, [(0, 1), (1, 2), (2, 3)], 2, 3))  # the goal one hop away
@example(graph=(5, [(0, 1), (1, 2), (3, 4)], 0, 4))  # an unreachable goal
@example(graph=(4, [(1, 2), (2, 3)], 0, 3))  # an isolated start
@example(graph=(4, [(0, 1), (1, 2)], 2, 2))  # start == goal
@example(graph=(5, [(0, 1), (1, 2), (2, 3)], 0, 4))  # an isolated goal
# a goal side smaller than the start side: it runs out first, or its path
# reaches the start side's first level
@example(graph=(8, [(0, 1), (0, 2), (0, 3), (1, 4), (6, 7)], 0, 6))
@example(graph=(8, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (5, 6)], 0, 6))
# a path of even length 4: the start side grows one level, the goal side two,
# and the start side's next level meets the goal side at the middle node
@example(graph=(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (0, 6), (3, 7), (3, 8), (3, 9)], 0, 4))
# a path of odd length 3: each side grows one level, and the start side's
# next level meets the goal side's first across the middle edge (1, 2)
@example(graph=(7, [(0, 1), (1, 2), (2, 3), (0, 4), (3, 5), (3, 6)], 0, 3))
def test_undirected_reachable_agrees_with_union_find(graph):
    n, pairs, start, goal = graph
    labels = component_labels(n, pairs)
    adjacency = ReadOnce(n, pairs)
    assert _undirected_reachable(adjacency, start, goal) == (labels[start] == labels[goal])


def test_undirected_reachable_grows_the_smaller_side():
    # start 0 has 50 leaves; goal 51 shares a two-node component with 52
    adjacency = ReadOnce(53, [(0, leaf) for leaf in range(1, 51)] + [(51, 52)])
    assert not _undirected_reachable(adjacency, 0, 51)
    # one level from each end, then the goal side runs out; no leaf is expanded
    assert adjacency.expanded == [0, 51, 52]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    c_max=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_generator_always_connected_and_acyclic(n, c_max, seed, data):
    m = data.draw(st.integers(n - 1, max_feasible_edges(n)))
    net = generate_random(n, m, c_max, seed)
    assert net.n_edges == m
    assert all(e.tail < e.head for e in net.edges)
    assert weakly_connected(n, [(e.tail, e.head) for e in net.edges])


def test_edmonds_karp_equals_brute_force_on_tiny_suite():
    # every edge subset of the complete DAG on 4 nodes, striped capacities
    all_pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for k in range(1, 7):
        for subset in itertools.combinations(all_pairs, k):
            for stripe in range(3):
                edges = [
                    (u, v, ((i * (stripe + 1) + stripe) % 3) + 1)
                    for i, (u, v) in enumerate(subset)
                ]
                net = FlowNetwork(4, edges, 0, 3)
                result = edmonds_karp(net)
                assert validate_flow(net, result) == []
                assert result.value == brute_force_max_flow(net)
                assert result.value == min_cut_capacity(net, result.flows)
                assert result.value == exhaustive_min_cut(net)


def test_dimacs_roundtrip():
    net = generate_random(5, 7, c_max=10, seed=7)
    text = format_dimacs(net, comment="seed 7")
    parsed = parse_dimacs(text)
    assert parsed.n_nodes == net.n_nodes
    assert parsed.source == net.source and parsed.sink == net.sink
    assert [(e.tail, e.head, e.cap) for e in parsed.edges] == [
        (e.tail, e.head, e.cap) for e in net.edges
    ]


def test_dimacs_rejects_multi_source():
    text = "p max 3 1\nn 1 s\nn 2 s\nn 3 t\na 1 3 1\n"
    with pytest.raises(ParseError) as exc:
        parse_dimacs(text)
    assert "multiple sources" in str(exc.value)


def test_dimacs_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_dimacs("p max 2 1\nn 1 s\nn 2 t\na 1 2\n")
    assert "line 4" in str(exc.value)
    with pytest.raises(ParseError):
        parse_dimacs("n 1 s\nn 2 t\n")  # missing problem line
    with pytest.raises(ParseError):
        parse_dimacs("p max 2 2\nn 1 s\nn 2 t\na 1 2 1\n")  # arc count mismatch


@pytest.mark.parametrize(
    "text, message",
    [
        ("p max 3 1\nn 1 s\nn 3 t\na 1 5 2\n", "line 4: node id 5 outside 1..3"),
        ("p max 3 1\nn 1 s\nn 4 t\na 1 3 2\n", "line 3: node id 4 outside 1..3"),
        ("n 0 s\nn 3 t\np max 3 1\na 1 3 2\n", "line 1: node id 0 outside 1..3"),
    ],
    ids=["arc-head", "sink-record", "record-before-problem-line"],
)
def test_dimacs_unknown_node_names_its_line_and_file_id(text, message):
    with pytest.raises(ParseError) as exc:
        parse_dimacs(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "arc, message",
    [
        ("a 2 2 2", "line 5: self-loops are not allowed"),
        ("a 1 2 -1", "line 5: capacities must be >= 0"),
        ("a 2 1 2", "line 5: source must have no incoming edges"),
        ("a 3 2 2", "line 5: sink must have no outgoing edges"),
    ],
    ids=["self-loop", "negative-capacity", "into-source", "out-of-sink"],
)
def test_dimacs_edge_rule_names_its_line(arc, message):
    with pytest.raises(ParseError) as exc:
        parse_dimacs(f"p max 3 2\nn 1 s\nn 3 t\na 1 2 1\n{arc}\n")
    assert str(exc.value) == message


@st.composite
def flow_graphs(draw):
    """Small networks with arbitrary interior wiring: cycles, anti-parallel
    and parallel arcs, zero capacities (node 0 is the source, n-1 the sink)."""
    n = draw(st.integers(2, 7))
    arc = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1), st.integers(0, 6))
    arcs = [a for a in draw(st.lists(arc, max_size=12)) if a[0] != a[1]]
    # the reverse of an arc between interior nodes, so anti-parallel pairs are common
    for u, v, _ in list(arcs):
        if 0 < u < n - 1 and 0 < v < n - 1 and draw(st.booleans()):
            arcs.append((v, u, draw(st.integers(0, 6))))
    return n, arcs


@settings(max_examples=200, deadline=None)
@given(graph=flow_graphs())
@example(graph=(5, [(0, 1, 4), (1, 2, 3), (2, 3, 3), (3, 1, 2), (2, 1, 1), (3, 4, 5), (0, 3, 1)]))
@example(graph=(4, [(0, 1, 2), (0, 2, 2), (1, 2, 3), (2, 1, 3), (1, 3, 2), (2, 3, 1)]))
# the trap graph plus two anti-parallel pairs: the optimum must cancel flow on a->b
@example(graph=(6, [(0, 1, 1), (0, 3, 1), (1, 2, 1), (1, 4, 1), (2, 5, 1), (3, 2, 1), (4, 5, 1), (2, 3, 1), (4, 1, 2)]))
def test_solvers_equal_scipy_maximum_flow(graph):
    """edmonds_karp and residual-mode solve against scipy's maximum_flow,
    which shares no code with them; paper-faithful mode must stay feasible."""
    from scipy import sparse
    from scipy.sparse import csgraph
    n, arcs = graph
    net = FlowNetwork(n, arcs, 0, n - 1)
    tails, heads, caps = zip(*arcs) if arcs else ((), (), ())
    matrix = sparse.csr_matrix((caps, (tails, heads)), shape=(n, n), dtype="int64")  # sums parallel arcs
    expected = csgraph.maximum_flow(matrix, 0, n - 1).flow_value
    classical = edmonds_karp(net)
    assert classical.value == expected and validate_flow(net, classical) == []
    residual = solve(net, RESIDUAL).assignment
    assert residual.value == expected and validate_flow(net, residual) == []
    greedy = solve(net, PAPER_FAITHFUL).assignment
    assert greedy.value <= expected and validate_flow(net, greedy) == []


_INT = st.integers(-1, 6).map(str)
_TOKEN = _INT | st.sampled_from(["max", "s", "t", "x", "1.5"]) | st.text(alphabet="0123456789-+_st", max_size=3)
_SALAD = st.tuples(st.sampled_from(["p", "n", "a", "c", "x", ""]), st.lists(_TOKEN, max_size=5)).map(
    lambda kind_fields: " ".join([kind_fields[0], *kind_fields[1]])
)


@st.composite
def dimacs_texts(draw):
    """A problem line, source and sink lines and arcs with small, possibly
    out-of-range values and an arc count that is usually right; then maybe
    a few lines of token salad inserted and the lines shuffled."""
    arcs = draw(st.lists(st.tuples(_INT, _INT, _INT).map(lambda f: "a " + " ".join(f)), max_size=5))
    promised = draw(st.sampled_from([str(len(arcs)), str(len(arcs)), "1"]))
    lines = [f"p max {draw(_INT)} {promised}", f"n {draw(_INT)} s", f"n {draw(_INT)} t", *arcs]
    for line in draw(st.lists(_SALAD, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=dimacs_texts())
def test_parse_dimacs_raises_only_parse_error(text):
    """Whatever the text, parse_dimacs returns a network or raises ParseError,
    and a returned network survives a format/parse round trip."""
    try:
        net = parse_dimacs(text)
    except ParseError:
        return
    text = format_dimacs(net)
    assert format_dimacs(parse_dimacs(text)) == text
