import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import components_after_removal
from netinfer.graphcore import (
    DENSE_BYTES_LIMIT,
    DenseSizeError,
    Graph,
    ParseError,
    RngStream,
    SubstreamGenerators,
    Tree,
    bfs_order,
    parse_edge_list,
    serialize_edge_list,
)
from netinfer.trees import path

# ---------------------------------------------------------------- parsing


def test_parse_triangle():
    g = parse_edge_list("3 3\n1 2\n1 3\n2 3\n")
    assert g.n == 3 and g.m == 3
    assert g.to_dense().all() == False or True  # noqa: E712 - checked below
    expect = ~np.eye(3, dtype=bool)
    assert (g.to_dense() == expect).all()


def test_parse_empty_graph():
    g = parse_edge_list("2 0\n")
    assert g.n == 2 and g.m == 0
    assert not g.to_dense().any()


def test_parse_tolerates_blank_lines_and_no_trailing_newline():
    g = parse_edge_list("3 1\n\n1 3")
    assert g.m == 1 and g.to_dense()[0, 2]


@pytest.mark.parametrize(
    "text,msg",
    [
        ("", "line 1: expected header 'n m'"),
        ("3\n", "line 1: expected header 'n m'"),
        ("a b\n", "line 1: header values must be integers"),
        ("-1 0\n", "line 1: n and m must be nonnegative"),
        ("3 1\n1\n", "line 2: expected 'u v'"),
        ("3 1\n1 x\n", "line 2: vertices must be integers"),
        ("3 1\n2 2\n", "line 2: self-loop 2 2"),
        ("3 1\n2 1\n", "line 2: edge 2 1 violates 1 <= u < v <= n"),
        ("3 1\n1 4\n", "line 2: edge 1 4 violates 1 <= u < v <= n"),
        ("3 1\n0 2\n", "line 2: edge 0 2 violates 1 <= u < v <= n"),
        ("3 2\n1 2\n1 2\n", "line 3: duplicate edge 1 2"),
        ("3 2\n1 2\n", "header declares m=2 but found 1 edges"),
        ("3 1\n1 2\n1 3\n", "header declares m=1 but found 2 edges"),
        # the first faulty line wins, whatever fault a later line has
        ("4 3\n1 2\n1 2\n3 3\n", "line 3: duplicate edge 1 2"),
        ("4 1\n1 2\n1 2\n", "line 3: duplicate edge 1 2"),
        ("   \n1 2\n", "line 1: expected header 'n m'"),
        ("3037000500 0\n",
         "line 1: n=3037000500 is past the int64 pair-key limit 3037000499"),
        ("10000000000 1\n5000000001 9000000001\n",
         "line 1: n=10000000000 is past the int64 pair-key limit 3037000499"),
    ],
)
def test_parse_errors(text, msg):
    with pytest.raises(ParseError, match=msg.replace("(", "\\(")):
        parse_edge_list(text)


@pytest.mark.parametrize("text", ["0 0\n", "0 0"])
def test_parse_vertexless_graph(text):
    g = parse_edge_list(text)
    assert (g.n, g.m, g.edges().shape) == (0, 0, (0, 2))


def test_parse_shuffled_lines_with_blanks():
    """Edge lines in any order, among blank and whitespace-only lines,
    give the edge store that from_edges builds from the same pairs."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = rng.random(len(pairs)) < rng.random()
        edges = [pairs[i] for i in np.flatnonzero(keep)]
        g = Graph.from_edges(n, edges)
        seps, blanks = [" ", "  ", "\t"], ["", " ", "\t", "  \t "]
        body = [f"{u + 1}{seps[rng.integers(3)]}{v + 1}" for u, v in edges]
        body += [blanks[rng.integers(4)] for _ in range(rng.integers(0, 6))]
        rng.shuffle(body)
        h = parse_edge_list("\n".join([f"{n} {len(edges)}", *body]))
        assert (h.n, h.m) == (g.n, g.m)
        assert h.edges().dtype == np.int64
        assert np.array_equal(h.edges(), g.edges())


def test_parse_memory_is_bounded():
    """A 5 * 10^4-edge path file parses with under 12 MiB of Python
    allocations: one integer key per edge, no tuples."""
    n = 50_001
    text = f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(1, n))
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == n - 1
    assert peak < 12 << 20, peak


def test_serialize_round_trip_is_identity():
    text = "4 3\n1 2\n2 4\n3 4\n"
    assert serialize_edge_list(parse_edge_list(text)) == text


def _random_graph(rng: np.random.Generator, n: int) -> Graph:
    adj = rng.random((n, n)) < 0.4
    adj = np.triu(adj, 1)
    return Graph(adj | adj.T)


def test_serialize_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = _random_graph(rng, int(rng.integers(1, 30)))
        h = parse_edge_list(serialize_edge_list(g))
        assert h.n == g.n
        assert (h.to_dense() == g.to_dense()).all()


# ---------------------------------------------------------------- Graph


def test_from_edges_basic_accessors():
    g = Graph.from_edges(4, [(2, 0), (3, 2)])
    assert g.n == 4 and g.m == 2
    assert g.degree(2) == 2
    assert list(g.degrees()) == [1, 0, 2, 1]
    assert list(g.neighbors(2)) == [0, 3]
    # edges come back lexicographically sorted with u < v
    assert g.edges().tolist() == [[0, 2], [2, 3]]


@pytest.mark.parametrize(
    "n,edges,msg",
    [
        (3, [(1, 1)], "self-loops are not allowed"),
        (3, [(0, 3)], "edge endpoint out of range"),
        (3, [(-1, 2)], "edge endpoint out of range"),
        (3, [(0, 1), (1, 0)], "duplicate edges are not allowed"),
    ],
)
def test_from_edges_rejects_bad_input(n, edges, msg):
    with pytest.raises(ValueError, match=msg):
        Graph.from_edges(n, edges)


def test_adjacency_validation():
    with pytest.raises(ValueError):
        Graph(np.zeros((2, 3), dtype=bool))
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ValueError):
        Graph(asym)
    diag = np.eye(2, dtype=bool)
    with pytest.raises(ValueError):
        Graph(diag)


def test_graph_is_immutable():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(AttributeError, match="Graph is immutable"):
        g.m = 7
    assert not g.to_dense().flags.writeable


def test_degree_sum_is_twice_edge_count():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = _random_graph(rng, int(rng.integers(2, 40)))
        assert g.degrees().sum() == 2 * g.m


@st.composite
def _edge_sets(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return n, sorted(edges)


@given(_edge_sets())
@settings(max_examples=60, derandomize=True)
def test_round_trip_preserves_edges(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    assert [tuple(e) for e in g.edges()] == edges
    h = parse_edge_list(serialize_edge_list(g))
    assert (h.to_dense() == g.to_dense()).all()


# ---------------------------------------------------------------- Tree


def test_tree_requires_exact_edge_count():
    with pytest.raises(ValueError, match="tree needs m == n-1, got m=3, n=3"):
        Tree.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_tree_requires_connectivity():
    # n-1 edges but two triangles plus an isolated vertex
    with pytest.raises(ValueError, match="tree must be connected"):
        Tree.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def test_from_parents_validation():
    with pytest.raises(ValueError, match="parent\\[0\\] must be -1"):
        Tree([0, 0])
    with pytest.raises(ValueError, match="parent\\[0\\] must be -1"):
        Tree([])
    with pytest.raises(ValueError, match="earlier vertex"):
        Tree([-1, 2, 1])
    with pytest.raises(ValueError, match="earlier vertex"):
        Tree([-1, -1])


def test_from_parents_structure():
    t = Tree([-1, 0, 0, 2])
    assert t.n == 4 and t.m == 3
    assert t.parent.tolist() == [-1, 0, 0, 2]
    assert t.degree(0) == 2 and t.degree(2) == 2


def test_components_after_removal_examples():
    # removing the root of this 8-vertex tree leaves components of size 6, 1
    t = Tree([-1, 0, 0, 2, 2, 2, 2, 2])
    assert components_after_removal(t, 0) == [6, 1]
    assert components_after_removal(t, 2) == [2, 1, 1, 1, 1, 1]
    star = Tree([-1, 0, 0, 0, 0, 0, 0])
    assert components_after_removal(star, 0) == [1] * 6
    assert components_after_removal(star, 1) == [6]
    path = Tree([-1, 0, 1, 2, 3])
    assert components_after_removal(path, 2) == [2, 2]
    single = Tree([-1])
    assert components_after_removal(single, 0) == []


@st.composite
def _parent_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    parent = [-1] + [draw(st.integers(min_value=0, max_value=i - 1))
                     for i in range(1, n)]
    return parent


@given(_parent_arrays())
@settings(max_examples=80, derandomize=True)
def test_components_partition_the_rest(parent):
    t = Tree(parent)
    for v in range(t.n):
        sizes = components_after_removal(t, v)
        assert sum(sizes) == t.n - 1
        assert sizes == sorted(sizes, reverse=True)
        assert len(sizes) == t.degree(v)


def test_bfs_order_on_path():
    path = Tree([-1, 0, 1, 2])
    order, parent = bfs_order(path, 3)
    assert order.tolist() == [3, 2, 1, 0]
    assert parent.tolist() == [1, 2, 3, -1]


def test_bfs_order_marks_unreachable():
    g = Graph.from_edges(4, [(0, 1)])
    order, parent = bfs_order(g, 0)
    assert order.tolist() == [0, 1]
    assert parent[0] == -1 and parent[1] == 0
    assert parent[2] == -2 and parent[3] == -2


@given(_edge_sets(), st.integers(min_value=0, max_value=11))
@settings(max_examples=80, derandomize=True)
def test_bfs_order_matches_dense_queue(case, root):
    n, edges = case
    root %= n
    expect = oracles.dense_bfs(oracles.dense_adj(n, edges), root)
    for g in (Graph.from_edges(n, edges), Graph(oracles.dense_adj(n, edges))):
        order, parent = bfs_order(g, root)
        np.testing.assert_array_equal(order, expect[0])
        np.testing.assert_array_equal(parent, expect[1])


def test_deep_path_walks_end_to_end():
    # 10^5 levels: one level per vertex, whichever end the walk starts from
    n = 10**5
    line = path(n)
    edges = line.edges()[np.random.default_rng(0).permutation(n - 1)]
    t = Tree.from_edges(n, edges[:, ::-1])
    np.testing.assert_array_equal(t.parent, line.parent)
    order, parent = bfs_order(line, n - 1)
    np.testing.assert_array_equal(order, np.arange(n)[::-1])
    assert order.dtype == parent.dtype == np.int64
    assert parent[n - 1] == -1
    np.testing.assert_array_equal(parent[:-1], np.arange(1, n))


# ---------------------------------------------------------------- stores


def test_edge_store_holds_no_matrix():
    """A graph built from its edges and one built from its matrix hold the
    same edge array, and neither keeps a matrix: to_dense builds a new one
    on every call."""
    g = Graph.from_edges(4, [(3, 1), (0, 2), (1, 2)])
    indptr, indices = g.csr()
    assert indptr.tolist() == [0, 1, 3, 5, 6]
    assert indices.tolist() == [2, 2, 3, 0, 1, 1]
    dense = Graph(g.to_dense())
    assert dense.edges().tobytes() == g.edges().tobytes()
    for h in (g, dense):
        assert h.to_dense() is not h.to_dense()
    for v in range(4):
        assert g.neighbors(v).tolist() == dense.neighbors(v).tolist()
        assert g.degree(v) == dense.degree(v)
    assert (dense.csr()[1] == indices).all()


def test_tree_is_its_parent_array():
    t = Tree([-1, 0, 0, 2, 2])
    assert t.to_dense() is not t.to_dense()
    assert t.degrees().tolist() == [2, 1, 3, 1, 1]
    assert t.edges().tolist() == [[0, 1], [0, 2], [2, 3], [2, 4]]
    u = Tree.from_edges(5, [(2, 4), (3, 2), (0, 2), (1, 0)])
    assert u.parent.tolist() == [-1, 0, 0, 2, 2]
    assert not t.parent.flags.writeable


def test_vertex_count_past_the_pair_key_limit_is_refused():
    """Past floor(sqrt(2^63 - 1)) vertices the int64 pair keys would wrap,
    so no store of that size is built."""
    with pytest.raises(ValueError, match="n=10000000000 is past the int64 "
                                         "pair-key limit 3037000499"):
        Graph.from_edges(10**10, [(5 * 10**9, 9 * 10**9)])
    g = Graph.from_edges(3_037_000_499, [(5, 3_037_000_498), (0, 7)])
    assert g.edges().tolist() == [[0, 7], [5, 3_037_000_498]]


def test_huge_edge_store_needs_no_dense_allocation():
    g = Graph.from_edges(10**6, [(0, 1)])
    degs = g.degrees()
    assert degs.shape == (10**6,) and degs[:3].tolist() == [1, 1, 0]
    assert bfs_order(g, 1)[0].tolist() == [1, 0]
    with pytest.raises(DenseSizeError, match="GiB limit"):
        g.to_dense()
    assert 10**6 * 10**6 > DENSE_BYTES_LIMIT


# ---------------------------------------------------------------- RngStream


def test_rng_stream_reproducible():
    a = RngStream(123, 5).generator().random(8)
    b = RngStream(123, 5).generator().random(8)
    assert (a == b).all()


def test_rng_stream_distinct_streams_differ():
    a = RngStream(123, 0).generator().random(8)
    b = RngStream(123, 1).generator().random(8)
    c = RngStream(124, 0).generator().random(8)
    assert not (a == b).all()
    assert not (a == c).all()


def test_substream_is_stream_offset():
    s = RngStream(9, 100)
    assert s.substream(3) == RngStream(9, 103)
    assert s.substream(0) == s
    with pytest.raises(ValueError, match="replica index must be nonnegative"):
        s.substream(-1)


def test_rng_stream_keys_must_fit_64_bits():
    RngStream(2**64 - 1, 2**64 - 1).generator()
    for seed, stream in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64)):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            RngStream(seed, stream)


def test_substream_past_last_stream_id_raises():
    last = RngStream(5).substream(2**64 - 1)
    assert last.stream == 2**64 - 1
    with pytest.raises(ValueError, match="stream id"):
        last.substream(1)


def _draws(gen) -> bytes:
    return b"".join(a.tobytes() for a in (
        gen.random(5), gen.standard_normal(3), gen.chisquare(np.arange(2, 6)),
        gen.integers(0, 2, size=7), gen.uniform(-1.0, 1.0, size=2)))


@pytest.mark.parametrize("seed,stream", [(0, 0), (2**64 - 1, 0), (5, 2**64 - 1)])
def test_rekeyed_generator_draws_like_a_fresh_one(seed, stream):
    rng = RngStream(seed, stream)
    (gen,) = (_draws(g) for g in SubstreamGenerators(rng, 0, 1))
    assert gen == _draws(rng.generator())


def test_substream_generators_follow_the_substreams_in_order():
    rng = RngStream(8, 40)
    block = SubstreamGenerators(rng, 3, 9)
    assert len(block) == 6
    assert [_draws(g) for g in block] == [
        _draws(rng.substream(i).generator()) for i in range(3, 9)]


def test_substream_generators_at_the_top_of_the_key_range():
    """Every key of a block ending at stream 2^64 - 1, under the largest
    seed, passes the state setter's uint64 conversion unchanged."""
    rng = RngStream(2**64 - 1, 2**64 - 7)
    block = SubstreamGenerators(rng, 0, 6)
    assert [_draws(g) for g in block] == [
        _draws(rng.substream(i).generator()) for i in range(6)]


def test_rng_stream_is_frozen():
    s = RngStream(1, 2)
    with pytest.raises((AttributeError, TypeError)):
        s.seed = 4
