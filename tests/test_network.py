"""Unit checks for communication graphs and Laplacians."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadswarm.consensus import sym_eigen
from quadswarm.errors import DomainError
from quadswarm.network import (DistanceWeighted, Laplacian, Network,
                               StaticWeights, Unweighted, adjacency,
                               is_complete, is_connected, laplacian,
                               pairwise_distances, proximity_edges,
                               weighted_laplacian_at, with_edges)

HUB = Network(4, {(1, 2), (2, 3), (2, 4), (3, 4)})
TREE = Network(4, {(1, 3), (1, 4), (2, 3)})


def random_graph(seed, n):
    """Connected graph: a random spanning tree plus random extra edges."""
    rng = np.random.default_rng(seed)
    edges = set()
    for v in range(2, n + 1):
        edges.add((int(rng.integers(1, v)), v))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.3:
                edges.add((i, j))
    return Network(n, edges)


def edge_list_facts(n, edges):
    """Degrees, connectivity, completeness and ordered adjacent pairs of
    the graph on vertices 1..n, from its list of (i, j) pairs alone."""
    degree = {v: sum(v in e for e in edges) for v in range(1, n + 1)}
    reached, todo = {1}, [1]
    while todo:
        v = todo.pop()
        for i, j in edges:
            u = j if i == v else i if j == v else None
            if u is not None and u not in reached:
                reached.add(u)
                todo.append(u)
    complete = len({frozenset(e) for e in edges}) == n * (n - 1) // 2
    pairs = {(i, j) for i, j in edges} | {(j, i) for i, j in edges}
    return degree, len(reached) == n, complete, pairs


class TestNetwork:
    def test_edge_normalization(self):
        net = Network(3, [(2, 1), (1, 2), (3, 1)])
        assert net.edges == frozenset({(1, 2), (1, 3)})

    def test_rejects_self_loop(self):
        with pytest.raises(DomainError):
            Network(3, {(2, 2)})

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(DomainError):
            Network(3, {(1, 4)})
        with pytest.raises(DomainError):
            Network(3, {(0, 1)})

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(DomainError):
            Network(0)

    def test_degree_and_neighbors(self):
        assert HUB.degree(2) == 3
        assert HUB.degree(1) == 1
        adj = adjacency(HUB)
        assert set(np.flatnonzero(adj[1]) + 1) == {1, 3, 4}
        assert set(np.flatnonzero(adj[0]) + 1) == {2}

    def test_static_weights_validation(self):
        good = StaticWeights({(1, 2): 2.0})
        Network(2, {(1, 2)}, good)
        with pytest.raises(DomainError):
            Network(3, {(1, 2), (2, 3)}, good)  # edge (2,3) has no weight
        with pytest.raises(DomainError):
            Network(2, {(1, 2)}, StaticWeights({(1, 2): 2.0, (1, 3): 1.0}))
        with pytest.raises(DomainError):
            Network(2, {(1, 2)}, StaticWeights({(1, 2): 0.0}))

    def test_growing_static_weights_is_refused(self):
        net = Network(3, {(1, 2)}, StaticWeights({(1, 2): 2.0}))
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 2] = mask[2, 1] = True
        with pytest.raises(DomainError,
                           match=r"no weight given for edge \(2, 3\)"):
            with_edges(net, mask)

    def test_static_weight_lookup_is_symmetric(self):
        net = Network(2, {(2, 1)}, StaticWeights({(1, 2): 2.5}))
        m = laplacian(net).matrix
        assert m[0, 1] == m[1, 0] == -2.5

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n=st.integers(min_value=1, max_value=8),
           drop=st.sets(st.integers(min_value=0, max_value=27)))
    def test_one_graph_form_agrees_with_the_edge_list(self, seed, n, drop):
        # Dropping edges of a connected random graph also gives
        # disconnected ones; growing it back by with_edges must give the
        # graph the constructor builds.
        full = random_graph(seed, n)
        edges = [e for k, e in enumerate(sorted(full.edges))
                 if k not in drop]
        net = Network(n, edges)
        grown = with_edges(net, adjacency(full) & ~adjacency(net))
        assert grown == full
        assert np.array_equal(adjacency(grown), adjacency(full))
        assert not adjacency(grown).flags.writeable
        degree, connected, complete, pairs = edge_list_facts(n, edges)
        assert {v: net.degree(v) for v in range(1, n + 1)} == degree
        assert is_connected(net) == connected
        assert is_complete(net) == complete
        adj = adjacency(net)
        assert {(i + 1, j + 1) for i, j in zip(*np.nonzero(adj))} == pairs
        with pytest.raises(ValueError):
            adj[0, 0] = True
        twin = Network(n, [(j, i) for i, j in reversed(edges)])
        assert twin == net and hash(twin) == hash(net)
        assert "adj" not in repr(net)

    @pytest.mark.parametrize("policy", [
        Unweighted, lambda: StaticWeights({(1, 2): 1.0}),
        lambda: DistanceWeighted(5.0)],
        ids=["unweighted", "static", "distance"])
    def test_hashable_under_every_policy(self, policy):
        # equal networks hash equal, though a StaticWeights holds a dict
        net, twin = Network(2, [(1, 2)], policy()), Network(2, [(2, 1)],
                                                              policy())
        assert twin == net and hash(twin) == hash(net)
        assert len({net, twin}) == 1
        # the policy still takes part in equality
        other = Network(2, [(1, 2)], StaticWeights({(1, 2): 2.0}))
        assert other != net and len({net, other}) == 2

    def test_distance_policy_threshold_validation(self):
        with pytest.raises(DomainError):
            Network(2, set(), DistanceWeighted(threshold=0.0))


class TestLaplacian:
    def test_unweighted_hub_matrix(self):
        m = laplacian(HUB).matrix
        expect = np.array([
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 3.0, -1.0, -1.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, -1.0, -1.0, 2.0],
        ])
        assert np.array_equal(m, expect)

    def test_static_weight_matrix(self):
        net = Network(3, {(1, 2), (2, 3)},
                      StaticWeights({(1, 2): 2.0, (2, 3): 5.0}))
        m = laplacian(net).matrix
        expect = np.array([
            [2.0, -2.0, 0.0],
            [-2.0, 7.0, -5.0],
            [0.0, -5.0, 5.0],
        ])
        assert np.array_equal(m, expect)

    def test_distance_policy_needs_positions(self):
        net = Network(2, {(1, 2)}, DistanceWeighted())
        with pytest.raises(DomainError, match="distance-weighted Laplacian "
                           "needs positions; use weighted_laplacian_at"):
            laplacian(net)

    def test_snapshot_validation(self):
        with pytest.raises(DomainError, match=r"Laplacian shape \(3, 3\) "
                           "does not match n=4"):
            Laplacian(matrix=np.zeros((3, 3)), source=HUB)
        bad = np.zeros((4, 4))
        bad[0, 1] = 1e-6  # asymmetric
        with pytest.raises(DomainError):
            Laplacian(matrix=bad, source=HUB)
        bad2 = np.eye(4)  # rows do not sum to zero
        with pytest.raises(DomainError):
            Laplacian(matrix=bad2, source=HUB)
        bad3 = np.array([[1.0, 1.0, -2.0],
                         [1.0, 1.0, -2.0],
                         [-2.0, -2.0, 4.0]])  # positive off-diagonal
        with pytest.raises(DomainError):
            Laplacian(matrix=bad3, source=Network(3, {(1, 3), (2, 3)}))

    def test_hub_vertex_eigenvector(self):
        # A vertex adjacent to every other vertex pins an eigenpair:
        # the centered indicator 1 - n e_hub is an eigenvector with
        # eigenvalue n, independent of the rest of the graph.
        m = laplacian(HUB).matrix
        n = 4
        v = np.ones(n)
        v[1] = 1.0 - n  # hub is vertex 2
        assert np.max(np.abs(m @ v - n * v)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n=st.integers(min_value=2, max_value=8))
    def test_unweighted_spectrum_bounds(self, seed, n):
        net = random_graph(seed, n)
        w, _ = sym_eigen(laplacian(net).matrix)
        assert w[0] >= -1e-10
        assert abs(w[0]) <= 1e-10  # constant vector is always in the kernel
        assert w[-1] <= n + 1e-10

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n=st.integers(min_value=2, max_value=8))
    def test_row_sums_vanish(self, seed, n):
        m = laplacian(random_graph(seed, n)).matrix
        assert np.max(np.abs(m.sum(axis=1))) <= 1e-12
        assert np.max(np.abs(m.sum(axis=0))) <= 1e-12


class TestDistanceWeighting:
    def test_weighted_laplacian_matches_hand_computation(self):
        net = Network(3, {(1, 2)}, DistanceWeighted(threshold=2.0))
        q = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 5.0]])
        lap = weighted_laplacian_at(net, q)
        # Pair (2,3) sits at distance 1 < threshold and becomes an edge;
        # (1,2) keeps weight 5 from its current distance.
        expect = np.array([
            [5.0, -5.0, 0.0],
            [-5.0, 6.0, -1.0],
            [0.0, -1.0, 1.0],
        ])
        assert np.allclose(lap.matrix, expect, atol=1e-12)
        assert lap.source.edges == frozenset({(1, 2), (2, 3)})

    def test_pairwise_distances(self):
        q = np.random.default_rng(3).normal(size=(6, 3))
        dist = pairwise_distances(q)
        assert np.array_equal(dist, dist.T)
        assert np.array_equal(np.diag(dist), np.zeros(6))
        for i in range(6):
            for j in range(6):
                d = q[i] - q[j]
                assert dist[i, j] == np.sqrt(d[0] * d[0] + d[1] * d[1]
                                             + d[2] * d[2])

    def test_proximity_edges_mask(self):
        q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.5], [0.0, -2.0]])
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        new = proximity_edges(pairwise_distances(q), adj, 2.0)
        # 1-2 is an edge already and 1-4 sits exactly at the threshold;
        # 1-3 (1.5) and 2-3 (1.8) are new, and no vertex pairs itself.
        expect = {(0, 2), (2, 0), (1, 2), (2, 1)}
        assert set(zip(*np.nonzero(new))) == expect

    def test_add_proximity_edges(self):
        net = Network(3, set(), DistanceWeighted(threshold=2.0))
        q = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        grown = weighted_laplacian_at(net, q).source
        assert grown.edges == frozenset({(1, 2)})
        assert weighted_laplacian_at(grown, q).source is grown

    def test_add_proximity_edges_noop_for_other_policies(self):
        assert weighted_laplacian_at(HUB, np.zeros((4, 3))).source is HUB

    def test_threshold_is_strict(self):
        net = Network(2, set(), DistanceWeighted(threshold=1.0))
        q = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert weighted_laplacian_at(net, q).source is net

    def test_position_shape_checked(self):
        net = Network(3, set(), DistanceWeighted())
        with pytest.raises(DomainError, match=r"positions shape \(2, 3\) "
                           "does not match n=3 agents"):
            weighted_laplacian_at(net, np.zeros((2, 3)))
        with pytest.raises(DomainError, match=r"positions shape \(3,\) "
                           "does not match n=3 agents"):
            weighted_laplacian_at(net, np.zeros(3))

    def test_static_policy_ignores_positions(self):
        net = Network(2, {(1, 2)}, StaticWeights({(1, 2): 7.0}))
        lap = weighted_laplacian_at(net, np.zeros((2, 3)))
        assert np.array_equal(lap.matrix, [[7.0, -7.0], [-7.0, 7.0]])


class TestConnectivity:
    def test_connected_examples(self):
        assert is_connected(HUB)
        assert is_connected(TREE)
        assert is_connected(Network(1))

    def test_disconnected_examples(self):
        assert not is_connected(Network(4, {(1, 2), (3, 4)}))
        assert not is_connected(Network(2))

    def test_is_complete(self):
        assert is_complete(Network(1))
        assert is_complete(Network(3, {(1, 2), (1, 3), (2, 3)}))
        assert not is_complete(HUB)
        assert not is_complete(TREE)
        # a ring grown by proximity until every pair is an edge
        ring = Network(4, {(1, 2), (2, 3), (3, 4), (1, 4)},
                       DistanceWeighted(threshold=10.0))
        assert not is_complete(ring)
        grown = weighted_laplacian_at(
            ring, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                            [0.0, 1.0]])).source
        assert is_complete(grown)
