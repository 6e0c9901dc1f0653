"""Communication graphs and their Laplacians.

Vertices are numbered 1..n in the public interface. Edges are unordered
pairs; a network builds its boolean adjacency matrix once, and every
graph query below reads it. Three weight policies are supported: plain
0/1 weights, a fixed symmetric weight map, and distance weights that
grow edges permanently whenever two agents pass within a threshold of
each other. That proximity rule is written once, in proximity_edges.
Every distance weight follows pairwise_distances' formula: the
snapshots here call it, and the protocol's step loop
(consensus._moving_step) computes the same distances, in the same
order, into buffers of its own.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, PolicyError


@dataclass(frozen=True)
class Unweighted:
    """Every edge carries weight 1."""


@dataclass(frozen=True)
class StaticWeights:
    """Fixed positive weight per edge, keyed by (i, j) with i < j."""

    weights: dict


@dataclass(frozen=True)
class DistanceWeighted:
    """Edge weight equals the current inter-agent distance.

    Pairs closer than `threshold` become edges and stay edges.
    """

    threshold: float = 10.0


def _normalize_edges(n, edges):
    out = set()
    for e in edges:
        i, j = e
        i, j = int(i), int(j)
        if i == j:
            raise DomainError(f"self-loop on vertex {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise DomainError(f"edge ({i},{j}) outside vertex range 1..{n}")
        out.add((i, j) if i < j else (j, i))
    return frozenset(out)


@dataclass(frozen=True)
class Network:
    """Undirected communication graph over agents 1..n.

    Args:
        n: number of vertices, at least 1.
        edges: iterable of (i, j) pairs, 1-indexed, i != j. Order within
            a pair does not matter; duplicates collapse.
        policy: Unweighted (default), StaticWeights, or DistanceWeighted.

    The (n, n) boolean adjacency matrix is built once, on construction,
    and is read-only; adjacency(net) returns it. Equality, hashing and
    repr go by n, edges and policy alone.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)
    policy: object = field(default_factory=Unweighted)
    _adj: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need at least one vertex, got n={self.n}")
        object.__setattr__(self, "edges", _normalize_edges(self.n, self.edges))
        adj = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self.edges:
            adj[i - 1, j - 1] = adj[j - 1, i - 1] = True
        self._set_adjacency(adj)
        self._check_policy()

    def _set_adjacency(self, adj):
        adj.flags.writeable = False
        object.__setattr__(self, "_adj", adj)

    def _check_policy(self):
        if isinstance(self.policy, StaticWeights):
            for e in self.edges:
                if e not in self.policy.weights:
                    raise DomainError(f"no weight given for edge {e}")
            for e, w in self.policy.weights.items():
                if e not in self.edges:
                    raise DomainError(f"weight given for non-edge {e}")
                if not w > 0.0:
                    raise DomainError(f"weight for edge {e} must be positive")
        elif isinstance(self.policy, DistanceWeighted):
            if not self.policy.threshold > 0.0:
                raise DomainError("distance threshold must be positive")

    def degree(self, i):
        """Number of edges incident to vertex i (1-indexed)."""
        return int(np.count_nonzero(self._adj[i - 1]))


@dataclass(frozen=True)
class Laplacian:
    """A graph Laplacian snapshot: the matrix and its network."""

    matrix: np.ndarray
    source: Network

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        n = self.source.n
        if m.shape != (n, n):
            raise DimensionError(
                f"Laplacian shape {m.shape} does not match n={n}")
        if np.max(np.abs(m - m.T), initial=0.0) != 0.0:
            raise DomainError("Laplacian must be exactly symmetric")
        if np.max(np.abs(m.sum(axis=1)), initial=0.0) > 1e-12:
            raise DomainError("Laplacian rows must sum to zero")
        off = m - np.diag(np.diag(m))
        if off.size and off.max(initial=0.0) > 0.0:
            raise DomainError("off-diagonal Laplacian entries must be <= 0")
        object.__setattr__(self, "matrix", m)


def adjacency(net):
    """The network's read-only (n, n) boolean adjacency matrix."""
    return net._adj


def _laplacian_of(a, net):
    """Snapshot of the Laplacian of the symmetric edge-weight matrix a."""
    return Laplacian(matrix=np.diag(a.sum(axis=1)) - a, source=net)


def _fixed_laplacian(net):
    a = adjacency(net).astype(float)
    if isinstance(net.policy, StaticWeights):
        for (i, j), w in net.policy.weights.items():
            a[i - 1, j - 1] = a[j - 1, i - 1] = w
    return _laplacian_of(a, net)


def laplacian(net):
    """Laplacian of a network whose weights do not depend on positions.

    Raises:
        PolicyError: for a DistanceWeighted network, whose Laplacian only
            exists relative to agent positions; use weighted_laplacian_at.
    """
    if isinstance(net.policy, DistanceWeighted):
        raise PolicyError(
            "distance-weighted Laplacian needs positions; "
            "use weighted_laplacian_at")
    return _fixed_laplacian(net)


def _check_positions(net, positions):
    q = np.asarray(positions, dtype=float)
    if q.ndim != 2 or q.shape[0] != net.n:
        raise DimensionError(
            f"positions shape {q.shape} does not match n={net.n} agents")
    return q


def pairwise_distances(q):
    """(n, n) Euclidean distances between the rows of q.

    The square root of the summed squared differences. np.linalg.norm
    rounds some of these differently in the last bit, so every distance
    weight in the package comes from this formula. The differences are
    laid out coordinate-major, (r, n, n): each ufunc loop then runs over
    n*n contiguous elements instead of r = 3, and the reduce over the
    leading axis adds (d0 + d1) + d2, the order of a last-axis reduce.
    """
    qt = q.T
    diff = qt[:, :, None] - qt[:, None, :]
    return np.sqrt(np.add.reduce(diff * diff, axis=0))


def proximity_edges(dist, adj, threshold):
    """The proximity rule: the mask of vertex pairs that become edges.

    A pair qualifies when its distance (from pairwise_distances) is
    strictly below threshold and it is not adjacent in the boolean
    matrix adj yet; self-pairs never do. The (n, n) mask is symmetric.
    """
    new = (dist < threshold) & ~adj
    np.fill_diagonal(new, False)
    return new


def with_edges(net, mask):
    """The network plus the edges marked in a symmetric (n, n) boolean
    mask with a clear diagonal, as proximity_edges returns; net itself
    when the mask marks none.

    net's edges are checked already and the mask's pairs are in range,
    so the grown network is not rebuilt edge by edge: it takes net's
    edges plus the pairs of the mask's upper triangle, and net's
    adjacency or'ed with the mask. Its policy is checked again.
    """
    if not mask.any():
        return net
    i, j = np.nonzero(np.triu(mask))
    grown = copy.copy(net)
    object.__setattr__(grown, "edges", net.edges.union(
        zip((i + 1).tolist(), (j + 1).tolist())))
    grown._set_adjacency(adjacency(net) | mask)
    grown._check_policy()
    return grown


def weighted_laplacian_at(net, positions):
    """Laplacian evaluated at the given agent positions.

    Unweighted and StaticWeights networks ignore the position values
    (only the shape is checked). DistanceWeighted networks first grow
    edges by the proximity rule (proximity_edges), then weight every
    edge by the current inter-agent distance (pairwise_distances); the
    returned snapshot's `source` is the grown network.

    Args:
        positions: (n, r) array of agent positions.
    """
    q = _check_positions(net, positions)
    if not isinstance(net.policy, DistanceWeighted):
        return _fixed_laplacian(net)
    dist = pairwise_distances(q)
    grown = with_edges(
        net, proximity_edges(dist, adjacency(net), net.policy.threshold))
    return _laplacian_of(np.where(adjacency(grown), dist, 0.0), grown)


def is_connected(net):
    """Whether every vertex is reachable from vertex 1, found by
    breadth-first sweeps over the rows of the adjacency matrix."""
    adj = adjacency(net)
    seen = np.zeros(net.n, dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def is_complete(net):
    """Whether every vertex pair is an edge."""
    return len(net.edges) == net.n * (net.n - 1) // 2
