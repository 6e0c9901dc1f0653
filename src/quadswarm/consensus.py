"""The linear agreement protocol q_dot = -L q and its analysis helpers.

States live in an (n, r) matrix: one row per agent, one column per
coordinate. The protocol conserves column sums, so all agents converge
to the centroid of the initial rows when the graph is connected.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DisconnectedError, DivergenceError, DomainError
from .network import (DistanceWeighted, Laplacian, adjacency, is_complete,
                      is_connected, proximity_edges, weighted_laplacian_at,
                      with_edges)
from .numerics import sym_eigen

# Real-axis stability limit of classical RK4: |R(z)| <= 1 on
# [-2.785, 0] for R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 (Hairer and
# Wanner, Solving ODEs II, section IV.2).
_RK4_REAL_LIMIT = 2.785


@dataclass(frozen=True)
class ConsensusTrajectory:
    """Sampled run of the agreement protocol.

    Attributes:
        times: (K,) sample times.
        states: (K, n, r) agent states at those times.
        laplacian_log: list of (time, Laplacian) snapshots, one at t=0
            plus one whenever the proximity rule added edges.
    """

    times: np.ndarray
    states: np.ndarray
    laplacian_log: list


def consensus_point(q0):
    """Centroid the protocol converges to: the mean of the initial rows."""
    q0 = np.asarray(q0, dtype=float)
    if q0.ndim != 2:
        raise DomainError(f"expected an (n, r) state matrix, got {q0.shape}")
    return q0.mean(axis=0)


def closed_form_state(lap, q0, t):
    """Exact protocol state at time t for a constant Laplacian.

    Diagonalizes L = U diag(w) U^T and applies exp(-L t) spectrally to
    the offsets from the centroid, which L fixes (L 1 = 0). Applied to
    q0 itself, the rounding error of the zero eigenvalue would grow
    with t in the conserved part: ~1e-12 at t=80 on a 4-agent graph.

    Args:
        lap: Laplacian snapshot (or a plain symmetric matrix whose rows
            sum to zero).
        q0: (n, r) initial state.
        t: elapsed time, finite and >= 0.
    """
    m = lap.matrix if isinstance(lap, Laplacian) else np.asarray(lap, float)
    q0 = np.asarray(q0, dtype=float)
    if q0.ndim != 2 or q0.shape[0] != m.shape[0]:
        raise DomainError(
            f"state shape {q0.shape} does not match Laplacian {m.shape}")
    if not 0.0 <= t < math.inf:
        raise DomainError(f"time must be finite and nonnegative, got {t!r}")
    w, u = sym_eigen(m)
    decay = np.exp(-w * t)
    alpha = consensus_point(q0)
    return alpha + u @ (decay[:, None] * (u.T @ (q0 - alpha)))


def lyapunov(q, qstar):
    """Disagreement energy 0.5 * sum of squared offsets from qstar."""
    q = np.asarray(q, dtype=float)
    qstar = np.asarray(qstar, dtype=float)
    return 0.5 * float(np.sum((q - qstar) ** 2))


def integrate_protocol(net, q0, duration, dt=1e-3, stride=10, stop_tol=1e-4):
    """Integrate q_dot = -L q with fixed-step RK4.

    The Laplacian is evaluated at the start of each step and held
    constant across the step's stages. Distance-weighted networks are
    re-weighted every step and may gain edges as agents approach each
    other; each such change is recorded in the trajectory's
    laplacian_log. Holding L(q) fixed within a step makes the scheme
    first order for distance weights; it is fourth order only for a
    fixed Laplacian. Integration stops early once every agent sits within
    stop_tol of the consensus point in every coordinate; the condition
    is checked whenever a sample is recorded, and so is finiteness.

    Args:
        net: communication graph; must be connected at t=0.
        q0: (n, r) initial state matrix.
        duration: time horizon, at least half a step: the run takes
            round(duration / dt) >= 1 steps.
        dt: step size, > 0.
        stride: record every stride-th step (plus t=0 and the end).
        stop_tol: early-stop threshold on max |q - consensus|.

    Returns:
        ConsensusTrajectory.

    Raises:
        DomainError: a malformed argument, among them a q0 holding a
            non-finite number.
        DivergenceError: before the first step when dt times the largest
            eigenvalue of L(0) exceeds 2.785, RK4's real-axis stability
            limit, so the fastest mode would grow instead of decay;
            otherwise at the first recorded sample that is not finite.
    """
    q = np.array(q0, dtype=float)
    if q.ndim != 2 or q.shape[0] != net.n:
        raise DomainError(
            f"state shape {q.shape} does not match n={net.n} agents")
    if q.shape[1] == 0:
        raise DomainError(f"state shape {q.shape} has no coordinates")
    if not np.isfinite(q).all():
        raise DomainError("initial state holds a non-finite number")
    if not duration > 0.0:
        raise DomainError(f"duration must be positive, got {duration!r}")
    if not dt > 0.0:
        raise DomainError(f"step size must be positive, got {dt!r}")
    steps = int(round(duration / dt))
    if steps < 1:
        raise DomainError(
            f"duration {duration!r} is shorter than half a step dt={dt!r}; "
            "no step would run")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride!r}")
    spec = start_spectrum(net, q)
    problem = spec.problem(dt)
    if problem is not None:
        raise problem
    lap = spec.laplacian

    alpha = consensus_point(q)
    # For a matrix frozen across the step, the classical RK4 update on
    # q' = -m q collapses to the degree-4 Taylor polynomial of the step
    # propagator; same arithmetic as rk4_step, fewer temporaries.
    c2 = dt * dt / 2.0
    c3 = dt * c2 / 3.0
    coef = (dt, c2, c3, dt * c3 / 4.0)
    log = [(0.0, lap)]
    if isinstance(net.policy, DistanceWeighted):
        advance = _moving_step(lap.source, q, dt, coef, log)
    else:
        advance = _static_step(lap.matrix, q, coef)

    # The spread check at recorded samples, max |q - alpha|, as direct
    # ufunc calls into one buffer (np.max adds a Python wrapper).
    off = np.empty_like(q)
    subtract, absolute, peak = np.subtract, np.absolute, np.maximum.reduce
    times = [0.0]
    states = [q.copy()]
    last = steps - 1
    for k in range(steps):
        advance(k)
        if (k + 1) % stride == 0 or k == last:
            times.append((k + 1) * dt)
            states.append(q.copy())
            spread = peak(absolute(subtract(q, alpha, off), off), None)
            if spread < stop_tol:
                break
            # np.maximum propagates NaN, so this costs no extra pass
            if not math.isfinite(spread):
                raise DivergenceError(
                    f"protocol state is non-finite at t={times[-1]:.6f}")

    return ConsensusTrajectory(
        times=np.array(times),
        states=np.array(states),
        laplacian_log=log,
    )


@dataclass(frozen=True)
class StartSpectrum:
    """L(0) of a network at its agents' starting positions, the
    connectivity of the graph it is built on, its ascending
    eigenvalues, and the spread max |q0 - centroid| the early stop uses.

    For distance weights that graph is the network grown by the
    proximity rule at the positions (laplacian.source).
    """

    laplacian: Laplacian
    connected: bool
    eigenvalues: np.ndarray
    spread: float
    rk4_limit: ClassVar[float] = _RK4_REAL_LIMIT

    @property
    def lambda2(self):
        """The algebraic connectivity; needs n >= 2."""
        return float(self.eigenvalues[1])

    @property
    def lambda_max(self):
        return float(self.eigenvalues[-1])

    @property
    def dt_max(self):
        """Largest step with dt * lambda_max within RK4's real-axis
        stability limit."""
        lam = self.lambda_max
        return _RK4_REAL_LIMIT / lam if lam > 0.0 else math.inf

    def problem(self, dt):
        """The error the protocol stops with before its first step of
        dt, or None: DisconnectedError for a graph that is not
        connected, else DivergenceError when dt * lambda_max exceeds
        RK4's real-axis stability limit, 2.785."""
        if not self.connected:
            return DisconnectedError("network is not connected at t=0")
        lam_max = self.lambda_max
        if dt * lam_max > _RK4_REAL_LIMIT:
            return DivergenceError(
                f"step dt={dt!r} is unstable for RK4: dt * lambda_max = "
                f"{dt * lam_max:.6g} with lambda_max(L(0)) = {lam_max:.6g} "
                f"exceeds {_RK4_REAL_LIMIT}; the largest stable step is "
                f"{self.dt_max:.6g}")
        return None

    def predicted_stop(self, stop_tol):
        """Seconds until the early stop at stop_tol should fire, or the
        reason there is no prediction, a str; needs n >= 2. For a fixed
        Laplacian the offsets from the centroid decay like
        exp(-lambda2 t), so the spread falls below stop_tol after
        ln(spread / stop_tol) / lambda2; distance weights change L with
        the positions every step, so lambda2 of L(0) bounds nothing."""
        if isinstance(self.laplacian.source.policy, DistanceWeighted):
            return ("distance weights change L(t) every step, so lambda2 "
                    "of L(0) does not set the decay rate")
        lam2 = self.lambda2
        if not lam2 > 1e-9:
            return "L(0) has no spectral gap"
        if self.spread > stop_tol:
            return math.log(self.spread / stop_tol) / lam2
        return 0.0


def start_spectrum(net, q):
    """StartSpectrum of net at the (n, r) positions q; raises nothing
    about the graph or its spectrum. One eigendecomposition."""
    lap = weighted_laplacian_at(net, q)
    return StartSpectrum(laplacian=lap, connected=is_connected(lap.source),
                         eigenvalues=sym_eigen(lap.matrix)[0],
                         spread=float(np.max(np.abs(q - consensus_point(q)))))


def _static_step(m, q, coef):
    """Step function for a constant Laplacian m; advances q in place.

    The whole step propagator is one fixed matrix, so it is computed
    once and each step costs one product through the bound prop.dot
    (see _moving_step).
    """
    c1, c2, c3, c4 = coef
    prop = np.eye(len(m)) - c1 * m + c2 * (m @ m) - c3 * (m @ m @ m) \
        + c4 * (m @ m @ m @ m)
    qn = np.empty_like(q)
    pdot = prop.dot

    def advance(k):
        pdot(q, qn)
        q[...] = qn

    return advance


def _moving_step(net, q, dt, coef, log):
    """Step function for a distance-weighted network; advances q in place.

    Each step re-weights the graph from the current positions and grows
    it by the proximity rule, appending (time, Laplacian) to log when
    edges appear. Once complete the graph can only re-weight; that
    branch dominates the runtime, so it reuses fixed buffers and views
    of them (q is updated in place, which keeps the broadcast views
    below valid across steps). The differences are coordinate-major,
    (r, n, n), as in network.pairwise_distances; their squares are
    summed in place into the first plane, ((d0 + d1) + d2) for r = 3,
    the order of that function's reduce over the leading axis. Every
    call of the complete-graph branch is a direct C entry point, as its
    cost is per-call dispatch, not arithmetic: the five products go
    through the bound methods mbuf.dot and signed.dot, which run the
    same routine as np.dot without its Python-level dispatcher (and the
    same BLAS call as np.matmul with less per-call work); every buffer
    is C-contiguous float64, as dot's out requires.
    """
    n, r = q.shape
    thr = net.policy.threshold
    cur = net
    complete = is_complete(net)
    c1, c2, c3, c4 = coef
    signed = np.array([-c1, c2, -c3, c4])
    diff = np.empty((r, n, n))
    dist, *planes = diff  # the distances overwrite the first plane
    mbuf = np.empty((n, n))
    mdiag = np.einsum("ii->i", mbuf)
    powers = np.empty((4, n, r))
    p0, p1, p2, p3 = powers
    pflat = powers.reshape(4, n * r)
    acc = np.empty_like(q)
    accflat = acc.reshape(-1)
    qa = q.T[:, :, None]
    qb = q.T[:, None, :]
    mdot, sdot = mbuf.dot, signed.dot
    subtract, multiply = np.subtract, np.multiply
    sqrt, negative, add = np.sqrt, np.negative, np.add
    reduce = np.add.reduce

    def advance(k):
        nonlocal cur, complete
        # network.pairwise_distances(q), written into the buffers.
        subtract(qa, qb, diff)
        multiply(diff, diff, diff)
        for plane in planes:
            add(dist, plane, dist)
        sqrt(dist, dist)
        if complete:
            negative(dist, mbuf)
            reduce(dist, axis=1, out=mdiag)
        else:
            grown = with_edges(cur, proximity_edges(dist, adjacency(cur), thr))
            w = np.where(adjacency(grown), dist, 0.0)
            negative(w, mbuf)
            reduce(w, axis=1, out=mdiag)
            if grown is not cur:
                cur = grown
                complete = is_complete(cur)
                log.append((k * dt, Laplacian(matrix=mbuf.copy(), source=cur)))
        mdot(q, p0)
        mdot(p0, p1)
        mdot(p1, p2)
        mdot(p2, p3)
        sdot(pflat, accflat)
        add(q, acc, q)

    return advance


def straightness_residual(traj, agent):
    """Largest distance from an agent's path to its ideal straight
    segment, from the agent's initial state to the consensus point of
    the whole group (max_cross_track). Agents adjacent to everyone ride
    this segment exactly; others bow away from it.

    Args:
        traj: ConsensusTrajectory.
        agent: 1-based agent index.
    """
    k, n, _ = traj.states.shape
    if not (1 <= agent <= n):
        raise DomainError(f"agent {agent} outside 1..{n}")
    path = traj.states[:, agent - 1, :]
    return max_cross_track(path, path[0], consensus_point(traj.states[0]))


def max_cross_track(points, a, b):
    """Largest distance from any of the (k, r) points to the segment
    a -> b, or to a itself when the segment is shorter than 1e-12."""
    d = b - a
    span = float(np.dot(d, d))
    offs = points - a
    if span < 1e-24:
        return float(np.max(np.linalg.norm(offs, axis=1), initial=0.0))
    s = np.clip(offs @ d / span, 0.0, 1.0)
    closest = a + s[:, None] * d
    return float(np.max(np.linalg.norm(points - closest, axis=1),
                        initial=0.0))
