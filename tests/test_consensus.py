"""Unit checks for the agreement-protocol integrator."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadswarm import consensus
from quadswarm.consensus import (closed_form_state, consensus_point,
                                 integrate_protocol, lyapunov,
                                 start_spectrum, straightness_residual,
                                 sym_eigen)
from quadswarm.errors import DisconnectedError, DivergenceError, DomainError
from quadswarm.mission import load_config
from quadswarm.network import (DistanceWeighted, Network, StaticWeights,
                               laplacian, weighted_laplacian_at)

from conftest import scenario_path
from oracles import rk4_step

HUB = Network(4, {(1, 2), (2, 3), (2, 4), (3, 4)})
TREE = Network(4, {(1, 3), (1, 4), (2, 3)})

Q0 = np.array([
    [16.0, 5.0, 36.0],
    [19.0, 19.0, 29.0],
    [12.0, 16.0, 33.0],
    [14.0, 1.0, 26.0],
])


def ring24():
    """A distance-weighted ring of 24 agents, uniform in a 40 m cube;
    the proximity rule grows it to the complete graph."""
    n = 24
    q0 = np.random.default_rng(5).uniform(0.0, 40.0, size=(n, 3))
    ring = {(i, i % n + 1) for i in range(1, n + 1)}
    return Network(n, ring, DistanceWeighted(10.0)), q0


def random_connected(seed, n):
    rng = np.random.default_rng(seed)
    edges = set()
    for v in range(2, n + 1):
        edges.add((int(rng.integers(1, v)), v))
    return Network(n, edges)


class TestSymEigen:
    def test_two_by_two(self):
        w, v = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(w, [1.0, 3.0], atol=1e-13)
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(a @ v, v @ np.diag(w), atol=1e-12)

    def test_diagonal_input(self):
        w, v = sym_eigen(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(w, [-1.0, 2.0, 3.0], atol=0.0)
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=0.0)

    def test_zero_matrix(self):
        w, v = sym_eigen(np.zeros((4, 4)))
        assert np.array_equal(w, np.zeros(4))
        assert np.array_equal(v, np.eye(4))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n=st.integers(min_value=1, max_value=10))
    def test_reconstruction_and_orthonormality(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a = a + a.T
        w, v = sym_eigen(a)
        scale = max(np.max(np.abs(a)), 1.0)
        assert np.max(np.abs(a - v @ np.diag(w) @ v.T)) <= 1e-9 * scale
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10
        assert np.all(np.diff(w) >= -1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n=st.integers(min_value=2, max_value=8))
    def test_agrees_with_library_eigenvalues(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a = a + a.T
        w, _ = sym_eigen(a)
        ref = np.linalg.eigvalsh(a)
        assert np.max(np.abs(w - ref)) <= 1e-9 * max(np.max(np.abs(ref)), 1.0)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            sym_eigen(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            sym_eigen([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DomainError):
            sym_eigen(np.zeros((0, 0)))
        with pytest.raises(DomainError):
            sym_eigen([[1.0, math.nan], [math.nan, 1.0]])


class TestClosedForm:
    def test_initial_state_returned_at_zero(self):
        got = closed_form_state(laplacian(HUB), Q0, 0.0)
        assert np.max(np.abs(got - Q0)) <= 1e-12

    def test_limit_is_the_centroid(self):
        got = closed_form_state(laplacian(HUB), Q0, 80.0)
        alpha = consensus_point(Q0)
        assert np.max(np.abs(got - alpha)) <= 1e-12

    def test_matches_series_expansion_at_small_time(self):
        m = laplacian(HUB).matrix
        t = 1e-4
        series = Q0 - t * (m @ Q0) + 0.5 * t * t * (m @ (m @ Q0))
        got = closed_form_state(m, Q0, t)
        assert np.max(np.abs(got - series)) <= 1e-10

    def test_input_validation(self):
        with pytest.raises(DomainError):
            closed_form_state(laplacian(HUB), Q0[:3], 1.0)
        with pytest.raises(DomainError):
            closed_form_state(laplacian(HUB), Q0, -1.0)
        for t in (math.nan, math.inf):
            with pytest.raises(DomainError):
                closed_form_state(laplacian(HUB), Q0, t)


class TestIntegrate:
    def test_agrees_with_closed_form(self):
        traj = integrate_protocol(HUB, Q0, 2.0, dt=1e-3, stop_tol=0.0)
        exact = closed_form_state(laplacian(HUB), Q0, traj.times[-1])
        assert np.max(np.abs(traj.states[-1] - exact)) <= 1e-10

    def test_weighted_agrees_with_closed_form(self):
        lap = weighted_laplacian_at(
            Network(4, TREE.edges, DistanceWeighted(threshold=1e-9)), Q0)
        net = Network(4, TREE.edges, StaticWeights({
            e: float(-lap.matrix[e[0] - 1, e[1] - 1]) for e in TREE.edges}))
        traj = integrate_protocol(net, Q0, 0.5, dt=1e-4, stop_tol=0.0)
        exact = closed_form_state(lap, Q0, traj.times[-1])
        assert np.max(np.abs(traj.states[-1] - exact)) <= 1e-8

    def test_sampling_grid(self):
        traj = integrate_protocol(HUB, Q0, 0.1, dt=1e-3, stride=10,
                                  stop_tol=0.0)
        assert np.allclose(np.diff(traj.times), 0.01, atol=1e-12)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.1, abs=1e-12)
        assert traj.states.shape == (len(traj.times), 4, 3)

    def test_final_step_recorded_when_off_stride(self):
        traj = integrate_protocol(HUB, Q0, 0.025, dt=1e-3, stride=10,
                                  stop_tol=0.0)
        assert traj.times[-1] == pytest.approx(0.025, abs=1e-12)

    def test_early_stop(self):
        traj = integrate_protocol(HUB, Q0, 50.0, dt=1e-3, stride=10,
                                  stop_tol=1.0)
        alpha = consensus_point(Q0)
        assert traj.times[-1] < 50.0
        assert np.max(np.abs(traj.states[-1] - alpha)) <= 1.0
        # One sample earlier the state was still outside the tolerance.
        assert np.max(np.abs(traj.states[-2] - alpha)) > 1.0

    def test_early_stop_measures_offsets_below_the_centroid(self):
        # Offsets -2, 1, 1 from the centroid 2 all decay like exp(-3t)
        # on the complete graph, so the spread is 2 exp(-3t): it drops
        # below 1 after ln(2) / 3 = 0.231, not at the first sample.
        net = Network(3, {(1, 2), (1, 3), (2, 3)})
        traj = integrate_protocol(net, [[0.0], [3.0], [3.0]], 1.0,
                                  dt=1e-3, stride=10, stop_tol=1.0)
        assert traj.times[-1] == pytest.approx(0.24, abs=1e-12)

    def test_column_sums_conserved(self):
        traj = integrate_protocol(HUB, Q0, 5.0, dt=1e-3, stop_tol=0.0)
        sums = traj.states.sum(axis=1)
        assert np.max(np.abs(sums - sums[0])) <= 1e-9

    def test_disagreement_decays_at_the_spectral_rate(self):
        lam2 = start_spectrum(HUB, Q0).lambda2
        traj = integrate_protocol(HUB, Q0, 3.0, dt=1e-3, stop_tol=0.0)
        alpha = consensus_point(Q0)
        r0 = np.linalg.norm(Q0 - alpha)
        for t, q in zip(traj.times, traj.states):
            bound = r0 * math.exp(-lam2 * t) * (1.0 + 1e-6) + 1e-12
            assert np.linalg.norm(q - alpha) <= bound

    def test_requires_connected_network(self):
        with pytest.raises(DisconnectedError):
            integrate_protocol(Network(4, {(1, 2), (3, 4)}), Q0, 1.0)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            integrate_protocol(HUB, Q0[:2], 1.0)
        with pytest.raises(DomainError):
            integrate_protocol(HUB, Q0, 0.0)
        with pytest.raises(DomainError):
            integrate_protocol(HUB, Q0, 1.0, dt=-1e-3)
        with pytest.raises(DomainError):
            integrate_protocol(HUB, Q0, 1.0, stride=0)

    def test_rejects_non_finite_horizon(self):
        with pytest.raises(DomainError, match="duration must be positive "
                                              "and finite, got inf"):
            integrate_protocol(HUB, Q0, math.inf)

    def test_rejects_non_finite_step(self):
        with pytest.raises(DomainError, match="step size must be positive "
                                              "and finite, got inf"):
            integrate_protocol(HUB, Q0, 1.0, dt=math.inf)

    @pytest.mark.parametrize("duration, dt", [(1e308, 1e-3),
                                              (1.0, 5e-324)])
    def test_rejects_a_step_count_that_overflows(self, duration, dt):
        # round(inf) would escape as OverflowError
        with pytest.raises(DomainError, match="duration / dt = .* is not "
                                              "finite"):
            integrate_protocol(HUB, Q0, duration, dt=dt)

    @pytest.mark.parametrize("duration, stop_tol", [(50.0, 1e-4),
                                                    (0.032, 0.0)],
                             ids=["early stop", "horizon off stride"])
    def test_records_every_sample_up_to_the_stop(self, duration, stop_tol):
        """The samples are t = 0, every 10th step and the last: those of
        the run to its horizon, up to the first whose spread is below
        stop_tol."""
        traj = integrate_protocol(HUB, Q0, duration, stop_tol=stop_tol)
        full = integrate_protocol(HUB, Q0, duration, stop_tol=0.0)
        spreads = np.max(np.abs(full.states - consensus_point(Q0)),
                         axis=(1, 2))
        if stop_tol:
            stop = int(np.argmax(spreads < stop_tol))
            assert 0 < stop and traj.times[-1] < 20.0
        else:
            # steps 10, 20 and 30, then the last, step 32
            stop = 4
            assert full.times.tolist() == [0.0, 0.01, 0.02, 0.03, 0.032]
        assert traj.times.tobytes() == full.times[:stop + 1].tobytes()
        assert traj.states.tobytes() == full.states[:stop + 1].tobytes()

    def test_rejects_state_without_coordinates(self):
        # An (n, 0) state has no spread to check at the recorded samples.
        with pytest.raises(DomainError, match="no coordinates"):
            integrate_protocol(HUB, Q0[:, :0], 1.0)

    @pytest.mark.parametrize("policy", [None, DistanceWeighted(10.0)],
                             ids=["unweighted", "distance"])
    def test_rejects_non_finite_start(self, policy):
        # A bad start is named as such before any step, whatever the
        # weights, not reported as a later divergence or a bad Laplacian.
        net = HUB if policy is None else Network(4, HUB.edges, policy)
        q0 = Q0.copy()
        q0[2, 1] = np.nan
        with pytest.raises(DomainError, match="non-finite number"):
            integrate_protocol(net, q0, 1.0)

    def test_growing_graph_diverges_mid_run(self):
        # dt passes the stability guard on L(0), but the proximity rule
        # adds edges, lambda_max grows past 2.785 / dt, and the state
        # overflows; the check at the recorded samples stops the run.
        net, q0 = ring24()
        lam_max = start_spectrum(net, q0).lambda_max
        dt = 0.9 * 2.785 / lam_max
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError,
                               match=r"non-finite at t=0\.166016$"):
                integrate_protocol(net, q0, 3.0, dt=dt, stride=10)

    def test_rejects_horizon_shorter_than_half_a_step(self):
        with pytest.raises(DomainError, match="shorter than half a step"):
            integrate_protocol(HUB, Q0, 4e-4, dt=1e-3)
        traj = integrate_protocol(HUB, Q0, 6e-4, dt=1e-3)
        assert traj.times.tolist() == [0.0, 1e-3]

    @pytest.mark.parametrize("policy", ["unweighted", "static"])
    def test_static_step_matches_reference_loop_bit_for_bit(self, policy):
        # A fixed Laplacian folds the RK4 step into one propagator
        # matrix; a plain loop of `prop @ q` must reproduce every
        # recorded state exactly.
        net = HUB
        if policy == "static":
            net = Network(4, HUB.edges, StaticWeights(
                {e: 1.0 / (k + 3) for k, e in enumerate(sorted(HUB.edges))}))
        dt = 1e-3
        traj = integrate_protocol(net, Q0, 0.2, dt=dt, stride=1,
                                  stop_tol=0.0)
        m = weighted_laplacian_at(net, Q0).matrix
        c2 = dt * dt / 2.0
        c3 = dt * c2 / 3.0
        prop = np.eye(4) - dt * m + c2 * (m @ m) - c3 * (m @ m @ m) \
            + dt * c3 / 4.0 * (m @ m @ m @ m)
        q = np.array(Q0, dtype=float)
        assert len(traj.states) == 201
        for got in traj.states:
            assert np.array_equal(got, q)
            q = prop @ q

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n=st.integers(min_value=2, max_value=6))
    def test_invariants_on_random_networks(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_connected(seed, n)
        q0 = rng.uniform(-5.0, 5.0, size=(n, 3))
        traj = integrate_protocol(net, q0, 0.5, dt=1e-2, stride=5,
                                  stop_tol=0.0)
        alpha = consensus_point(q0)
        sums = traj.states.sum(axis=1)
        assert np.max(np.abs(sums - sums[0])) <= 1e-9
        energies = [lyapunov(q, alpha) for q in traj.states]
        assert all(b - a <= 1e-12 for a, b in zip(energies, energies[1:]))


class TestMovingNetwork:
    # The long proximity run is shared with the acceptance tests through
    # the session fixture; its config matches TREE + Q0 + threshold 10.
    def net(self):
        return Network(4, TREE.edges, DistanceWeighted(threshold=10.0))

    def test_edge_growth_is_logged_and_monotone(self, run_time_varying):
        log = run_time_varying.traj.laplacian_log
        assert log[0][0] == 0.0
        times = [t for t, _ in log]
        assert times == sorted(times)
        edge_counts = [len(lap.source.edges) for _, lap in log]
        assert edge_counts[0] == 3
        assert all(b > a for a, b in zip(edge_counts, edge_counts[1:]))
        assert edge_counts[-1] == 6  # ends complete on 4 vertices

    def test_logged_snapshots_match_states(self):
        # stride=1 records every step, so each addition time is a sample
        # and the logged matrix can be rebuilt from the recorded state.
        traj = integrate_protocol(self.net(), Q0, 0.15, dt=1e-3, stride=1,
                                  stop_tol=0.0)
        assert len(traj.laplacian_log) == 4  # t=0 plus three additions
        ts = np.asarray(traj.times)
        for t, lap in traj.laplacian_log:
            k = int(np.argmin(np.abs(ts - t)))
            assert abs(ts[k] - t) <= 1e-12
            fresh = weighted_laplacian_at(lap.source, traj.states[k])
            assert np.array_equal(fresh.matrix, lap.matrix)

    @pytest.mark.parametrize("case", ["tree4", "planar4", "line4",
                                      "ring24"])
    def test_step_matches_reference_loop_bit_for_bit(self, case):
        # The fast step reuses buffers and a coordinate-major difference
        # tensor whose squares it sums in place, one plane per extra
        # coordinate; a plain loop over weighted_laplacian_at must
        # reproduce every recorded state exactly, while the graph grows
        # and after it is complete, with r = 3, 2 and 1 coordinates.
        # line4 keeps Q0's y column: on its x column every pair starts
        # within the threshold, so the graph is complete at t=0.
        if case == "ring24":
            (net, q0), duration = ring24(), 0.3
        else:
            cols = {"tree4": slice(0, 3), "planar4": slice(0, 2),
                    "line4": slice(1, 2)}[case]
            net, q0, duration = self.net(), Q0[:, cols], 0.15
        dt = 1e-3
        traj = integrate_protocol(net, q0, duration, dt=dt, stride=1,
                                  stop_tol=0.0)
        n = net.n
        edge_counts = [len(lap.source.edges) for _, lap in traj.laplacian_log]
        assert len(edge_counts) > 2  # the graph grows more than once
        assert edge_counts[-1] == n * (n - 1) // 2  # and ends complete
        # Some steps run on the complete graph.
        assert traj.laplacian_log[-1][0] < duration - 10 * dt

        c2 = dt * dt / 2.0
        c3 = dt * c2 / 3.0
        signed = np.array([-dt, c2, -c3, dt * c3 / 4.0])
        q = np.array(q0, dtype=float)
        ref = [q.copy()]
        for _ in range(len(traj.times) - 1):
            lap = weighted_laplacian_at(net, q)
            net = lap.source
            m = lap.matrix
            p0 = m @ q
            p1 = m @ p0
            p2 = m @ p1
            p3 = m @ p2
            acc = signed @ np.stack([p0, p1, p2, p3]).reshape(4, -1)
            q = q + acc.reshape(q.shape)
            ref.append(q.copy())
        assert len(net.edges) == n * (n - 1) // 2
        for got, want in zip(traj.states, ref):
            assert np.array_equal(got, want)

    def test_scheme_is_first_order(self):
        # L(q) is held fixed across each step, so the distance-weighted
        # scheme is first order, not RK4's fourth: halving dt halves the
        # error at t = 0.5 against RK4 re-weighting L at every stage.
        net = Network(4, itertools.combinations(range(1, 5), 2),
                      DistanceWeighted(threshold=10.0))

        def rate(t, q):
            return -(weighted_laplacian_at(net, q).matrix @ q)

        ref = Q0.copy()
        for k in range(5000):
            ref = rk4_step(rate, ref, k * 1e-4, 1e-4)
        errs = []
        for dt in (2e-3, 1e-3, 5e-4):
            traj = integrate_protocol(net, Q0, 0.5, dt=dt, stride=10**6,
                                      stop_tol=0.0)
            assert traj.times[-1] == pytest.approx(0.5, abs=1e-12)
            errs.append(np.max(np.abs(traj.states[-1] - ref)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 0.9 <= math.log2(coarse / fine) <= 1.1

    def test_initial_spectrum_self_consistent(self):
        lap = weighted_laplacian_at(self.net(), Q0)
        w, _ = sym_eigen(lap.matrix)
        # Independent check: the trace is twice the total edge weight.
        total = 2.0 * sum(
            np.linalg.norm(Q0[i - 1] - Q0[j - 1]) for i, j in TREE.edges)
        assert abs(w.sum() - total) <= 1e-10
        assert np.allclose(
            w, [0.0, 6.23951, 19.38522, 37.65492], atol=1e-4)


class TestDiagnostics:
    def test_consensus_point_is_the_mean(self):
        assert np.allclose(consensus_point(Q0), Q0.mean(axis=0), atol=0.0)
        with pytest.raises(DomainError):
            consensus_point(np.zeros(3))

    def test_lyapunov_formula(self):
        q = np.array([[1.0, 2.0], [3.0, 4.0]])
        qs = np.array([2.0, 3.0])
        assert lyapunov(q, qs) == pytest.approx(0.5 * 4.0, abs=0.0)

    def test_convergence_rate_of_hub_graph(self):
        assert start_spectrum(HUB, Q0).lambda2 == pytest.approx(1.0,
                                                                abs=1e-10)

    def test_convergence_rate_rejects_disconnected(self):
        # start_spectrum reports the split graph and its missing gap;
        # the protocol's start guard raises.
        net, q = Network(3, {(1, 2)}), np.zeros((3, 1))
        spec = start_spectrum(net, q)
        assert not spec.connected
        assert spec.lambda2 == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DisconnectedError,
                           match="network is not connected at t=0"):
            spec.check(1e-3)
        with pytest.raises(DisconnectedError):
            integrate_protocol(net, q, 1.0, dt=1e-3)

    def test_start_guard_eigendecomposes_once(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(1)
            return sym_eigen(a)

        monkeypatch.setattr(consensus, "sym_eigen", counted)
        net = Network(4, TREE.edges, DistanceWeighted(threshold=10.0))
        integrate_protocol(net, Q0, 0.01, dt=1e-3)
        assert len(calls) == 1

    def test_straightness_of_hub_agent(self):
        traj = integrate_protocol(HUB, Q0, 20.0, dt=1e-3, stop_tol=1e-6)
        assert straightness_residual(traj, 2) <= 1e-9
        assert straightness_residual(traj, 1) > 1e-2

    def test_straightness_agent_bounds(self):
        traj = integrate_protocol(HUB, Q0, 0.1, dt=1e-3, stop_tol=0.0)
        with pytest.raises(DomainError):
            straightness_residual(traj, 0)
        with pytest.raises(DomainError):
            straightness_residual(traj, 5)


def relabeled(net, perm):
    """net with its agent perm[k] renamed k + 1 (1-based labels)."""
    new = {old: k + 1 for k, old in enumerate(perm)}
    policy = net.policy
    if isinstance(policy, StaticWeights):
        policy = StaticWeights({tuple(sorted((new[i], new[j]))): w
                                for (i, j), w in policy.weights.items()})
    return Network(net.n, {(new[i], new[j]) for i, j in net.edges}, policy)


class TestSymmetry:
    """q' = -L q commutes with relabeling the agents (L -> P L P^T) and
    with translating all of them (L 1 = 0). So a relabeled or translated
    bundled run must record as many samples and topology changes as the
    run itself, and states that differ by rounding alone: BLAS sums in
    another order, and a shifted state rounds at its larger magnitude.
    The runs stop at 20 s at the latest.

    Every relabeling of the four agents is checked, and so are random
    integer shifts of at most 100 per axis beside the fixed SHIFT; these
    many runs stop 2_5_2 at 1 s, which still holds its three edge
    additions. Shifts of up to 1000 reached 2.2e-10 on 2_4_1, past the
    tolerance, since the rounding grows with the shifted state.

    The largest differences measured over the three scenarios were
    8.3e-13 for the relabelings (2_4_1) and 2.6e-11 for the translations
    (2_4_1, over 40 random shifts a scenario); each tolerance below is
    about 12 and 8 times that.
    """

    SHIFT = np.array([100.0, -50.0, 7.0])
    RELABEL_TOL = 1e-11
    TRANSLATE_TOL = 2e-10
    SCENARIOS = ["scenario_2_4_1", "scenario_2_5_1", "scenario_2_5_2"]
    # the horizon of the many relabeled and shifted runs of a scenario
    CAP = {"scenario_2_4_1": 20.0, "scenario_2_5_1": 20.0,
           "scenario_2_5_2": 1.0}

    @staticmethod
    def run(name, perm=None, shift=0.0, cap=20.0):
        """The protocol run of scenario name, stopped at cap, with its
        agents translated by shift and, given perm, its agent perm[k]
        renamed k + 1."""
        cfg = load_config(scenario_path(name))
        net, q0 = cfg.network, cfg.agents[:, :3] + shift
        if perm is not None:
            net = relabeled(net, perm)
            q0 = q0[[old - 1 for old in perm]]
        return integrate_protocol(net, q0, min(cfg.T, cap), cfg.dt,
                                  cfg.stride, cfg.stop_tol)

    @staticmethod
    def assert_same_events(a, b):
        assert len(a.times) == len(b.times)
        assert len(a.laplacian_log) == len(b.laplacian_log)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_relabeling(self, name):
        base = _capped_base(name)
        if name == "scenario_2_5_2":
            # L(0) and the Laplacians of its three edge additions
            assert len(base.laplacian_log) == 4
        for perm in itertools.permutations(range(1, 5)):
            moved = self.run(name, perm, cap=self.CAP[name])
            self.assert_same_events(base, moved)
            undone = base.states[:, [old - 1 for old in perm]]
            assert np.max(np.abs(moved.states - undone)) \
                <= self.RELABEL_TOL, perm

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_translation(self, name):
        self.assert_translates(self.run(name), name, self.SHIFT, 20.0)

    @pytest.mark.parametrize("name", SCENARIOS)
    @given(shift=st.lists(st.integers(-100, 100), min_size=3, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_integer_translation(self, name, shift):
        self.assert_translates(_capped_base(name), name,
                               np.array(shift, dtype=float), self.CAP[name])

    def assert_translates(self, base, name, shift, cap):
        """base, the run of name stopped at cap, commutes with shift."""
        moved = self.run(name, shift=shift, cap=cap)
        self.assert_same_events(base, moved)
        assert np.max(np.abs(moved.states - shift - base.states)) \
            <= self.TRANSLATE_TOL


@functools.lru_cache(maxsize=None)
def _capped_base(name):
    """The run of name over TestSymmetry.CAP, which every relabeling and
    random shift of it is compared to."""
    return TestSymmetry.run(name, cap=TestSymmetry.CAP[name])
