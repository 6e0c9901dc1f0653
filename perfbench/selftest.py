"""Tests of the benchmark itself.

Run from the repository root with

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the repository's own test run:
the counter checks fly the full compare-3drone mission (about 20 s).
"""

import json
import math
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from quadswarm import mission, planner, quad  # noqa: E402
from quadswarm.network import is_connected  # noqa: E402

SEEDS = range(1, 21)


def _write(tmp_path, text):
    path = tmp_path / "swarm.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_swarm_config_is_a_function_of_its_seeds():
    assert workloads.swarm_config(5) == workloads.swarm_config(5)
    assert workloads.swarm_config(5, 3) == workloads.swarm_config(5, 3)
    texts = {workloads.swarm_config(s) for s in SEEDS}
    assert len(texts) == len(SEEDS)
    assert workloads.swarm_config(5, workloads.HELD_OUT_SWARM_SEED) \
        != workloads.swarm_config(5)


@pytest.mark.parametrize("swarm_seed", [workloads.DEFAULT_SWARM_SEED,
                                        workloads.HELD_OUT_SWARM_SEED])
def test_every_seed_gives_a_connected_distance_weighted_ring(
        tmp_path, swarm_seed):
    for seed in SEEDS:
        config = mission.load_config(
            _write(tmp_path, workloads.swarm_config(seed, swarm_seed)))
        net = config.network
        assert config.mode == "particle"
        assert net.n == workloads.SWARM_N
        assert type(net.policy).__name__ == "DistanceWeighted"
        assert net.policy.threshold == 10.0
        assert len(net.edges) == net.n
        assert all(net.degree(i) == 2 for i in range(1, net.n + 1))
        assert is_connected(net)


def _ring_distances(config):
    pos = config.agents[:, :3]
    return sorted(round(float(math.dist(pos[i - 1], pos[j - 1])), 9)
                  for i, j in config.network.edges)


def test_run_seed_moves_the_swarm_rigidly(tmp_path):
    """Run seeds change the input bytes, not the geometry, so every run
    seed asks for the same work."""
    base = None
    for seed in SEEDS:
        config = mission.load_config(
            _write(tmp_path, workloads.swarm_config(seed)))
        dists = _ring_distances(config)
        pos = config.agents[:, :3]
        pair = sorted(round(float(math.dist(a, b)), 9)
                      for k, a in enumerate(pos) for b in pos[k + 1:])
        if base is None:
            base = dists, pair
        assert (dists, pair) == base
    held_out = mission.load_config(_write(tmp_path, workloads.swarm_config(
        1, workloads.HELD_OUT_SWARM_SEED)))
    assert _ring_distances(held_out) != base[0]


def test_instrument_restores_every_binding():
    modules = {"mission": mission, "planner": planner}
    before = {(m, a): getattr(modules[m], a)
              for m, a, _, _ in spans._BINDINGS}
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Tracer(), modules):
            assert mission.simulate is not before[("mission", "simulate")]
            raise RuntimeError("leave the block early")
    after = {(m, a): getattr(modules[m], a) for m, a in before}
    assert after == before


def test_speed_sampler_interleaves_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        end = time.perf_counter() + 10 * speed.INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.units) >= 6
    assert 0 < sampler.handler_s < sum(sampler.units)
    assert min(sampler.units) <= sampler.unit_s() <= max(sampler.units)


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ["mission.run_mission", 0.0, 10.0, None],
        ["mission.rendezvous_leg", 1.0, 7.0, 0],
        ["planner.schedule_for", 1.5, 6.5, 1],
        ["planner.simulate", 2.0, 6.0, 2],
        ["mission.simulate", 7.0, 9.0, 0],
    ]
    got = tracer.self_times()
    assert got == {"mission.self_s": 2.0, "planner.self_s": 2.0,
                   "quad.tune_sim_s": 4.0, "quad.flight_s": 2.0}
    assert sum(got.values()) == 10.0


def test_rk4_steps_matches_the_integrator(monkeypatch):
    p = quad.default_params()
    sched = planner.chain_schedules([planner.hover_schedule(p, 0.0105),
                                     planner.hover_schedule(p, 0.02)])
    calls = []
    real = quad._deriv
    monkeypatch.setattr(quad, "_deriv",
                        lambda *a: calls.append(1) or real(*a))
    for duration in (0.0305, 0.025, 0.0105):
        calls.clear()
        quad.simulate(quad.hover_state(), sched, p, duration, 1e-3)
        assert len(calls) == 4 * spans.rk4_steps(sched, duration, 1e-3)


def _traced_counters(name, tmp_path):
    config_path = workloads.prepare(name, 1, workloads.DEFAULT_SWARM_SEED,
                                    ROOT, tmp_path)
    tracer = spans.Tracer()
    with spans.instrument(tracer, {"mission": mission, "planner": planner}):
        config = mission.load_config(config_path)
        with tracer.span("mission.run_mission"):
            mission.run_mission(config, out_dir=tmp_path / "out")
    problems, _ = workloads.check_artifacts(
        name, tmp_path / "out", workloads.initial_positions(config_path))
    assert problems == []
    return tracer.counters


def test_compare_counters_at_this_commit(tmp_path):
    counts = _traced_counters("compare-3drone", tmp_path)
    assert counts["planner.legs"] == 6
    assert counts["planner.sims"] == 34
    assert counts["planner.sims.bodyX"] == 31
    assert counts["planner.sims.yaw"] == 3
    assert counts["planner.sims.vertical"] == 0


def test_proximity_counters_at_this_commit(tmp_path):
    counts = _traced_counters("proximity-4agent", tmp_path)
    assert counts["consensus.steps"] == 150000
    assert counts["planner.sims"] == 0
    assert counts["quad.steps"] == 0


def _fake_artifacts(tmp_path, report, csv="t,x1\n0,1\n"):
    out = tmp_path / "out" / "run"
    out.mkdir(parents=True)
    (out / "report.json").write_text(report, encoding="utf-8")
    (out / "particle.csv").write_text(csv, encoding="utf-8")
    return tmp_path / "out"


def _particle_report(point, error):
    return json.dumps({"rendezvous_point": point, "agents": [
        {"agent": 1, "particle_final_error": error},
        {"agent": 2, "particle_final_error": 0.5}]})


@pytest.mark.parametrize("report, csv, expect", [
    (_particle_report([1.0, 2.0, 3.0], 0.5), "t,x1\n0,1\n", None),
    (_particle_report([1.0, 2.0, 3.0], float("nan")), "t,x1\n0,1\n",
     "non-finite"),
    (_particle_report([1.0, 2.0, 3.0], 0.5), "t,x1\n0,inf\n", "non-finite"),
    (_particle_report([1.0, 2.0, 3.5], 0.5), "t,x1\n0,1\n", "centroid"),
    (_particle_report([1.0, 2.0, 3.0], 1.0), "t,x1\n0,1\n", "not below"),
])
def test_artifact_checks(tmp_path, report, csv, expect):
    out = _fake_artifacts(tmp_path, report, csv)
    problems, digests = workloads.check_artifacts(
        "proximity-4agent", out, [[0.0, 2.0, 3.0], [2.0, 2.0, 3.0]])
    assert set(digests) == {"run/report.json", "run/particle.csv"}
    if expect is None:
        assert problems == []
    else:
        assert len(problems) == 1 and expect in problems[0]


def test_compare_bounds_are_checked(tmp_path):
    report = json.dumps({"rendezvous_point": [5.0, 6.0, 0.0], "agents": [
        {"agent": 1, "quad_final_error": 0.05, "max_cross_track": 0.2}]})
    problems, _ = workloads.check_artifacts(
        "compare-3drone", _fake_artifacts(tmp_path, report), None)
    assert problems == ["agent 1: max_cross_track 0.2 > 0.1"]
