"""Unit checks for mission configs, artifacts, and the CLI."""

import json
import math

import numpy as np
import pytest

from quadswarm.cli import main
from quadswarm.consensus import integrate_protocol
from quadswarm.errors import (DimensionError, DomainError, InfeasibleError,
                              IoError, ParseError, ValidationError)
from quadswarm.mission import (compare_trajectories, export_csv, load_config,
                               run_mission, _max_cross_track)
from quadswarm.network import (DistanceWeighted, Network, StaticWeights,
                               Unweighted)
from quadswarm.planner import hover_schedule
from quadswarm.quad import default_params, hover_state, simulate

from conftest import scenario_path

BASE = """\
[mission]
mode = particle
T = 10
[network]
n = 2
edges = 1-2
[agents]
agent1 = 0, 0, 0
agent2 = 1, 1, 1
"""


def write_cfg(tmp_path, text, name="mission.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadConfig:
    def test_bundled_scenarios_load(self):
        for name in ("scenario_2_4_1", "scenario_2_5_1", "scenario_2_5_2",
                     "scenario_4_2_1", "scenario_4_2_2"):
            cfg = load_config(scenario_path(name))
            assert cfg.network.n == len(cfg.agents)

    def test_minimal_config(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, BASE))
        assert cfg.mode == "particle"
        assert cfg.T == 10.0
        assert cfg.dt == 1e-3 and cfg.stride == 10  # defaults
        assert cfg.agents.shape == (2, 6)
        assert np.array_equal(cfg.agents[1], [1, 1, 1, 0, 0, 0])
        assert isinstance(cfg.network.policy, Unweighted)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_config(tmp_path / "nope.cfg")

    def test_unknown_section_named(self, tmp_path):
        path = write_cfg(tmp_path, BASE + "[weather]\nwind = 3\n")
        with pytest.raises(ParseError, match="weather"):
            load_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write_cfg(tmp_path, BASE.replace("T = 10", "T = 10\nfoo = 1"))
        with pytest.raises(ParseError, match="foo"):
            load_config(path)

    def test_non_numeric_value_named(self, tmp_path):
        path = write_cfg(tmp_path, BASE.replace("T = 10", "T = soon"))
        with pytest.raises(ParseError, match="T"):
            load_config(path)

    def test_bad_edge_syntax(self, tmp_path):
        path = write_cfg(tmp_path, BASE.replace("edges = 1-2",
                                                "edges = 1+2"))
        with pytest.raises(ParseError, match="edge"):
            load_config(path)

    def test_missing_section(self, tmp_path):
        text = "[mission]\nmode = particle\nT = 1\n"
        with pytest.raises(ValidationError, match="network"):
            load_config(write_cfg(tmp_path, text))

    def test_bad_mode(self, tmp_path):
        path = write_cfg(tmp_path, BASE.replace("mode = particle",
                                                "mode = boat"))
        with pytest.raises(ValidationError, match="mode"):
            load_config(path)

    def test_missing_agent(self, tmp_path):
        path = write_cfg(tmp_path, BASE.replace("agent2 = 1, 1, 1", ""))
        with pytest.raises(ValidationError, match="agent2"):
            load_config(path)

    def test_agent_needs_three_or_six_numbers(self, tmp_path):
        path = write_cfg(tmp_path, BASE.replace("agent2 = 1, 1, 1",
                                                "agent2 = 1, 1"))
        with pytest.raises(ValidationError, match="agent2"):
            load_config(path)

    def test_missing_T_without_maneuvers(self, tmp_path):
        path = write_cfg(tmp_path, BASE.replace("T = 10\n", ""))
        with pytest.raises(ValidationError, match="T"):
            load_config(path)

    def test_static_weights(self, tmp_path):
        text = BASE.replace("edges = 1-2",
                            "edges = 1-2\nweights = static\nweight_1_2 = 4.5")
        cfg = load_config(write_cfg(tmp_path, text))
        assert isinstance(cfg.network.policy, StaticWeights)
        assert cfg.network.policy.weight(2, 1) == 4.5

    def test_stray_weight_keys_rejected(self, tmp_path):
        text = BASE.replace("edges = 1-2", "edges = 1-2\nweight_1_2 = 4.5")
        with pytest.raises(ValidationError, match="static"):
            load_config(write_cfg(tmp_path, text))

    def test_initial_distance_weights(self, tmp_path):
        text = BASE.replace("edges = 1-2",
                            "edges = 1-2\nweights = initial-distance")
        cfg = load_config(write_cfg(tmp_path, text))
        assert isinstance(cfg.network.policy, StaticWeights)
        assert cfg.network.policy.weight(1, 2) == pytest.approx(
            math.sqrt(3.0), abs=1e-12)

    def test_distance_weights(self, tmp_path):
        text = BASE.replace("edges = 1-2",
                            "edges = 1-2\nweights = distance\nthreshold = 4")
        cfg = load_config(write_cfg(tmp_path, text))
        assert isinstance(cfg.network.policy, DistanceWeighted)
        assert cfg.network.policy.threshold == 4.0

    def test_unknown_weights_value(self, tmp_path):
        text = BASE.replace("edges = 1-2", "edges = 1-2\nweights = magic")
        with pytest.raises(ValidationError, match="weights"):
            load_config(write_cfg(tmp_path, text))

    def test_params_override(self, tmp_path):
        text = BASE + "[params]\nm = 1.25\n"
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.params.m == 1.25

    def test_bad_params_rejected(self, tmp_path):
        text = BASE + "[params]\nm = -1\n"
        with pytest.raises(ValidationError, match="params"):
            load_config(write_cfg(tmp_path, text))

    def test_maneuvers_require_quad_mode(self, tmp_path):
        text = BASE + "[maneuvers]\nleg1 = yaw, 1.0, 2.0\n"
        with pytest.raises(ValidationError, match="quad"):
            load_config(write_cfg(tmp_path, text))

    def test_maneuvers_require_single_agent(self, tmp_path):
        text = BASE.replace("mode = particle", "mode = quad") \
            + "[maneuvers]\nleg1 = yaw, 1.0, 2.0\n"
        with pytest.raises(ValidationError, match="single"):
            load_config(write_cfg(tmp_path, text))

    def test_maneuvers_parse_in_leg_order(self, tmp_path):
        text = """\
[mission]
mode = quad
[network]
n = 1
[agents]
agent1 = 0, 0, 0
[maneuvers]
leg2 = vertical, 1.0, 2.0
leg1 = hover, 0, 1.0
leg10 = yaw, 0.5, 2.0
"""
        cfg = load_config(write_cfg(tmp_path, text))
        assert [m.kind for m in cfg.maneuvers] == ["hover", "vertical",
                                                   "yaw"]
        assert cfg.T is None

    def test_unknown_maneuver_kind(self, tmp_path):
        text = """\
[mission]
mode = quad
[network]
n = 1
[agents]
agent1 = 0, 0, 0
[maneuvers]
leg1 = teleport, 1.0, 2.0
"""
        with pytest.raises(ValidationError, match="teleport"):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("name, old, new, key", [
        ("scenario_2_4_1", "agent1 = 4, 17, 24", "agent1 = nan, 0, 0",
         "agent1"),
        ("scenario_2_4_1", "agent1 = 4, 17, 24", "agent1 = inf, 0, 0",
         "agent1"),
        ("scenario_2_4_1", "T = 50.0", "T = inf", "T"),
        ("scenario_4_2_1", "leg3 = bodyX, 5, 4", "leg3 = bodyX, nan, 4",
         "leg3"),
    ], ids=["agent-nan", "agent-inf", "T-inf", "leg-nan"])
    def test_non_finite_numbers_rejected(self, tmp_path, name, old, new,
                                         key):
        text = scenario_path(name).read_text(encoding="utf-8")
        assert old in text
        path = write_cfg(tmp_path, text.replace(old, new))
        with pytest.raises(ValidationError, match=f"'{key}'"):
            load_config(path)
        assert main(["validate", str(path)]) == 2

    def test_initial_distance_edge_out_of_range(self, tmp_path):
        text = BASE.replace("edges = 1-2",
                            "edges = 1-3\nweights = initial-distance")
        with pytest.raises(ValidationError, match="1..2"):
            load_config(write_cfg(tmp_path, text))

    def test_quad_agents_must_be_valid_states(self, tmp_path):
        text = BASE.replace("mode = particle", "mode = quad").replace(
            "agent2 = 1, 1, 1", "agent2 = 1, 1, 1, 0, 1.6, 0")
        with pytest.raises(ValidationError, match="agent2"):
            load_config(write_cfg(tmp_path, text))


class TestExportCsv:
    def particle(self):
        net = Network(2, {(1, 2)})
        q0 = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        return integrate_protocol(net, q0, 0.05, dt=1e-2, stride=1,
                                  stop_tol=0.0)

    def test_consensus_header_and_shape(self, tmp_path):
        path = tmp_path / "run.csv"
        export_csv(self.particle(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,x1,y1,z1,x2,y2,z2"
        assert len(lines) == 1 + 6  # header + t=0 and five steps
        assert lines[1].startswith("0,0,0,0,1,1,1")

    def test_generic_dimension_header(self, tmp_path):
        net = Network(2, {(1, 2)})
        traj = integrate_protocol(net, np.array([[0.0, 1.0], [2.0, 3.0]]),
                                  0.02, dt=1e-2, stride=1, stop_tol=0.0)
        path = tmp_path / "run.csv"
        export_csv(traj, path)
        head = path.read_text(encoding="utf-8").splitlines()[0]
        assert head == "t,q1c1,q1c2,q2c1,q2c2"

    def test_quad_header(self, tmp_path):
        p = default_params()
        traj = simulate(hover_state(), hover_schedule(p, 0.02), p, 0.02,
                        dt=1e-2, stride=1)
        path = tmp_path / "run.csv"
        export_csv(traj, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("t,b1,b2,b3,phi,theta,psi,"
                            "v1,v2,v3,O1,O2,O3,w1,w2,w3,w4,thrust")
        assert len(lines) == 1 + 3

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(self.particle(), a)
        export_csv(self.particle(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_unknown_payload(self, tmp_path):
        with pytest.raises(DomainError):
            export_csv(object(), tmp_path / "x.csv")


class TestCrossTrack:
    def test_points_on_segment(self):
        a, b = np.zeros(3), np.array([10.0, 0.0, 0.0])
        pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        assert _max_cross_track(pts, a, b) == 0.0

    def test_offset_point(self):
        a, b = np.zeros(3), np.array([10.0, 0.0, 0.0])
        pts = np.array([[5.0, 2.0, 0.0]])
        assert _max_cross_track(pts, a, b) == pytest.approx(2.0, abs=1e-12)

    def test_beyond_endpoints_measures_to_endpoint(self):
        a, b = np.zeros(3), np.array([10.0, 0.0, 0.0])
        pts = np.array([[13.0, 4.0, 0.0]])
        assert _max_cross_track(pts, a, b) == pytest.approx(5.0, abs=1e-12)

    def test_degenerate_segment(self):
        a = np.array([1.0, 1.0, 1.0])
        pts = np.array([[1.0, 1.0, 4.0]])
        assert _max_cross_track(pts, a, a) == pytest.approx(3.0, abs=1e-12)


class TestCompare:
    def test_count_mismatch(self):
        net = Network(2, {(1, 2)})
        q0 = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        particle = integrate_protocol(net, q0, 0.05, dt=1e-2, stop_tol=0.0)
        with pytest.raises(DimensionError):
            compare_trajectories(particle, [])


class TestRunMission:
    def test_particle_mission_artifacts(self, tmp_path):
        cfg = load_config(scenario_path("scenario_2_4_1"))
        report = run_mission(cfg, out_dir=tmp_path)
        dest = tmp_path / cfg.out
        assert (dest / "particle.csv").exists()
        assert (dest / "report.json").exists()
        assert not (dest / "FAILED").exists()
        on_disk = json.loads((dest / "report.json").read_text())
        assert on_disk == report.to_dict()
        assert on_disk["mode"] == "particle"
        assert len(on_disk["agents"]) == 4
        assert on_disk["eigenvalues"][0]["t"] == 0.0

    def test_runs_are_reproducible(self, tmp_path):
        cfg = load_config(scenario_path("scenario_2_4_1"))
        run_mission(cfg, out_dir=tmp_path / "one")
        run_mission(cfg, out_dir=tmp_path / "two")
        a = (tmp_path / "one" / cfg.out / "particle.csv").read_bytes()
        b = (tmp_path / "two" / cfg.out / "particle.csv").read_bytes()
        assert a == b

    def test_scripted_quad_mission(self, tmp_path):
        text = """\
[mission]
mode = quad
out = climb
[network]
n = 1
[agents]
agent1 = 0, 0, 0
[maneuvers]
leg1 = vertical, 1.0, 2.0
"""
        cfg = load_config(write_cfg(tmp_path, text))
        report = run_mission(cfg, out_dir=tmp_path)
        assert report.mode == "quad"
        assert report.rendezvous_point is None
        assert report.agents[0].flight_time == pytest.approx(2.0, abs=1e-9)
        assert abs(report.agents[0].final_position[2] - 1.0) <= 1e-4
        assert (tmp_path / "climb" / "quad_agent1.csv").exists()

    def test_failed_marker(self, tmp_path):
        text = """\
[mission]
mode = quad
out = doomed
[network]
n = 1
[agents]
agent1 = 0, 0, 0
[maneuvers]
leg1 = bodyX, 5000, 4
"""
        cfg = load_config(write_cfg(tmp_path, text))
        with pytest.raises(InfeasibleError):
            run_mission(cfg, out_dir=tmp_path)
        marker = tmp_path / "doomed" / "FAILED"
        assert marker.exists()
        assert "InfeasibleError" in marker.read_text()

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWARM_OUT_DIR", str(tmp_path))
        cfg = load_config(scenario_path("scenario_2_4_1"))
        run_mission(cfg)
        assert (tmp_path / cfg.out / "report.json").exists()


class TestCli:
    def test_validate_ok(self, capsys):
        rc = main(["validate", str(scenario_path("scenario_2_4_1"))])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")
        assert "agents=4" in out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[mission]\nmode = particle\n")
        rc = main(["validate", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_run_missing_file(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "absent.cfg")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_run_particle_scenario(self, tmp_path, capsys):
        rc = main(["run", str(scenario_path("scenario_2_4_1")),
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rendezvous point:" in out
        assert (tmp_path / "scenario_2_4_1" / "particle.csv").exists()

    def test_run_mode_and_dt_overrides(self, tmp_path, capsys):
        rc = main(["run", str(scenario_path("scenario_2_5_1")),
                   "--mode", "particle", "--dt", "0.002",
                   "--out", str(tmp_path)])
        assert rc == 0
        csv = (tmp_path / "scenario_2_5_1" / "particle.csv")
        lines = csv.read_text(encoding="utf-8").splitlines()
        t0, t1 = (float(line.split(",")[0]) for line in lines[1:3])
        assert t1 - t0 == pytest.approx(0.02, abs=1e-12)  # dt 2e-3, stride 10

    def test_rejects_bad_dt_override(self, capsys):
        rc = main(["run", str(scenario_path("scenario_2_4_1")),
                   "--dt", "-0.1"])
        assert rc == 2
        rc = main(["run", str(scenario_path("scenario_2_4_1")),
                   "--dt", "inf"])
        assert rc == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_fails(self, tmp_path, capsys):
        """A step far past RK4's stability bound turns the protocol's
        numbers into NaN: the run exits 1 with a FAILED marker and
        writes no report.json, which would otherwise hold bare NaNs."""
        rc = main(["run", str(scenario_path("scenario_2_5_2")),
                   "--dt", "0.5", "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        dest = tmp_path / "scenario_2_5_2"
        assert "DivergenceError" in (dest / "FAILED").read_text()
        assert not (dest / "report.json").exists()

    def test_list_scenarios(self, capsys):
        rc = main(["list-scenarios"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.endswith(".cfg") for line in lines)
