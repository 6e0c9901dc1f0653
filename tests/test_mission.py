"""Unit checks for mission configs, artifacts, and the CLI."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadswarm import consensus, mission, quad
from quadswarm.cli import main
from quadswarm.consensus import (ConsensusTrajectory, consensus_point,
                                 integrate_protocol, max_cross_track,
                                 start_spectrum)
from quadswarm.errors import (DivergenceError, DomainError, GimbalLockError,
                              InfeasibleError, IoError, ParseError,
                              SwarmError, ValidationError)
from quadswarm.mission import MODES, export_csv, load_config, run_mission
from quadswarm.network import (DistanceWeighted, Network, StaticWeights,
                               Unweighted)
from quadswarm.numerics import sym_eigen
from quadswarm.planner import hover_schedule, rendezvous_route
from quadswarm.quad import (QuadTrajectory, default_params, hover_state,
                            simulate)

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

SCRIPTED_CLIMB = """\
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
# three drones within 2 m of each other on an incomplete graph
PATH_3 = """\
[mission]
mode = quad
T = 20
[network]
n = 3
edges = 1-2, 2-3
[agents]
agent1 = 0, 0, 0
agent2 = 1, 0.5, 0.3
agent3 = 1.2, 1.4, 0.8
"""
# scenario_4_2_2's level starts on the path 1-2, 2-3 at m = 3.0: agent
# 1's route to its protocol endpoint passes the rotor ceiling
PATH_M3 = """\
[mission]
mode = quad
T = 50
[network]
n = 3
edges = 1-2, 2-3
[params]
m = 3.0
[agents]
agent1 = 0, 0, 0
agent2 = 0, 9, 0
agent3 = 15, 9, 0
"""


def ring_text():
    """A particle file of a 24-agent distance-weighted ring whose dt
    passes the check on L(0) but not the graph the proximity rule
    grows: the state overflows, and the check at the recorded samples
    stops the run at t = 0.166."""
    n = 24
    q0 = np.random.default_rng(5).uniform(0.0, 40.0, size=(n, 3))
    net = Network(n, {(i, i % n + 1) for i in range(1, n + 1)},
                  DistanceWeighted(10.0))
    dt = 0.9 * 2.785 / start_spectrum(net, q0).lambda_max
    edges = ", ".join(f"{i}-{i % n + 1}" for i in range(1, n + 1))
    agents = "".join(f"agent{i + 1} = {x!r}, {y!r}, {z!r}\n"
                     for i, (x, y, z) in enumerate(q0.tolist()))
    return (f"[mission]\nmode = particle\nT = 3.0\ndt = {dt!r}\n"
            f"[network]\nn = {n}\nedges = {edges}\nweights = distance\n"
            f"threshold = 10.0\n[agents]\n{agents}")


RING_FAILED = "DivergenceError: protocol state is non-finite at t=0.166016\n"


def write_cfg(tmp_path, text, name="mission.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def run_4_2_2(tmp_path_factory):
    """scenario_4_2_2 as shipped, run once: its config and the
    directory holding its artifacts, which tests only read."""
    cfg = load_config(scenario_path("scenario_4_2_2"))
    root = tmp_path_factory.mktemp("shipped")
    run_mission(cfg, out_dir=root)
    return cfg, root / cfg.out


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
        assert cfg.network.policy.weights == {(1, 2): 4.5}

    def test_stray_weight_keys_rejected(self, tmp_path):
        text = BASE.replace("edges = 1-2", "edges = 1-2\nweight_1_2 = 4.5")
        with pytest.raises(ValidationError, match="static"):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("weights", [
        "none", "static\nweight_1_2 = 4.5", "initial-distance"],
        ids=["none", "static", "initial-distance"])
    def test_stray_threshold_rejected(self, tmp_path, weights):
        """Only the distance policy reads threshold, so no other
        policy loads one, even a value distance would refuse."""
        text = BASE.replace(
            "edges = 1-2", f"edges = 1-2\nweights = {weights}\nthreshold = -3")
        path = write_cfg(tmp_path, text)
        with pytest.raises(ValidationError, match="^threshold is only valid "
                           "with weights = distance$"):
            load_config(path)
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("text, after, section, key", [
        (BASE, "agent2 = 1, 1, 1", "agents", "agent02"),
        (BASE, "agent2 = 1, 1, 1", "agents", "agent0"),
        (BASE, "agent2 = 1, 1, 1", "agents", "agent\u00b2"),
        (BASE, "weight_1_2 = 2", "network", "weight_01_02"),
        (BASE, "weight_1_2 = 2", "network", "weight_1_0"),
        (SCRIPTED_CLIMB, "leg1 = vertical, 1.0, 2.0", "maneuvers", "leg01"),
        (SCRIPTED_CLIMB, "leg1 = vertical, 1.0, 2.0", "maneuvers", "legacy"),
    ], ids=["agent02", "agent0", "agent-superscript", "weight_01_02",
            "weight_1_0", "leg01", "legacy"])
    def test_numbered_keys_have_one_spelling(self, tmp_path, text, after,
                                             section, key):
        """agent<k>, leg<k> and weight_<i>_<j> load only with each
        number >= 1 and written as str(int) writes it; any other
        spelling is an unknown key, not a silent twin of the real one."""
        text = text.replace(
            "edges = 1-2", "edges = 1-2\nweights = static\nweight_1_2 = 2")
        assert after in text
        path = write_cfg(tmp_path, text.replace(
            after, f"{after}\n{key} = " + after.split(" = ")[1]))
        with pytest.raises(ParseError,
                           match=f"^unknown key '{key}' in \\[{section}\\]$"):
            load_config(path)
        assert main(["validate", str(path)]) == 2

    def test_an_edge_weight_is_given_once(self, tmp_path):
        text = BASE.replace("edges = 1-2", "edges = 1-2\nweights = static\n"
                            "weight_1_2 = 2\nweight_2_1 = 7")
        with pytest.raises(ParseError, match="^key 'weight_2_1' in "
                           r"\[network\] repeats the weight of edge 1-2$"):
            load_config(write_cfg(tmp_path, text))

    def test_initial_distance_weights(self, tmp_path):
        text = BASE.replace("edges = 1-2",
                            "edges = 1-2\nweights = initial-distance")
        cfg = load_config(write_cfg(tmp_path, text))
        assert isinstance(cfg.network.policy, StaticWeights)
        assert cfg.network.policy.weights[(1, 2)] == pytest.approx(
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

    def test_params_keys_are_quad_params_fields(self, tmp_path):
        """Every QuadParams field is a [params] key; written at its
        default, each leaves the vehicle as default_params() has it."""
        default = default_params()
        lines = [f"{f.name} = " + ", ".join(
            repr(x) for x in np.atleast_1d(getattr(default, f.name)).tolist())
            for f in fields(default)]
        cfg = load_config(write_cfg(
            tmp_path, BASE + "[params]\n" + "\n".join(lines) + "\n"))
        for f in fields(default):
            assert np.array_equal(getattr(cfg.params, f.name),
                                  getattr(default, f.name)), f.name

    @pytest.mark.parametrize("key", ["J", "CD", "Ctau"])
    def test_params_vector_needs_three_numbers(self, tmp_path, key, capsys):
        path = write_cfg(tmp_path, BASE + f"[params]\n{key} = 1, 2\n")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: bad params: {key} must " \
            "be a 3-vector, got shape (2,)\n"

    def test_maneuvers_require_quad_mode(self, tmp_path):
        text = BASE + "[maneuvers]\nleg1 = yaw, 1.0, 2.0\n"
        with pytest.raises(ValidationError, match="quad"):
            load_config(write_cfg(tmp_path, text))

    def test_maneuvers_require_single_agent(self, tmp_path):
        text = BASE.replace("mode = particle", "mode = quad") \
            + "[maneuvers]\nleg1 = yaw, 1.0, 2.0\n"
        with pytest.raises(ValidationError, match="single"):
            load_config(write_cfg(tmp_path, text))

    def test_maneuvers_refuse_T(self, tmp_path):
        """A scripted flight runs for its legs' total duration, so a
        horizon T would be read by nothing."""
        path = write_cfg(tmp_path, SCRIPTED_CLIMB.replace(
            "mode = quad", "mode = quad\nT = 1"))
        with pytest.raises(ValidationError, match="^T is not valid with "
                           r"\[maneuvers\]"):
            load_config(path)
        assert main(["validate", str(path)]) == 2

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
        with pytest.raises(ValidationError,
                           match="^'leg1': unknown maneuver 'teleport'$"):
            load_config(write_cfg(tmp_path, text))
        text = text.replace("teleport, 1.0, 2.0", "hover, 0, 0")
        with pytest.raises(ValidationError,
                           match="^'leg1': duration must be positive$"):
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


_BUNDLED = ("scenario_2_4_1", "scenario_2_5_1", "scenario_2_5_2",
            "scenario_4_2_1", "scenario_4_2_2")
_FUZZ_VALUES = ("", "0", "-1", "1e400", "1e308", "5e-324", "nan", "abc",
                "2-2", "1-99", "1,2", "1, 2, 3", "0, 0, 0, 0, 1.6, 0", "1.5",
                "static", "distance", "initial-distance", "quad",
                "bodyX, 1, 0")
# (section, line): the line goes right after the section's header, and
# the section is appended when the file has none.
_FUZZ_INSERTS = (("params", "m = 0"), ("params", "J = 1, 2"),
                 ("params", "g = -9.81"), ("params", "Kr = 1e400"),
                 ("params", "CD = 0, 0, 0"), ("network", "weight_1_2 = 2"),
                 ("network", "weight_2_1 = -1"),
                 ("network", "weight_1_9 = 1"),
                 ("network", "weight_x_y = 1"),
                 ("network", "weights = static"),
                 ("maneuvers", "leg1 = hover, 0, 1"),
                 ("agents", "agent9 = 1, 2, 3"))
_MUTATION = st.one_of(
    st.tuples(st.just("replace"), st.integers(0, 99),
              st.sampled_from(_FUZZ_VALUES)),
    st.tuples(st.just("delete"), st.integers(0, 99), st.none()),
    st.tuples(st.just("insert"), st.none(), st.sampled_from(_FUZZ_INSERTS)),
    st.tuples(st.just("truncate"), st.integers(0, 99),
              st.integers(0, 40)),
)


def _mutate(lines, mutations):
    """Apply (kind, index, argument) edits to a config's lines."""
    lines = list(lines)
    for kind, at, arg in mutations:
        if kind == "insert":
            section, line = arg
            header = f"[{section}]"
            if header in lines:
                lines.insert(lines.index(header) + 1, line)
            else:
                lines += [header, line]
            continue
        live = [i for i, line in enumerate(lines)
                if line.strip() and not line.startswith("#")]
        if not live:
            continue
        i = live[at % len(live)]
        if kind == "delete":
            del lines[i]
        elif kind == "truncate":
            lines[i] = lines[i][:arg]
        elif "=" in lines[i]:
            lines[i] = lines[i].split("=", 1)[0] + "= " + arg
    return "\n".join(lines) + "\n"


class TestLoadConfigFuzz:
    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from(_BUNDLED),
           mutations=st.lists(_MUTATION, min_size=1, max_size=6))
    def test_mutated_scenarios_fail_only_as_config_errors(
            self, tmp_path_factory, name, mutations):
        lines = scenario_path(name).read_text(encoding="utf-8").splitlines()
        path = tmp_path_factory.mktemp("fuzz") / "mission.cfg"
        path.write_text(_mutate(lines, mutations), encoding="utf-8")
        try:
            load_config(path)
        except (ParseError, ValidationError):
            pass


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

    @pytest.mark.parametrize("kind", ["particle", "quad"])
    def test_rows_render_like_per_float_format(self, tmp_path, kind):
        # the table's one tolist() and one '%.17g' format per row must
        # give the bytes of format(x, '.17g') applied to each float on
        # its own, for either kind of run
        edge = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                -2.2250738585072014e-308, 2.225073858507201e-308,
                1.7976931348623157e308, 0.1, 1.0 / 3.0, -123456789.0,
                1e16, 1e17, 2.0 ** 53 + 2.0, 1e-5, 12345.678901234567]
        k = len(edge)
        times = np.array(edge[::-1])
        # 6 columns for two agents in 3-space; 12 + 4 + 1 for a quad
        table = np.array([np.roll(edge, i)[:6 if kind == "particle" else k]
                          for i in range(k)])
        if kind == "particle":
            traj = ConsensusTrajectory(times=times,
                                       states=table.reshape(k, 2, 3),
                                       laplacian_log=[], start=None)
            header = "t,x1,y1,z1,x2,y2,z2"
        else:
            traj = QuadTrajectory(times=times, states=table[:, :12],
                                  omegas=table[:, 12:16],
                                  thrust=table[:, 16])
            header = ("t,b1,b2,b3,phi,theta,psi,"
                      "v1,v2,v3,O1,O2,O3,w1,w2,w3,w4,thrust")
        path = tmp_path / "edge.csv"
        export_csv(traj, path)
        expect = header + "\n" + "".join(
            ",".join(format(float(v), ".17g") for v in (t, *row)) + "\n"
            for t, row in zip(times, table))
        assert path.read_bytes() == expect.encode("utf-8")
        assert b"-0," in path.read_bytes() and b"nan" in path.read_bytes()

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
        assert max_cross_track(pts, a, b) == 0.0

    def test_offset_point(self):
        a, b = np.zeros(3), np.array([10.0, 0.0, 0.0])
        pts = np.array([[5.0, 2.0, 0.0]])
        assert max_cross_track(pts, a, b) == pytest.approx(2.0, abs=1e-12)

    def test_beyond_endpoints_measures_to_endpoint(self):
        a, b = np.zeros(3), np.array([10.0, 0.0, 0.0])
        pts = np.array([[13.0, 4.0, 0.0]])
        assert max_cross_track(pts, a, b) == pytest.approx(5.0, abs=1e-12)

    def test_degenerate_segment(self):
        a = np.array([1.0, 1.0, 1.0])
        pts = np.array([[1.0, 1.0, 4.0]])
        assert max_cross_track(pts, a, a) == pytest.approx(3.0, abs=1e-12)


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

    @pytest.mark.parametrize("first, second", [
        ("dt=0.9", "plain"), ("plain", "dt=0.9"), ("plain", "particle")])
    def test_rerun_leaves_only_its_own_files(self, tmp_path, first, second):
        """A run into a used directory first removes what the earlier
        run left, so it leaves the files of a run into a fresh one."""
        cfg = load_config(scenario_path("scenario_4_2_2"))
        variant = {"plain": cfg, "dt=0.9": replace(cfg, dt=0.9),
                   "particle": replace(cfg, mode="particle")}

        def run(which, root):
            try:
                run_mission(variant[which], out_dir=root)
            except SwarmError:
                pass
            return digests(root)

        run(first, tmp_path / "used")
        assert run(second, tmp_path / "used") \
            == run(second, tmp_path / "fresh")

    def test_stale_artifact_that_cannot_go_fails_the_run(self, tmp_path):
        cfg = load_config(scenario_path("scenario_2_4_1"))
        dest = tmp_path / cfg.out
        (dest / "report.json").mkdir(parents=True)
        with pytest.raises(IoError, match="report[.]json") as err:
            run_mission(cfg, out_dir=tmp_path)
        assert str(err.value).startswith(
            f"cannot clear output directory {dest}: ")
        assert sorted(p.name for p in dest.iterdir()) \
            == ["FAILED", "report.json"]
        assert (dest / "FAILED").read_text(encoding="utf-8") \
            == f"IoError: {err.value}\n"

    def test_rerun_removes_left_part_files(self, tmp_path, run_4_2_2):
        """A .part sibling outlives its writer only where every process
        of a run died mid-write; the next run removes it with the
        artifacts, also where it writes no such artifact itself (FAILED,
        a fourth agent), and keeps what no run writes."""
        cfg, shipped = run_4_2_2
        dest = tmp_path / cfg.out
        shutil.copytree(shipped, dest)
        for name in ("particle.csv.part", "quad_agent2.csv.part",
                     "FAILED.part", "quad_agent4.csv.part", "notes.part"):
            (dest / name).write_text("left\n", encoding="utf-8")
        run_mission(cfg, out_dir=tmp_path)
        assert sorted(p.name for p in dest.iterdir()) == [
            "notes.part", "particle.csv", "quad_agent1.csv",
            "quad_agent2.csv", "quad_agent3.csv", "report.json"]

    def test_scripted_quad_mission(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SCRIPTED_CLIMB))
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
        assert "tilt beyond" in marker.read_text()

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWARM_OUT_DIR", str(tmp_path))
        cfg = load_config(scenario_path("scenario_2_4_1"))
        run_mission(cfg)
        assert (tmp_path / cfg.out / "report.json").exists()

    @pytest.mark.parametrize(
        "case", ["particle", "scripted", "rendezvous", "compare"])
    def test_report_shape_per_mode(self, tmp_path, case):
        """The README's per-mode report.json spec: which agent fields
        are null, whether there is a rendezvous point and a spectrum,
        and whether particle.csv is written."""
        nulls = {
            "particle": {"quad_final_error", "max_cross_track",
                         "flight_time"},
            "scripted": {"particle_final_error", "quad_final_error",
                         "max_cross_track"},
            "rendezvous": {"particle_final_error"},
            "compare": set(),
        }[case]
        if case == "particle":
            cfg = load_config(scenario_path("scenario_2_4_1"))
        elif case == "scripted":
            cfg = load_config(write_cfg(tmp_path, SCRIPTED_CLIMB))
        else:
            # the path 1-2, 2-3 is not complete, so the quad mode runs
            # the protocol for its targets but reports no spectrum
            mode = "quad" if case == "rendezvous" else "compare"
            cfg = load_config(write_cfg(
                tmp_path, PATH_3.replace("mode = quad", f"mode = {mode}")))
        report = run_mission(cfg, out_dir=tmp_path)
        dest = tmp_path / cfg.out
        assert json.loads((dest / "report.json").read_text()) \
            == report.to_dict()
        assert (dest / "particle.csv").exists() == (report.mode != "quad")
        assert (report.rendezvous_point is None) == (case == "scripted")
        assert (report.eigenvalues == ()) == (report.mode == "quad")
        for a in report.to_dict()["agents"]:
            assert {k for k, v in a.items() if v is None} == nulls
        if case == "rendezvous":
            bound = math.sqrt(3) * cfg.stop_tol + 1e-6
            assert all(a.quad_final_error <= bound for a in report.agents)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("text, complete", [(BASE, True),
                                                (PATH_3, False)],
                             ids=["complete", "path"])
    def test_prepare_runs_the_protocol_first_only_for_its_endpoints(
            self, tmp_path, text, complete, mode):
        """The one order rule: the protocol runs in prepare, before the
        flights, only where the routes go to its endpoints (quad and
        compare on an incomplete graph). A particle run and a compare
        run on a complete graph get it as beside instead, to run beside
        the flights; a quad run on a complete graph runs none. The
        routes: none in particle mode, else to alpha on a complete
        graph, else to each protocol endpoint. Only given the output
        directory does the protocol write particle.csv, and never in
        quad mode."""
        config = replace(load_config(write_cfg(tmp_path, text)), mode=mode)
        q0 = config.agents[:, :3]
        traj = integrate_protocol(config.network, q0, config.T, config.dt)
        alpha, particle, routes, beside = mission.prepare(config)
        assert np.array_equal(alpha, consensus_point(q0))
        first = mode != "particle" and not complete
        assert (particle is not None) == first
        assert (beside is not None) == (
            mode == "particle" or mode == "compare" and complete)
        ran = beside() if beside is not None else particle
        assert (ran is None) == (mode == "quad" and complete)
        if ran is not None:
            assert np.array_equal(ran.states, traj.states)
        targets = [alpha] * len(q0) if complete else traj.states[-1]
        assert routes == ([] if mode == "particle" else [
            rendezvous_route(hover_state(q0[i]), targets[i])
            for i in range(len(q0))])
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["mission.cfg"]
        beside = mission.prepare(config, tmp_path)[3]
        if beside is not None:
            beside()
        assert (tmp_path / "particle.csv").exists() == (mode != "quad")
        if mode != "quad":
            export_csv(traj, tmp_path / "expect.csv")
            assert (tmp_path / "particle.csv").read_bytes() \
                == (tmp_path / "expect.csv").read_bytes()

    def test_prepare_runs_nothing_for_a_scripted_flight(self, tmp_path):
        scripted = load_config(write_cfg(tmp_path, SCRIPTED_CLIMB))
        assert mission.prepare(scripted, tmp_path) \
            == (None, None, [scripted.maneuvers], None)
        assert [p.name for p in tmp_path.iterdir()] == ["mission.cfg"]

    def test_report_decomposes_the_start_laplacian_once(self, tmp_path,
                                                        monkeypatch):
        """The report's t=0 spectrum is the one the protocol checked
        its step against, not a second decomposition of L(0)."""
        calls = []

        def counted(a):
            calls.append(1)
            return sym_eigen(a)

        for mod in (consensus, mission):
            monkeypatch.setattr(mod, "sym_eigen", counted)
        cfg = load_config(scenario_path("scenario_2_4_1"))
        report = run_mission(cfg, out_dir=tmp_path)
        assert len(calls) == 1
        lap = start_spectrum(cfg.network, cfg.agents[:, :3]).laplacian
        assert report.eigenvalues == (
            (0.0, tuple(sym_eigen(lap.matrix)[0].tolist())),)

    def test_flights_commute_with_translation(self, tmp_path, run_4_2_2):
        """The quad's force law never reads the position b, and a route
        holds only target - b, so shifting every agent of 4_2_2 by an
        integer vector gives the same routes and flights whose columns
        but b1..b3 keep their bytes. The positions round at the shifted
        magnitude: 1.46e-11 apart at most, a tenth of the tolerance."""
        shift = np.array([100.0, -50.0, 7.0])
        cfg, shipped = run_4_2_2
        moved = replace(cfg, agents=cfg.agents + np.r_[shift, 0.0, 0.0, 0.0])
        assert mission.prepare(moved)[2] == mission.prepare(cfg)[2]
        run_mission(moved, out_dir=tmp_path)

        def table(dest, i):
            path = dest / f"quad_agent{i}.csv"
            lines = path.read_text(encoding="utf-8").splitlines()
            return [line.split(",") for line in lines]

        for i in range(1, cfg.network.n + 1):
            base, shifted = table(shipped, i), table(tmp_path / cfg.out, i)
            assert [row[:1] + row[4:] for row in shifted] \
                == [row[:1] + row[4:] for row in base]
            b = np.array([row[1:4] for row in base[1:]], dtype=float)
            b_moved = np.array([row[1:4] for row in shifted[1:]],
                               dtype=float)
            assert np.max(np.abs(b_moved - (b + shift))) <= 1.5e-10


class TestFlightChunks:
    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_quad_csvs_do_not_depend_on_the_chunk(self, tmp_path,
                                                  monkeypatch, run_4_2_2,
                                                  chunk):
        """A flight samples its laws a chunk of steps at a time, and
        chunks of 1, 7 and 256 steps write the bytes of the default
        chunk (1024 steps)."""
        monkeypatch.setattr(quad, "_CHUNK", chunk)
        cfg, shipped = run_4_2_2
        run_mission(cfg, out_dir=tmp_path)
        for i in range(1, cfg.network.n + 1):
            name = f"quad_agent{i}.csv"
            assert (tmp_path / cfg.out / name).read_bytes() \
                == (shipped / name).read_bytes()


class TestRunSymmetry:
    """Where the drones meet does not depend on how they are numbered
    or how the ground frame is turned about the vertical. On 4_2_2's
    complete graph each drone flies from its start to the centroid of
    the starts, (5, 6, 0), which is exact in any summation order."""

    @pytest.mark.parametrize("perm", [(1, 0, 2), (1, 2, 0)],
                             ids=["transposition", "3-cycle"])
    def test_relabeling(self, tmp_path, run_4_2_2, perm):
        """Agent k + 1 of the relabeled run starts where agent
        perm[k] + 1 of the shipped one does, and flies its bytes."""
        cfg, shipped = run_4_2_2
        label = {old + 1: new + 1 for new, old in enumerate(perm)}
        net = Network(cfg.network.n,
                      {(label[i], label[j]) for i, j in cfg.network.edges},
                      cfg.network.policy)
        report = run_mission(
            replace(cfg, agents=cfg.agents[list(perm)], network=net),
            out_dir=tmp_path)
        assert report.rendezvous_point == (5.0, 6.0, 0.0)
        for new, old in enumerate(perm):
            got = tmp_path / cfg.out / f"quad_agent{new + 1}.csv"
            assert got.read_bytes() \
                == (shipped / f"quad_agent{old + 1}.csv").read_bytes()

    def test_rotation_about_z(self, tmp_path, run_4_2_2):
        """Turning the frame by 90 degrees, (x, y) -> (-y, x) and each
        yaw + pi/2, turns every flight with it. The velocities and
        rates are body-frame, so only b and psi move; turned back, the
        CSVs match within 1e-12 (5.7e-14 measured), as the bearings
        and yaw legs of the routes round differently."""
        cfg, shipped = run_4_2_2
        start = cfg.agents
        turned = start.copy()
        turned[:, 0], turned[:, 1] = -start[:, 1], start[:, 0]
        turned[:, 5] += math.pi / 2
        report = run_mission(replace(cfg, agents=turned), out_dir=tmp_path)
        assert report.rendezvous_point == (-6.0, 5.0, 0.0)
        for i in range(1, cfg.network.n + 1):
            want, got = (np.loadtxt(dest / f"quad_agent{i}.csv",
                                    delimiter=",", skiprows=1)
                         for dest in (shipped, tmp_path / cfg.out))
            back = got.copy()
            back[:, 1], back[:, 2] = got[:, 2], -got[:, 1]
            back[:, 6] -= math.pi / 2
            assert back.shape == want.shape
            assert np.max(np.abs(back - want)) <= 1e-12


def _numpy_blas():
    """The name of the BLAS numpy was built against, or "" where numpy
    does not say."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return ""
    return deps.get("blas", {}).get("name", "")


def _run_4_2_2_with(out, var, value=None):
    """Run scenario_4_2_2 into out in a new interpreter whose
    environment variable var is value, or unset for None; return the
    directory of its artifacts."""
    src = str(Path(mission.__file__).resolve().parents[1])
    path = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = {k: v for k, v in os.environ.items() if k != var}
    if value is not None:
        env[var] = value
    subprocess.run(
        [sys.executable, "-m", "quadswarm.cli", "run",
         str(scenario_path("scenario_4_2_2")), "--out", str(out)],
        env={**env, "PYTHONPATH": path}, check=True, capture_output=True)
    return out / "scenario_4_2_2"


def _same_quad_csvs(a, b):
    return all((a / f"quad_agent{i}.csv").read_bytes()
               == (b / f"quad_agent{i}.csv").read_bytes() for i in (1, 2, 3))


class TestBlasKernel:
    @pytest.mark.skipif("openblas" not in _numpy_blas().lower(),
                        reason="numpy's BLAS is not OpenBLAS")
    def test_quad_csvs_do_not_depend_on_the_kernel(self, tmp_path):
        """The quad CSVs are pure-Python floats and libm, so another
        OpenBLAS kernel (OPENBLAS_CORETYPE=Prescott) leaves their
        bytes. particle.csv and report.json pass through BLAS and
        LAPACK and may change with the kernel; nothing is asserted
        about them."""
        var = "OPENBLAS_CORETYPE"
        assert _same_quad_csvs(
            _run_4_2_2_with(tmp_path / "prescott", var, "Prescott"),
            _run_4_2_2_with(tmp_path / "native", var))


def _simd_targets():
    """numpy's SIMD dispatch targets on this CPU, or None where numpy
    does not list them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:
        return None
    return __cpu_dispatch__


class TestSimdDispatch:
    @pytest.mark.skipif(_simd_targets() is None,
                        reason="numpy lists no SIMD dispatch targets")
    def test_quad_csvs_do_not_depend_on_the_simd_dispatch(self, tmp_path,
                                                           run_4_2_2):
        """The laws' array arithmetic is +, -, *, / and sqrt, which
        every SIMD loop rounds alike, and their cos, sin, atan and **
        run on Python floats, so a run with numpy's dispatch targets
        disabled (NPY_DISABLE_CPU_FEATURES) flies the bytes of a plain
        run. Nothing is asserted about particle.csv."""
        assert _same_quad_csvs(
            _run_4_2_2_with(tmp_path / "baseline", "NPY_DISABLE_CPU_FEATURES",
                            " ".join(_simd_targets())),
            run_4_2_2[1])


def digests(root):
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def agent_of(start):
    """1-based agent of scenario_4_2_2 that starts at start.b."""
    return [(0, 0, 0), (0, 9, 0), (15, 9, 0)].index(
        tuple(start.b.tolist())) + 1


class TestParallelFlights:
    """Rendezvous flights run in W = min(CPUs, agents) lanes, one in
    this process and the rest in forked workers; whatever W is, the
    artifacts and the error must be those of one serial loop."""

    def _run(self, cfg, out, cpus, monkeypatch):
        monkeypatch.setattr(mission, "_usable_cpus", lambda: cpus)
        try:
            run_mission(cfg, out_dir=out)
        except SwarmError:
            pass
        assert_no_child_left()
        return digests(out)

    def test_lanes_follow_the_lpt_rule(self):
        # scenario_4_2_2's flights: agent 3's 13.09 s outweighs the rest
        assert mission._lpt_lanes([8.48, 7.31, 13.09], 2) == [[2], [0, 1]]
        assert mission._lpt_lanes([8.48, 7.31, 13.09], 1) == [[0, 1, 2]]
        # ties go to the lower agent, then to the lower lane
        assert mission._lpt_lanes([1.0] * 4, 3) == [[0, 3], [1], [2]]
        assert mission._lpt_lanes([2.0, 1.0, 1.0, 2.0], 2) \
            == [[0, 1], [2, 3]]
        assert mission._lpt_lanes([], 1) == [[]]
        # a particle run has no routes and so no lane
        assert mission._lpt_lanes([], 0) == []

    @pytest.mark.parametrize("case", [
        "4_2_2", "4_2_2 dt=0.9", "path3 quad", "path3 compare"])
    def test_any_lane_count_writes_the_serial_bytes(self, tmp_path, case,
                                                    monkeypatch):
        if case.startswith("4_2_2"):
            cfg = load_config(scenario_path("scenario_4_2_2"))
            if case.endswith("0.9"):
                cfg = replace(cfg, dt=0.9)
        else:
            mode = case.split()[1]
            cfg = load_config(write_cfg(
                tmp_path, PATH_3.replace("mode = quad", f"mode = {mode}")))
        serial = self._run(cfg, tmp_path / "w1", 1, monkeypatch)
        assert len(serial) == (3 if case.endswith("0.9") else
                               4 + (case != "path3 quad"))
        for cpus in (2, 3):
            assert self._run(cfg, tmp_path / f"w{cpus}", cpus,
                             monkeypatch) == serial

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_lowest_failed_agent_wins(self, tmp_path, cpus, monkeypatch):
        # agents 1 and 3 fail; from 2 lanes on, agent 3, the longest
        # flight, is lane 0's and agent 1 a worker's
        real = mission.simulate

        def simulate(start, *args):
            if agent_of(start) != 2:
                raise GimbalLockError(f"agent {agent_of(start)}")
            return real(start, *args)

        monkeypatch.setattr(mission, "simulate", simulate)
        cfg = load_config(scenario_path("scenario_4_2_2"))
        monkeypatch.setattr(mission, "_usable_cpus", lambda: cpus)
        with pytest.raises(GimbalLockError, match="^agent 1$"):
            run_mission(cfg, out_dir=tmp_path)
        assert_no_child_left()
        assert sorted(p.name for p in (tmp_path / cfg.out).iterdir()) \
            == ["FAILED", "particle.csv"]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_failed_protocol_beside_the_flights_wins(self, tmp_path, cpus,
                                                     monkeypatch):
        """A compare run on a complete graph forks its flight workers
        before it integrates the protocol. A protocol that fails there
        is the run's error, as it is before any flight in the serial
        loop: the workers die, agent 1's failed flight is not raised,
        and no quad CSV is written."""
        real, real_fork = mission.simulate, mission._fork
        forks, forks_at_protocol = [], []

        def simulate(start, *args):
            if agent_of(start) == 1:
                raise GimbalLockError("agent 1")
            return real(start, *args)

        def fork(fn, arg):
            forks.append(fn)
            return real_fork(fn, arg)

        def protocol(*args, **kwargs):
            forks_at_protocol.append(len(forks))
            raise DivergenceError("protocol state is non-finite at t=1")

        monkeypatch.setattr(mission, "_fork", fork)
        monkeypatch.setattr(mission, "simulate", simulate)
        monkeypatch.setattr(mission, "integrate_protocol", protocol)
        monkeypatch.setattr(mission, "_usable_cpus", lambda: cpus)
        cfg = load_config(scenario_path("scenario_4_2_2"))
        with pytest.raises(DivergenceError, match="at t=1$"):
            run_mission(cfg, out_dir=tmp_path)
        assert_no_child_left()
        # every worker lane, and no particle writer, before the protocol
        assert forks_at_protocol == [cpus - 1]
        dest = tmp_path / cfg.out
        assert [p.name for p in dest.iterdir()] == ["FAILED"]
        assert (dest / "FAILED").read_text(encoding="utf-8") \
            == "DivergenceError: protocol state is non-finite at t=1\n"

    def test_planning_failure_keeps_earlier_agents(self, tmp_path,
                                                   monkeypatch):
        # agent 2 is planned in a worker lane from 2 lanes on, and in
        # this process on one
        cfg = load_config(scenario_path("scenario_4_2_2"))
        routes = self._routes(cfg)
        real = mission.plan

        def plan(params, route):
            if route == routes[1]:
                raise InfeasibleError("agent 2")
            return real(params, route)

        monkeypatch.setattr(mission, "plan", plan)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(mission, "_usable_cpus", lambda: cpus)
            with pytest.raises(InfeasibleError, match="^agent 2$"):
                run_mission(cfg, out_dir=tmp_path / f"w{cpus}")
            assert_no_child_left()
            dest = tmp_path / f"w{cpus}" / cfg.out
            assert sorted(p.name for p in dest.iterdir()) \
                == ["FAILED", "particle.csv", "quad_agent1.csv"]
            assert (dest / "FAILED").read_text() \
                == "InfeasibleError: agent 2\n"

    def test_each_lane_plans_its_own_agents(self, tmp_path, monkeypatch):
        # two lanes: agent 3, the longest flight, is lane 0's, so this
        # process plans it alone and a worker plans agents 1 and 2
        parent, real = os.getpid(), mission.plan
        planned = []

        def plan(params, route):
            if os.getpid() == parent:
                planned.append(route)
            return real(params, route)

        monkeypatch.setattr(mission, "plan", plan)
        cfg = load_config(scenario_path("scenario_4_2_2"))
        self._run(cfg, tmp_path, 2, monkeypatch)
        assert not (tmp_path / cfg.out / "FAILED").exists()
        assert planned == [self._routes(cfg)[2]]

    @staticmethod
    def _routes(cfg):
        """The rendezvous routes of a complete-graph config's agents."""
        alpha = consensus_point(cfg.agents[:, :3])
        return [rendezvous_route(hover_state(b=row[:3], yaw=row[5]), alpha)
                for row in cfg.agents]

    def test_dead_worker_fails_the_run(self, tmp_path, monkeypatch):
        parent, real = os.getpid(), mission.simulate

        def simulate(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(mission, "simulate", simulate)
        monkeypatch.setattr(mission, "_usable_cpus", lambda: 3)
        cfg = load_config(scenario_path("scenario_4_2_2"))
        with pytest.raises(ChildProcessError, match="wait status 768") as err:
            run_mission(cfg, out_dir=tmp_path)
        assert_no_child_left()
        assert not list((tmp_path / cfg.out).glob("quad_agent*"))
        assert (tmp_path / cfg.out / "FAILED").read_text(encoding="utf-8") \
            == f"ChildProcessError: {err.value}\n"

    @pytest.mark.parametrize("case", ["4_2_2", "2_5_2 T=3"])
    def test_no_fork_writes_the_two_cpu_bytes(self, tmp_path, case,
                                              monkeypatch):
        """Where the platform has no os.fork, the run counts one usable
        CPU: it forks nothing and writes what two CPUs write."""
        cfg = load_config(scenario_path("scenario_" + case.split()[0]))
        if case.endswith("T=3"):
            cfg = replace(cfg, T=3.0)
        two = self._run(cfg, tmp_path / "two", 2, monkeypatch)
        monkeypatch.undo()
        forked = []
        monkeypatch.setattr(mission, "_fork",
                            lambda *args: forked.append(args))
        monkeypatch.delattr(os, "fork")
        assert mission._usable_cpus() == 1
        run_mission(cfg, out_dir=tmp_path / "one")
        assert not forked
        assert digests(tmp_path / "one") == two

    def test_interrupt_kills_and_reaps_workers(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def simulate(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(mission, "simulate", simulate)
        monkeypatch.setattr(mission, "_usable_cpus", lambda: 3)
        cfg = load_config(scenario_path("scenario_4_2_2"))
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_mission(cfg, out_dir=tmp_path)
        assert time.monotonic() - start < 30
        assert_no_child_left()


# level starts on a 0.1 m grid, at 0.1 m per agent of height, and steps
# from 0.3 s up, which make some protocols or flights fail
_STARTS = st.lists(st.tuples(st.integers(-15, 15), st.integers(-15, 15)),
                   min_size=4, max_size=4)
_DT = st.one_of(st.floats(-3.0, math.log10(0.05)).map(lambda e: 10.0 ** e),
                st.floats(0.3, 0.9))
# the errors a run raises only in flight
_FLIGHT_ERRORS = ("GimbalLockError: ", "DivergenceError: ",
                  "SaturationError: ")


def _generated_positions(starts, n):
    return np.array([(x / 10, y / 10, i / 10)
                     for i, (x, y) in enumerate(starts[:n])])


def _generated_text(mode, n, complete, q0, T, dt, network=""):
    edges = ", ".join(f"{i}-{j}" for i in range(1, n + 1)
                      for j in range(i + 1, n + 1) if complete or j == i + 1)
    agents = "".join(f"agent{i + 1} = {x!r}, {y!r}, {z!r}\n"
                     for i, (x, y, z) in enumerate(q0.tolist()))
    return (f"[mission]\nmode = {mode}\nT = {T!r}\ndt = {dt!r}\n"
            f"[network]\nn = {n}\nedges = {edges}\n{network}"
            f"[agents]\n{agents}")


def _run_generated(root, text):
    """Run the mission file text through the CLI at 1 and 2 usable CPUs,
    then validate it. Asserts what every run keeps: the same exit code,
    files and bytes at both CPU counts, no child and no .part file left,
    validate's FAIL: text equal to the run's FAILED text, and a run that
    validate passed exits 1 exactly where it leaves FAILED. Returns
    (the run's exit code, validate's, the FAILED text or None)."""
    path = write_cfg(root, text)
    quiet = contextlib.redirect_stdout(io.StringIO())
    runs, codes = {}, {}
    for cpus in (1, 2):
        out = root / f"w{cpus}"
        with pytest.MonkeyPatch.context() as mp, quiet, \
                contextlib.redirect_stderr(io.StringIO()):
            mp.setattr(mission, "_usable_cpus", lambda: cpus)
            codes[cpus] = main(["run", str(path), "--out", str(out)])
        assert_no_child_left()
        runs[cpus] = digests(out)
    assert codes[1] == codes[2] and runs[1] == runs[2]
    assert not list(root.rglob("*.part"))
    with contextlib.redirect_stdout(io.StringIO()) as said:
        checked = main(["validate", str(path)])
    verdict = said.getvalue().splitlines()[0]
    failed = root / "w1" / "mission" / "FAILED"
    failed = failed.read_text(encoding="utf-8") if failed.exists() else None
    if checked == 2:
        assert codes[1] == 1
        assert verdict == "FAIL: " + failed.rstrip("\n")
    else:
        assert checked == 0 and verdict.startswith("OK: ")
        assert codes[1] == (1 if failed is not None else 0)
    return codes[1], checked, failed


class TestGeneratedCompareMissions:
    """Compare missions drawn at random keep the run's contracts at 1
    and 2 usable CPUs (_run_generated), on complete graphs, whose
    flights start before the protocol, and on paths, whose flights wait
    for it; and a run that validate passed fails only in flight."""

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 4), complete=st.booleans(), starts=_STARTS,
           T=st.floats(0.5, 2.0), dt=_DT)
    def test_one_and_two_cpus_write_the_same(self, tmp_path_factory, n,
                                              complete, starts, T, dt):
        text = _generated_text("compare", n, complete,
                               _generated_positions(starts, n), T, dt)
        code, checked, failed = _run_generated(
            tmp_path_factory.mktemp("generated"), text)
        if checked == 0 and code != 0:
            assert failed.startswith(_FLIGHT_ERRORS)


class TestGeneratedParticleAndQuadMissions:
    """Particle and quad missions drawn at random, plain or distance
    weighted, keep the run's contracts at 1 and 2 usable CPUs
    (_run_generated). A particle run, whose protocol runs beside no
    flight, passes validate exactly when it exits 0; a quad run that
    validate passed fails only in flight. The proximity threshold stays
    at least 0.05 m from every distance between the starts."""

    @settings(max_examples=15, deadline=None)
    @given(mode=st.sampled_from(["particle", "quad"]), n=st.integers(2, 4),
           complete=st.booleans(), starts=_STARTS,
           threshold=st.one_of(st.none(), st.floats(0.5, 5.0)),
           T=st.floats(0.5, 2.0), dt=_DT)
    def test_one_and_two_cpus_write_the_same(self, tmp_path_factory, mode,
                                              n, complete, starts,
                                              threshold, T, dt):
        q0 = _generated_positions(starts, n)
        network = ""
        if threshold is not None:
            gaps = np.linalg.norm(q0[:, None] - q0[None], axis=-1)
            assume(np.all(np.abs(gaps - threshold) >= 0.05))
            network = f"weights = distance\nthreshold = {threshold!r}\n"
        text = _generated_text(mode, n, complete, q0, T, dt, network)
        code, checked, failed = _run_generated(
            tmp_path_factory.mktemp("generated"), text)
        if mode == "particle":
            assert (checked == 0) == (code == 0)
        elif checked == 0 and code != 0:
            assert failed.startswith(_FLIGHT_ERRORS)


class TestParticleWriter:
    """A particle run writes particle.csv in its own process, with
    export_csv, after the protocol, at any CPU count: the file is
    export_csv's of the protocol run, and a run that fails leaves none,
    nor its temporary file."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("case", ["2_4_1", "2_5_2 T=3", "2_4_1 r=2"])
    def test_writes_the_bytes_of_export_csv(self, tmp_path, case, cpus,
                                            monkeypatch):
        cfg = load_config(scenario_path("scenario_" + case.split()[0]))
        if case.endswith("T=3"):
            cfg = replace(cfg, T=3.0)
        elif case.endswith("r=2"):
            cfg = replace(cfg, agents=cfg.agents[:, :2])
        traj = integrate_protocol(cfg.network, cfg.agents[:, :3], cfg.T,
                                  cfg.dt, cfg.stride, cfg.stop_tol)
        # 2_4_1 stops early, 2_5_2 runs to its horizon
        assert (traj.times[-1] < cfg.T) == case.startswith("2_4_1")
        export_csv(traj, tmp_path / "expect.csv")
        monkeypatch.setattr(mission, "_usable_cpus", lambda: cpus)
        run_mission(cfg, out_dir=tmp_path / "run")
        assert_no_child_left()
        dest = tmp_path / "run" / cfg.out
        assert sorted(p.name for p in dest.iterdir()) \
            == ["particle.csv", "report.json"]
        got = (dest / "particle.csv").read_bytes()
        assert got == (tmp_path / "expect.csv").read_bytes()
        if case.endswith("r=2"):
            assert got.startswith(b"t,q1c1,q1c2,q2c1,q2c2,")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_particle_run_forks_nothing(self, tmp_path, cpus, monkeypatch):
        """A particle run is a run with no routes: it forks no flight
        worker, and nothing else."""
        real_fork, names = mission._fork, []

        def fork(fn, arg):
            names.append(fn.__name__)
            return real_fork(fn, arg)

        monkeypatch.setattr(mission, "_fork", fork)
        monkeypatch.setattr(mission, "_usable_cpus", lambda: cpus)
        run_mission(load_config(scenario_path("scenario_2_4_1")),
                    out_dir=tmp_path)
        assert_no_child_left()
        assert names == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_diverging_protocol_leaves_no_csv(self, tmp_path, cpus,
                                              monkeypatch):
        cfg = load_config(write_cfg(tmp_path, ring_text()))
        monkeypatch.setattr(mission, "_usable_cpus", lambda: cpus)
        with pytest.raises(DivergenceError, match=r"t=0\.166016$"):
            run_mission(cfg, out_dir=tmp_path)
        assert_no_child_left()
        dest = tmp_path / cfg.out
        assert [p.name for p in dest.iterdir()] == ["FAILED"]
        assert (dest / "FAILED").read_text(encoding="utf-8") == RING_FAILED

    def test_diverging_protocol_fails_with_one_error_line(self, tmp_path,
                                                          capsys):
        """With warnings as errors, the overflow on the way to the
        non-finite state raises no RuntimeWarning: the run exits 1
        with its FAILED marker and prints only its error."""
        path = write_cfg(tmp_path, ring_text())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", str(path), "--out", str(tmp_path)])
        assert rc == 1
        assert (tmp_path / "mission" / "FAILED").read_text(
            encoding="utf-8") == RING_FAILED
        assert capsys.readouterr().err \
            == "error: " + RING_FAILED.split(": ", 1)[1]


class _FullDisk:
    """A file that takes room more characters and then fails each write
    with ENOSPC, as a disk that fills up while it is written would."""

    def __init__(self, f, room):
        self.f, self.room = f, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        self.f.write(text[:self.room])
        self.room -= len(text)
        if self.room < 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    @staticmethod
    def open_for(name, room):
        """An open that gives the artifact name, and its temporary
        sibling, a disk with room characters left."""
        def full_disk_open(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            if isinstance(file, int) or \
                    Path(file).name not in (name, name + ".part"):
                return f
            return _FullDisk(f, room)

        return full_disk_open


class TestArtifactWrites:
    """Every artifact reaches disk whole or not at all: an OSError while
    one is written leaves the artifacts written before it, FAILED with
    one text naming it, and no part of it, at any CPU count."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("scenario, name, before", [
        ("scenario_2_4_1", "particle.csv", []),
        ("scenario_4_2_2", "particle.csv", []),
        ("scenario_4_2_2", "quad_agent2.csv",
         ["particle.csv", "quad_agent1.csv"]),
        ("scenario_2_4_1", "report.json", ["particle.csv"]),
    ])
    def test_failed_write_leaves_no_part_of_its_artifact(
            self, tmp_path, cpus, scenario, name, before, monkeypatch):
        monkeypatch.setattr(mission, "open", _FullDisk.open_for(name, 1000),
                            raising=False)
        monkeypatch.setattr(mission, "_usable_cpus", lambda: cpus)
        cfg = load_config(scenario_path(scenario))
        with pytest.raises(IoError) as err:
            run_mission(cfg, out_dir=tmp_path)
        assert_no_child_left()
        dest = tmp_path / cfg.out
        assert str(err.value) == f"cannot write {dest / name}: " \
            f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert sorted(p.name for p in dest.iterdir()) == ["FAILED"] + before
        assert (dest / "FAILED").read_text(encoding="utf-8") \
            == f"IoError: {err.value}\n"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_marker_write_keeps_the_run_error(self, tmp_path, cpus,
                                                     monkeypatch):
        """FAILED is written like every artifact, and only where it can
        be: a full disk leaves none, nor its temporary sibling, and the
        run still raises its own error."""
        monkeypatch.setattr(mission, "open", _FullDisk.open_for("FAILED", 0),
                            raising=False)
        monkeypatch.setattr(mission, "_usable_cpus", lambda: cpus)
        cfg = replace(load_config(scenario_path("scenario_4_2_2")), dt=0.9)
        with pytest.raises(GimbalLockError, match="^gimbal lock near t=2"):
            run_mission(cfg, out_dir=tmp_path)
        assert_no_child_left()
        assert sorted(p.name for p in (tmp_path / cfg.out).iterdir()) \
            == ["particle.csv", "quad_agent1.csv"]


@pytest.fixture(scope="module")
def validate_2_5_2():
    """The exit code and stdout lines of one validate of scenario_2_5_2,
    whose protocol runs 150,000 steps, for the tests that only read
    them."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(["validate", str(scenario_path("scenario_2_5_2"))])
    return rc, out.getvalue().splitlines()


class TestCli:
    def test_validate_ok(self, capsys):
        rc = main(["validate", str(scenario_path("scenario_2_4_1"))])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")
        assert "agents=4" in out

    def test_validate_prints_spectrum(self, validate_2_5_2):
        rc, out = validate_2_5_2
        assert rc == 0
        assert out[0].startswith("OK:")
        assert out[1].startswith("spectrum of L(0):")
        fields = dict(tok.split("=") for tok in out[1].split()
                      if "=" in tok)
        assert float(fields["lambda2"]) == pytest.approx(6.2395, abs=1e-4)
        assert float(fields["lambda_max"]) == pytest.approx(37.655,
                                                            abs=1e-3)
        assert float(fields["dt*lambda_max"]) == pytest.approx(0.0377,
                                                               abs=1e-4)
        assert "RK4 limit 2.785" in out[1]
        assert "largest stable dt 0.07396" in out[1]

    def test_validate_eigendecomposes_once(self, capsys, monkeypatch):
        # The FAIL/OK verdict and the printed spectrum come from one
        # decomposition of L(0).
        calls = []

        def counted(a):
            calls.append(1)
            return sym_eigen(a)

        for mod in (consensus, mission):
            monkeypatch.setattr(mod, "sym_eigen", counted)
        assert main(["validate", str(scenario_path("scenario_2_5_2"))]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("text", [
        ring_text(),
        scenario_path("scenario_2_4_1").read_text(encoding="utf-8")
        .replace("dt = 0.001", "dt = 1.0")], ids=["ring", "unstable-dt"])
    def test_validate_eigendecomposes_once_when_the_protocol_fails(
            self, tmp_path, capsys, monkeypatch, text):
        # The ring's protocol diverges after its start check, and 2_4_1
        # at dt = 1 fails the check itself: either error carries the
        # L(0) the protocol decomposed, whose spectrum validate prints.
        calls = []

        def counted(a):
            calls.append(1)
            return sym_eigen(a)

        for mod in (consensus, mission):
            monkeypatch.setattr(mod, "sym_eigen", counted)
        assert main(["validate", str(write_cfg(tmp_path, text))]) == 2
        assert len(calls) == 1
        assert capsys.readouterr().out.splitlines()[1].startswith(
            "spectrum of L(0): lambda2=")

    @pytest.mark.parametrize("name, t_stop", [
        # ln(spread0 / 1e-4) / lambda2 with spread0 and lambda2 of L(0)
        ("scenario_2_4_1", math.log(7.75 / 1e-4) / 1.0),
        ("scenario_4_2_2", math.log(10.0 / 1e-4) / 3.0),
    ], ids=["2_4_1", "4_2_2"])
    def test_validate_predicts_stop_unweighted(self, capsys, name, t_stop):
        rc = main(["validate", str(scenario_path(name))])
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[2]
        assert line.startswith(f"predicted stop: t={t_stop:.4g} s ")

    def test_validate_predicts_stop_static(self, tmp_path, capsys):
        """Two agents on one edge of weight 2: the offset from the
        centroid decays exactly like exp(-4 t), so the run stops at the
        first sample past the prediction."""
        path = write_cfg(tmp_path, BASE.replace(
            "edges = 1-2", "edges = 1-2\nweights = static\nweight_1_2 = 2"))
        t_stop = math.log(0.5 / 1e-4) / 4.0
        assert main(["validate", str(path)]) == 0
        line = capsys.readouterr().out.splitlines()[2]
        assert line.startswith(f"predicted stop: t={t_stop:.4g} s ")
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "mission" / "particle.csv").read_text(
            encoding="utf-8").splitlines()
        stopped = float(rows[-1].split(",")[0])
        assert t_stop < stopped <= t_stop + 0.01  # stride 10 at dt 1e-3

    def test_validate_predicts_stop_initial_distance(self, capsys):
        rc = main(["validate", str(scenario_path("scenario_2_5_1"))])
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[2]
        fields = dict(tok.split("=") for tok in line.split() if "=" in tok)
        assert float(fields["spread0"]) == 11.75
        assert float(fields["t"]) == pytest.approx(
            math.log(11.75 / 1e-4) / 13.0602, abs=1e-3)

    def test_validate_gives_no_prediction_for_distance_weights(
            self, validate_2_5_2):
        """On 2_5_2 lambda2 of L(0) would predict a stop near 1.8 s,
        but the re-weighted run never reaches stop_tol."""
        rc, out = validate_2_5_2
        assert rc == 0
        assert out[2].startswith("predicted stop: none; distance weights")

    def test_validate_gives_no_prediction_without_spectral_gap(
            self, tmp_path, capsys):
        """Agent 3 has no edge: the run cannot start, so validate fails
        it, and still prints the spectrum and the missing prediction."""
        path = write_cfg(tmp_path, BASE.replace("n = 2", "n = 3")
                         + "agent3 = 5, 5, 5\n")
        assert main(["validate", str(path)]) == 2
        line = capsys.readouterr().out.splitlines()[2]
        assert line == "predicted stop: none; L(0) has no spectral gap"

    def test_validate_fails_a_disconnected_protocol(self, tmp_path, capsys):
        """validate exits 2 for the particle run that would stop with
        DisconnectedError (exit 1) before its first step; a complete
        graph under quad mode integrates nothing and passes."""
        path = write_cfg(tmp_path, BASE.replace("n = 2", "n = 3")
                         + "agent3 = 5, 5, 5\n")
        assert main(["validate", str(path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ("FAIL: DisconnectedError: network is not "
                          "connected at t=0")
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out_dir)]) == 1
        assert "DisconnectedError" in (
            out_dir / "mission" / "FAILED").read_text()
        quad = write_cfg(tmp_path, BASE.replace(
            "mode = particle", "mode = quad"), "quad.cfg")
        assert main(["validate", str(quad)]) == 0

    def test_proximity_edges_connect_an_edgeless_start(self, tmp_path,
                                                       capsys):
        """Distance weights with no edges in the file: every pair starts
        within the threshold, so the graph L(0) is built on is complete
        and both validate and run accept it."""
        path = write_cfg(tmp_path, BASE.replace("n = 2", "n = 3").replace(
            "edges = 1-2", "weights = distance\nthreshold = 10").replace(
            "agent2 = 1, 1, 1", "agent2 = 3, 0, 0\nagent3 = 0, 4, 0"))
        assert load_config(path).network.edges == frozenset()
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("OK:")
        assert out[1].startswith("spectrum of L(0): lambda2=10.2679 ")
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out_dir)]) == 0
        assert not (out_dir / "mission" / "FAILED").exists()

    def test_validate_fails_an_unstable_step(self, tmp_path, capsys):
        """scenario_2_4_1 with dt = 1 in the file: dt * lambda_max = 4
        is past RK4's 2.785, which run refuses with DivergenceError."""
        text = scenario_path("scenario_2_4_1").read_text(encoding="utf-8")
        path = write_cfg(tmp_path, text.replace("dt = 0.001", "dt = 1.0"))
        assert load_config(path).dt == 1.0
        assert main(["validate", str(path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("FAIL: DivergenceError: step dt=1.0 is "
                                 "unstable for RK4")
        assert "largest stable step is 0.69625" in out[0]
        assert "dt*lambda_max=4 " in out[1]
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1

    def test_validate_single_agent_prints_no_spectrum(self, capsys):
        rc = main(["validate", str(scenario_path("scenario_4_2_1"))])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert out[0].startswith("OK:")

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

    def test_rejects_horizon_shorter_than_half_a_step(self, tmp_path,
                                                      capsys):
        """round(T / dt) == 0 would integrate nothing and report the
        start state as the result."""
        path = write_cfg(tmp_path, BASE.replace("T = 10", "T = 0.0004"))
        out = tmp_path / "out"
        rc = main(["run", str(path), "--out", str(out)])
        assert rc == 2
        assert "shorter than half a step" in capsys.readouterr().err
        assert not out.exists()
        assert main(["validate", str(path)]) == 2
        rc = main(["run", str(scenario_path("scenario_2_4_1")),
                   "--dt", "200", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("name, old, new, args", [
        ("scenario_2_4_1", "T = 50.0", "T = 1e308", ()),
        ("scenario_2_4_1", "", "", ("--dt", "1e-320")),
        ("scenario_4_2_1", "dt = 0.001", "dt = 1e-320", ())],
        ids=["T=1e308", "--dt 1e-320", "scripted dt=1e-320"])
    def test_rejects_a_step_count_that_overflows(self, tmp_path, capsys,
                                                 name, old, new, args):
        """T / dt, or a scripted flight's summed leg durations / dt,
        that is not finite is a config error: the step count would
        escape as OverflowError, after a validate that printed OK: for
        the scripted flight."""
        text = scenario_path(name).read_text(encoding="utf-8")
        assert old in text
        path = write_cfg(tmp_path, text.replace(old, new))
        out = tmp_path / "out"
        if not args:
            with pytest.raises(ValidationError, match="non-finite number "
                                                      "of steps"):
                load_config(path)
            assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), *args, "--out", str(out)]) == 2
        assert "would take a non-finite number of steps" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, old, new", [
        ("scenario_2_4_1", "T = 50.0", "T = 1e12"),
        ("scenario_4_2_1", "leg1 = vertical, 10, 12",
         "leg1 = hover, 0, 1e12")],
        ids=["T=1e12", "hover leg of 1e12 s"])
    def test_rejects_a_step_count_past_the_bound(self, tmp_path, capsys,
                                                 name, old, new):
        """A finite span / dt above MAX_STEPS is a config error: the run
        would step for days after a validate that printed OK:. The
        message names the count, about 1e15 steps at dt = 1e-3."""
        text = scenario_path(name).read_text(encoding="utf-8")
        assert old in text
        path = write_cfg(tmp_path, text.replace(old, new))
        out = tmp_path / "out"
        with pytest.raises(ValidationError) as refused:
            load_config(path)
        assert (f"would take 1e+15 steps, more than the {mission.MAX_STEPS} "
                "a run may take") in str(refused.value)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "would take 1e+15 steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["compare", "quad"])
    def test_rejects_a_route_past_the_step_bound(self, tmp_path, capsys,
                                                 monkeypatch, mode):
        """A rendezvous route's duration comes from the distance it
        flies: with agent 3 of 4_2_2 at 1e9 m, every drone's route to
        the centroid takes more than 1e11 steps. run and validate
        refuse the first, agent 1's, with MAX_STEPS's wording and exit
        2, before any route is planned or flown."""
        text = scenario_path("scenario_4_2_2").read_text(encoding="utf-8")
        old = "agent3 = 15, 9, 0, 0, 0, 1.5707963267948966"
        assert old in text
        path = write_cfg(tmp_path, text.replace(old, "agent3 = 1e9, 9, 0")
                         .replace("mode = compare", f"mode = {mode}"))
        flown = []
        monkeypatch.setattr(mission, "plan",
                            lambda *a: flown.append(a) or None)
        monkeypatch.setattr(mission, "simulate",
                            lambda *a: flown.append(a) or None)
        assert main(["validate", str(path)]) == 2
        refusal = capsys.readouterr().out.splitlines()[0]
        assert refusal.startswith("FAIL: ValidationError: agent 1's route: ")
        assert refusal.endswith(
            f"steps, more than the {mission.MAX_STEPS} a run may take")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: " + refusal.split(
            ": ", 2)[2] + "\n"
        assert (out / "scenario_4_2_2" / "FAILED").read_text(
            encoding="utf-8") == refusal.split(": ", 1)[1] + "\n"
        assert flown == []

    def test_step_count_bound_is_inclusive(self):
        """MAX_STEPS steps are allowed; a span one step longer is not.
        Only the configs are built: nothing is run."""
        cfg = load_config(scenario_path("scenario_2_4_1"))
        limit = mission.MAX_STEPS * cfg.dt
        assert replace(cfg, T=limit).T == limit
        with pytest.raises(ValidationError, match="more than the"):
            replace(cfg, T=limit + cfg.dt)

    def test_rejects_maneuvers_under_non_quad_mode(self, tmp_path, capsys):
        """--mode is checked like the file's mode: a scripted flight
        has no protocol horizon T to run as a particle mission."""
        for mode in ("particle", "compare"):
            rc = main(["run", str(scenario_path("scenario_4_2_1")),
                       "--mode", mode, "--out", str(tmp_path)])
            assert rc == 2
            err = capsys.readouterr().err.splitlines()
            assert err == ["error: [maneuvers] requires mode = quad"]
        assert not any(tmp_path.iterdir())

    def test_rejects_gimbal_locked_agent_under_quad_mode(self, tmp_path,
                                                         capsys):
        """A particle file may hold any angles; --mode quad makes them
        a quad start state, which must pass the file's own check."""
        path = write_cfg(tmp_path, BASE.replace(
            "agent2 = 1, 1, 1", "agent2 = 1, 1, 1, 0, 1.5707963, 0"))
        out = tmp_path / "out"
        rc = main(["run", str(path), "--mode", "quad", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: agent2:")
        assert not out.exists()

    def test_rejects_tilted_rendezvous_start(self, tmp_path, capsys):
        """A rendezvous starts every drone from a level hover, so a
        rolled agent exits 2 before anything flies; a scripted flight
        may start tilted."""
        path = write_cfg(tmp_path, BASE.replace(
            "mode = particle", "mode = quad").replace(
            "agent2 = 1, 1, 1", "agent2 = 1, 1, 1, 0.3, 0, 0"))
        out = tmp_path / "out"
        rc = main(["run", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: agent2: rendezvous legs start from "
                              "a level hover")
        assert not out.exists()
        scripted = write_cfg(tmp_path, SCRIPTED_CLIMB.replace(
            "agent1 = 0, 0, 0", "agent1 = 0, 0, 0, 0.3, 0, 0"), "tilt.cfg")
        assert load_config(scripted).agents[0, 3] == 0.3

    def test_agent_already_at_meeting_point(self, tmp_path, capsys):
        """Agent 1 sits at the agreement point of the three: its route
        is one 2 s hover, flown like any other leg."""
        path = write_cfg(tmp_path, """\
[mission]
mode = compare
T = 10
out = there
[network]
n = 3
edges = 1-2, 1-3, 2-3
[agents]
agent1 = 0, 0, 5
agent2 = 2, 0, 5
agent3 = -2, 0, 5
""")
        rc = main(["run", str(path), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "there" / "report.json").read_text())
        first = report["agents"][0]
        assert first["flight_time"] == 2.0
        assert first["quad_final_error"] == 0.0
        assert first["max_cross_track"] == 0.0
        assert first["final_position"] == [0.0, 0.0, 5.0]
        assert all(a["quad_final_error"] <= 1e-6 for a in report["agents"])

    def test_diverged_run_fails(self, tmp_path, capsys):
        """A step far past RK4's stability bound is refused before the
        first step, so not one numpy overflow warning is printed: the
        run exits 1 with a FAILED marker and writes neither
        particle.csv nor report.json, which would otherwise hold NaNs."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", str(scenario_path("scenario_2_5_2")),
                       "--dt", "0.5", "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        dest = tmp_path / "scenario_2_5_2"
        assert "DivergenceError" in (dest / "FAILED").read_text()
        assert not (dest / "particle.csv").exists()
        assert not (dest / "report.json").exists()

    def test_unstable_step_fails_though_finite(self, tmp_path, capsys):
        """At dt = 1 the static 2_4_1 network has dt * lambda_max = 4,
        past RK4's 2.785: its fastest mode grows fivefold per step but
        stays finite over the horizon, so only the check up front can
        refuse the run."""
        rc = main(["run", str(scenario_path("scenario_2_4_1")),
                   "--dt", "1.0", "--out", str(tmp_path)])
        assert rc == 1
        assert "largest stable step" in capsys.readouterr().err
        dest = tmp_path / "scenario_2_4_1"
        assert "DivergenceError" in (dest / "FAILED").read_text()
        assert not (dest / "particle.csv").exists()

    def test_failed_flight_leaves_earlier_agents_only(self, tmp_path,
                                                      capsys):
        """At dt = 0.9 agent 2 of scenario_4_2_2 gimbal-locks at t=2
        while agent 3 flies: the run keeps agent 1's CSV, writes none
        after the failing agent, and FAILED holds agent 2's error."""
        rc = main(["run", str(scenario_path("scenario_4_2_2")),
                   "--dt", "0.9", "--out", str(tmp_path)])
        assert rc == 1
        assert "gimbal lock near t=2.000000" in capsys.readouterr().err
        dest = tmp_path / "scenario_4_2_2"
        assert sorted(p.name for p in dest.iterdir()) \
            == ["FAILED", "particle.csv", "quad_agent1.csv"]
        assert (dest / "FAILED").read_text() == (
            "GimbalLockError: gimbal lock near t=2.000000: pitch "
            "-1.840401756544152 within 1e-06 of +-pi/2\n")

    def test_validate_plans_scripted_legs(self, tmp_path, capsys):
        """A scripted leg the rotor ceiling refuses fails validate, as
        it fails the run at planning time; the bundled legs plan."""
        assert main(["validate", str(scenario_path("scenario_4_2_1"))]) == 0
        assert capsys.readouterr().out.startswith("OK:")
        text = scenario_path("scenario_4_2_1").read_text(encoding="utf-8")
        assert "leg1 = vertical, 10, 12" in text
        path = write_cfg(tmp_path, text.replace(
            "leg1 = vertical, 10, 12", "leg1 = vertical, 60, 2"))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == (
            "FAIL: InfeasibleError: maneuver is infeasible at its natural "
            "amplitude: rotor speed 500.13763866247854 outside [0, 500.0] "
            "rad/s at t=0.194\n")

    def test_validate_plans_rendezvous_routes(self, tmp_path, capsys):
        """On a complete graph the targets need no protocol run, so
        validate plans every drone's route in agent order, as the run
        does: at m = 3.0 agent 1's route passes the rotor ceiling, and
        validate fails with the error the run leaves in FAILED."""
        assert main(["validate", str(scenario_path("scenario_4_2_2"))]) == 0
        assert capsys.readouterr().out.startswith("OK:")
        text = scenario_path("scenario_4_2_2").read_text(encoding="utf-8")
        path = write_cfg(tmp_path, text.replace(
            "[agents]", "[params]\nm = 3.0\n\n[agents]"))
        assert main(["validate", str(path)]) == 2
        first = capsys.readouterr().out.splitlines()[0]
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        failed = (tmp_path / "scenario_4_2_2" / "FAILED").read_text(
            encoding="utf-8")
        assert failed == (
            "InfeasibleError: maneuver is infeasible at its natural "
            "amplitude: rotor speed 500.00783654525253 outside [0, 500.0] "
            "rad/s at t=0.19743142037042358\n")
        assert first == "FAIL: " + failed.rstrip("\n")

    @pytest.mark.parametrize("horizon, flight", [
        ("", "[maneuvers]\nleg1 = hover, 0, 4\n"),
        ("", "[maneuvers]\nleg1 = vertical, 1, 4\n"),
        # a rendezvous of one drone: a 2 s hover where it stands
        ("T = 10\n", ""),
    ], ids=["hover-leg", "vertical-leg", "rendezvous-hover"])
    def test_hover_fails_at_the_ceiling_like_every_leg(
            self, tmp_path, capsys, horizon, flight):
        """At m = 3.05 the hover speed is past the rotor ceiling: a
        hover, scripted or flown to the meeting point, fails validate
        and run with the InfeasibleError of every other leg kind."""
        error = ("InfeasibleError: maneuver is infeasible at its natural "
                 "amplitude: rotor speed 500.65719827607035 outside "
                 "[0, 500.0] rad/s at t=0.0")
        path = write_cfg(tmp_path, SCRIPTED_CLIMB.split("[maneuvers]")[0]
                         .replace("[mission]\n", "[mission]\n" + horizon)
                         + "[params]\nm = 3.05\n" + flight)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == f"FAIL: {error}\n"
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        assert (tmp_path / "climb" / "FAILED").read_text(
            encoding="utf-8") == error + "\n"

    def test_yaw_without_reaction_torque_fails_planning(self, tmp_path,
                                                        capsys):
        """At Kd = 0 the rotors have no torque to yaw with: 4_2_2's
        routes yaw, so validate and run refuse it with an
        InfeasibleError naming Kd, where the law divided by zero."""
        error = "InfeasibleError: yaw by reaction torque needs Kd > 0"
        text = scenario_path("scenario_4_2_2").read_text(encoding="utf-8")
        path = write_cfg(tmp_path, text.replace(
            "[agents]", "[params]\nKd = 0\n\n[agents]"))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out.splitlines()[0] == f"FAIL: {error}"
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        assert (tmp_path / "scenario_4_2_2" / "FAILED").read_text(
            encoding="utf-8") == error + "\n"

    @pytest.mark.parametrize("text, beside, failed", [
        (PATH_M3, False,
         "InfeasibleError: maneuver is infeasible at its natural "
         "amplitude: rotor speed 500.0078172269999 outside "
         "[0, 500.0] rad/s at t=0.197432523471049\n"),
        (ring_text(), True, RING_FAILED),
    ], ids=["path-m3", "ring"])
    def test_validate_fails_as_the_run_fails(self, tmp_path, capsys, text,
                                             beside, failed):
        """validate runs the run's own prefix and then the protocol the
        run integrates beside its flights, as the ring's particle run
        does, so a route to a protocol endpoint that the rotors cannot
        fly, or a protocol that diverges after its first step, fails
        validate with the error the run leaves in FAILED."""
        path = write_cfg(tmp_path, text)
        assert (mission.prepare(load_config(path))[3] is not None) == beside
        assert main(["validate", str(path)]) == 2
        first = capsys.readouterr().out.splitlines()[0]
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        assert (tmp_path / "mission" / "FAILED").read_text(
            encoding="utf-8") == failed
        assert first == "FAIL: " + failed.rstrip("\n")

    @pytest.mark.parametrize("name", ["scenario_2_4_1", "scenario_4_2_2"])
    def test_validate_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                     name):
        """validate integrates the protocol of a particle or compare
        run but creates no output directory and no particle.csv."""
        monkeypatch.setenv("SWARM_OUT_DIR", str(tmp_path / "out"))
        monkeypatch.chdir(tmp_path)
        assert main(["validate", str(scenario_path(name))]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_list_scenarios(self, capsys):
        rc = main(["list-scenarios"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.endswith(".cfg") for line in lines)
