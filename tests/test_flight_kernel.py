"""The compiled flight chunk (quadswarm/_flight.c) against the Python step.

run_chunk transcribes quad._deriv and quad._rk4_step. These tests hold
it to them bit for bit, on drawn chunks and on the bundled flights, and
check that simulate flies through it where it builds and falls back to
the same bytes where it does not. Where no C compiler is found, the
tests that need one are skipped.
"""

import importlib.util
import math
import os
import shlex
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scenario_path
from quadswarm import quad
from quadswarm.errors import GimbalLockError
from quadswarm.mission import load_config, prepare, run_mission
from quadswarm.numerics import PITCH_LIMIT
from quadswarm.planner import ControlSchedule, Segment, hover_schedule, plan
from quadswarm.quad import (QuadState, default_params, hover_state, simulate,
                            _param_tuple)

P = default_params()
PC = _param_tuple(P)
SRC = Path(quad.__file__).resolve().parents[1]
COMPILER = shutil.which(shlex.split(os.environ.get("CC") or "cc")[0])


@pytest.fixture(scope="module")
def kernel(tmp_path_factory):
    """run_chunk, built from this checkout's _flight.c into a fresh
    cache: where a compiler exists, a C file that does not build or load
    fails here instead of falling back unnoticed."""
    if COMPILER is None:
        pytest.skip("no C compiler")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "pycache_prefix",
                   str(tmp_path_factory.mktemp("pycache")))
        mp.setattr(quad, "_kernel", None)
        run = quad.flight_kernel()
    assert run is not None
    return run


def python_chunk(x, hs, r1, rm, r4):
    """The steps of sizes hs from x as simulate takes them in Python:
    (the step that fails, or len(hs), the end states before it, and
    what failed it: the stage k1-k4 that met the gimbal band, "end" for
    an end state in it, "inf" for math's ValueError, or None)."""
    rows, calls = [], []
    deriv = quad._deriv
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_deriv",
                   lambda *a: calls.append(None) or deriv(*a))
        for i, h in enumerate(hs):
            calls.clear()
            try:
                x = quad._rk4_step(x, h, r1[i % len(r1)], rm[i % len(rm)],
                                   r4[i % len(r4)], PC)
            except GimbalLockError:
                return i, rows, f"k{len(calls)}"
            except ValueError:
                return i, rows, "inf"
            if x[4] >= PITCH_LIMIT or x[4] <= -PITCH_LIMIT:
                return i, rows, "end"
            rows.append(x)
    return len(hs), rows, None


def bits(rows):
    """The bytes of rows of states, every NaN made the one NaN: C and
    Python may order the operands of a + b or a * b differently, which
    can change the sign of a NaN that both are. No NaN reaches an
    output: a recorded state that is not finite fails the flight."""
    rows = np.array(rows, dtype=float).reshape(-1, 12)
    rows[np.isnan(rows)] = np.nan
    return rows.tobytes()


def assert_chunk_matches(run, x, hs, r1, rm, r4):
    """The kernel flies x under hs, r1, rm and r4 to the bytes of the
    Python steps and hands back at the step they fail at; returns what
    failed them (python_chunk) and the end states it wrote."""
    j, rows, cause = python_chunk(tuple(x), hs, r1.tolist(), rm.tolist(),
                                  r4.tolist())
    out = np.empty((len(hs), 12))
    flown = quad._kernel_steps(run, np.array(x), np.array(hs), r1, rm, r4,
                               np.array(PC), out)
    assert flown == j
    assert bits(out[:j]) == bits(rows)
    if len(set(hs)) == 1:
        # run_chunk's own answer: -1 when every step ran
        got = run(np.array(x).ctypes.data, len(hs), hs[0], r1.ctypes.data,
                  rm.ctypes.data, r4.ctypes.data, 5 if len(r1) > 1 else 0,
                  np.array(PC).ctypes.data, PITCH_LIMIT, out.ctypes.data)
        assert got == (-1 if j == len(hs) else j)
    return cause, out[:j]


# Pitches near the band, fast pitch rates and large pitch torques put
# the band at any stage; NaN, +-inf angles and 1e300 rates (whose
# squares overflow to inf) reach the other handoff and divergence paths.
_ANGLE = st.one_of(st.floats(-10.0, 10.0),
                   st.sampled_from([math.inf, -math.inf, math.nan]))
_PITCH = st.one_of(st.floats(-1.5, 1.5),
                   st.floats(PITCH_LIMIT - 0.05, PITCH_LIMIT + 1e-7),
                   st.floats(-PITCH_LIMIT - 1e-7, -PITCH_LIMIT + 0.05),
                   st.just(math.nan))
_RATE = st.one_of(st.floats(-50.0, 50.0),
                  st.sampled_from([math.nan, 1e300, -1e300]))
_TERM = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([1e308, -1e308]))


@st.composite
def chunks(draw):
    n = draw(st.integers(1, 6))
    x = [*draw(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)),
         draw(_ANGLE), draw(_PITCH), draw(_ANGLE),
         *draw(st.lists(_RATE, min_size=6, max_size=6))]
    h = draw(st.floats(1e-4, 0.1))
    # simulate's chunks: all steps of h, or the last one shorter
    hs = [h] * n
    if n > 1 and draw(st.booleans()):
        hs[-1] = draw(st.floats(1e-6, h, exclude_max=True))
    rows = 1 if draw(st.booleans()) else n
    r1, rm, r4 = (np.array(draw(st.lists(
        st.lists(_TERM, min_size=5, max_size=5),
        min_size=rows, max_size=rows))) for _ in range(3))
    return x, hs, r1, rm, r4


def random_chunk(rng):
    """A chunk of the kind chunks() draws, from a seeded generator."""
    def pick(lo, hi, special, p):
        return float(rng.choice(special) if rng.random() < p
                     else rng.uniform(lo, hi))

    n = int(rng.integers(1, 7))
    near = PITCH_LIMIT - rng.uniform(0.0, 0.05)
    # a start in the band fails at k1
    theta = float(rng.choice(
        [rng.uniform(-1.5, 1.5), near, -near, math.nan, PITCH_LIMIT],
        p=[0.3, 0.3, 0.3, 0.05, 0.05]))
    x = [*rng.uniform(-1e3, 1e3, 3).tolist(),
         pick(-10.0, 10.0, [math.inf, -math.inf, math.nan], 0.05), theta,
         pick(-10.0, 10.0, [math.inf, -math.inf, math.nan], 0.05),
         *(pick(-50.0, 50.0, [math.nan, 1e300, -1e300], 0.02)
           for _ in range(6))]
    h = rng.uniform(1e-4, 0.1)
    hs = [h] * n
    if n > 1 and rng.random() < 0.5:
        hs[-1] = rng.uniform(1e-6, h)
    rows = 1 if rng.random() < 0.5 else n
    r1, rm, r4 = (np.array([[pick(-50.0, 50.0, [1e308, -1e308], 0.02)
                             for _ in range(5)] for _ in range(rows)])
                  for _ in range(3))
    return x, hs, r1, rm, r4


class TestRunChunk:
    @settings(max_examples=300, deadline=None)
    @given(chunk=chunks())
    def test_equals_python_steps_bit_for_bit(self, kernel, chunk):
        assert_chunk_matches(kernel, *chunk)

    def test_every_handoff_is_reached(self, kernel):
        """Seeded draws meet the band at every stage and at the end
        state, meet +-inf angles, and go NaN and overflow to inf; each
        hands back at the step where Python fails, with its bytes."""
        rng = np.random.default_rng(2024)
        causes, nan, overflow = set(), False, False
        for _ in range(3000):
            x, *chunk = random_chunk(rng)
            cause, ends = assert_chunk_matches(kernel, x, *chunk)
            causes.add(cause)
            nan |= bool(np.isnan(ends).any())
            overflow |= bool(np.isfinite(x).all()
                             and np.isinf(ends).any())
        assert causes >= {"k1", "k2", "k3", "k4", "end", "inf", None}
        assert nan and overflow


def flights(name, dt=None):
    """The QuadTrajectory of every drone of a bundled scenario, in
    agent order, planned as its run plans them."""
    cfg = load_config(scenario_path(name))
    _, _, routes, _ = prepare(cfg)
    out = []
    for i, route in enumerate(routes):
        sched = plan(cfg.params, route)
        start = QuadState(b=cfg.agents[i, :3], angles=cfg.agents[i, 3:6],
                          v=np.zeros(3), Omega=np.zeros(3))
        out.append(simulate(start, sched, cfg.params, sched.total_duration,
                            dt or cfg.dt, cfg.stride))
    return out


class TestBundledFlights:
    @pytest.mark.parametrize("dt", [None, 0.0037], ids=["dt", "off-grid"])
    @pytest.mark.parametrize("name", ["scenario_4_2_1", "scenario_4_2_2"])
    def test_trajectories_do_not_depend_on_the_kernel(
            self, monkeypatch, kernel, name, dt):
        """The 4_2_1 flight and 4_2_2's three routes; at dt = 0.0037
        every window ends with a shorter step."""
        monkeypatch.setattr(quad, "_kernel", kernel)
        compiled = flights(name, dt)
        monkeypatch.setattr(quad, "_kernel", False)
        python = flights(name, dt)
        assert len(compiled) == len(python) >= 1
        for a, b in zip(compiled, python):
            for field in ("times", "states", "omegas", "thrust"):
                assert getattr(a, field).tobytes() \
                    == getattr(b, field).tobytes()

    @pytest.mark.parametrize("name", ["scenario_4_2_1", "scenario_4_2_2"])
    def test_quad_csvs_do_not_depend_on_the_kernel(
            self, tmp_path, monkeypatch, kernel, name):
        cfg = load_config(scenario_path(name))
        for label, run in (("compiled", kernel), ("python", False)):
            monkeypatch.setattr(quad, "_kernel", run)
            run_mission(cfg, out_dir=tmp_path / label)
        csvs = sorted(p.name for p in
                      (tmp_path / "compiled" / cfg.out).glob("quad_*.csv"))
        assert len(csvs) == cfg.network.n
        for csv in csvs:
            assert (tmp_path / "compiled" / cfg.out / csv).read_bytes() \
                == (tmp_path / "python" / cfg.out / csv).read_bytes()


class TestSimulateUsesTheKernel:
    def test_every_step_flies_compiled(self, monkeypatch, kernel):
        monkeypatch.setattr(quad, "_kernel", kernel)
        python, compiled = [], []
        step, kernel_steps = quad._rk4_step, quad._kernel_steps
        monkeypatch.setattr(quad, "_rk4_step",
                            lambda *a: python.append(a) or step(*a))
        monkeypatch.setattr(quad, "_kernel_steps", lambda *a: compiled.append(
            kernel_steps(*a)) or compiled[-1])
        simulate(hover_state(), hover_schedule(P, 0.5), P, 0.5)
        assert python == [] and sum(compiled) == 500

    def test_a_refused_sample_walks_its_chunk_in_python(self, monkeypatch,
                                                        kernel):
        """A chunk whose samples go through schedule.emit one at a time
        never reaches the kernel."""
        monkeypatch.setattr(quad, "_kernel", kernel)
        monkeypatch.setattr(ControlSchedule, "sample",
                            lambda self, seg, times: None)
        compiled = []
        kernel_steps = quad._kernel_steps
        monkeypatch.setattr(quad, "_kernel_steps", lambda *a: compiled.append(
            kernel_steps(*a)) or compiled[-1])
        sched = ControlSchedule((Segment(0.0, 0.05, lambda tl: (300.0,) * 4),))
        walked = simulate(hover_state(), sched, P, 0.05)
        monkeypatch.setattr(quad, "_kernel", False)
        assert compiled == []
        assert walked.states.tobytes() \
            == simulate(hover_state(), sched, P, 0.05).states.tobytes()


class TestBuild:
    def test_the_c_file_ships_with_the_package(self):
        assert (resources.files("quadswarm") / "_flight.c").is_file()

    def test_cache_writable_by_others_is_not_used(self, tmp_path,
                                                  monkeypatch):
        """A cache directory that another user could write is neither
        built into nor loaded from."""
        monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
        monkeypatch.setattr(quad, "_kernel", None)
        cache = Path(importlib.util.cache_from_source(
            str(Path(quad.__file__).with_name("_flight.c")))).parent
        cache.mkdir(parents=True)
        cache.chmod(0o777)
        assert quad.flight_kernel() is None
        assert list(cache.iterdir()) == []

    def test_no_compiler_falls_back_to_the_same_bytes(self, tmp_path):
        """CC=false on a fresh cache builds nothing, and the run writes
        the bytes, the output and the exit code of a run that built its
        kernel where a compiler exists."""
        def run(name, env):
            proc = subprocess.run(
                [sys.executable, "-m", "quadswarm.cli", "run",
                 str(scenario_path("scenario_4_2_1")),
                 "--out", str(tmp_path / name)],
                capture_output=True,
                env={**os.environ, **env, "PYTHONPATH": str(SRC),
                     "PYTHONPYCACHEPREFIX": str(tmp_path / f"{name}-cache")})
            return proc.returncode, proc.stdout, proc.stderr

        cc = {} if COMPILER is None else {"CC": os.environ.get("CC", "cc")}
        assert run("no-cc", {"CC": "false"}) == run("cc", cc)
        built = {p.name for p in (tmp_path / "cc-cache").rglob("_flight.*")}
        assert not any((tmp_path / "no-cc-cache").rglob("_flight.*"))
        if COMPILER is not None:
            assert len(built) == 1 and built.pop().endswith(".so")
        files = sorted(p.relative_to(tmp_path / "cc")
                       for p in (tmp_path / "cc").rglob("*"))
        assert files == sorted(p.relative_to(tmp_path / "no-cc")
                               for p in (tmp_path / "no-cc").rglob("*"))
        for f in files:
            if (tmp_path / "cc" / f).is_file():
                assert (tmp_path / "cc" / f).read_bytes() \
                    == (tmp_path / "no-cc" / f).read_bytes()
