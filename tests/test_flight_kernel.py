"""The compiled loops of quadswarm/_kernels.c against their references.

run_chunk transcribes quad._deriv and quad._rk4_step; run_law the yaw,
climb and translation-ramp laws of the planner; and run_samples the
complete-graph branch of consensus._moving_step and the sample loop of
consensus._record. These tests hold each to its reference bit for bit,
on drawn inputs and on the bundled runs, and check that simulate,
planner._law_rows and integrate_protocol go through them where they
build and fall back to the same bytes where they do not. Where no C
compiler is found, the tests that need one are skipped. format_rows
has tests/test_format.py.
"""

import ctypes
import importlib.util
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COMPILER, mission_config, scenario_path
from quadswarm import consensus, native, planner, quad
from quadswarm.errors import (DivergenceError, DomainError, GimbalLockError,
                              SwarmError)
from quadswarm.mission import load_config, prepare, run_mission
from quadswarm.network import DistanceWeighted, Network
from quadswarm.planner import (ControlSchedule, ManeuverSpec, Segment,
                               hover_controls, hover_schedule, plan,
                               schedule_for)
from quadswarm.quad import (PITCH_LIMIT, QuadState, default_params,
                            hover_state, simulate, _param_tuple)

P = default_params()
PC = _param_tuple(P)
SRC = Path(quad.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def kernel(lib):
    """run_chunk of the fresh build."""
    return lib.run_chunk


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
    Python (or numpy) may order the operands of a + b or a * b
    differently, which can change the sign of a NaN that both are. No
    NaN reaches an output: a recorded state that is not finite fails
    the flight or the protocol."""
    rows = np.array(rows, dtype=float)
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
    # run_chunk's own answer: -1 when every step ran; the arrays are
    # named so that they outlive the call that reads them
    x, hs, pc = np.array(x), np.array(hs), np.array(PC)
    got = run(x.ctypes.data, len(hs), hs.ctypes.data, r1.ctypes.data,
              rm.ctypes.data, r4.ctypes.data, 5 if len(r1) > 1 else 0,
              pc.ctypes.data, PITCH_LIMIT, out.ctypes.data)
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

    @pytest.mark.parametrize("bad", [
        "rows", "short-out", "out-width", "out-dtype", "out-strided",
        "x-size", "x-dtype"])
    def test_arrays_that_do_not_fit_are_refused(self, bad):
        """The C loop reads and writes its arrays unchecked, so arrays
        of the wrong shape, dtype or layout never reach it."""
        x, hs, out = np.zeros(12), np.full(3, 1e-3), np.empty((3, 12))
        r = np.zeros((3 if bad != "rows" else 2, 5))
        if bad == "short-out":
            out = out[:2]
        elif bad == "out-width":
            out = np.empty((3, 13))
        elif bad == "out-dtype":
            out = out.astype(np.float32)
        elif bad == "out-strided":
            out = np.empty((6, 12))[::2]
        elif bad == "x-size":
            x = np.zeros(11)
        elif bad == "x-dtype":
            x = np.zeros(12, np.float32)
        calls = []
        with pytest.raises(DomainError, match="do not fit"):
            quad._kernel_steps(lambda *a: calls.append(a), x, hs, r, r, r,
                               np.array(PC), out)
        assert calls == []

    def test_a_shorter_last_step_flies_in_the_same_call(self, kernel):
        """A window's last step, shorter than the others, is one more
        entry of hs: one call flies the whole chunk."""
        rng = np.random.default_rng(7)
        x = [*rng.uniform(-5.0, 5.0, 3), *rng.uniform(-0.5, 0.5, 3),
             *rng.uniform(-2.0, 2.0, 6)]
        hs = [1e-3] * 6 + [3.7e-4]
        r1, rm, r4 = (rng.uniform(-1.0, 1.0, (7, 5)) for _ in range(3))
        calls = []

        def run(*args):
            calls.append(args[1])
            return kernel(*args)

        cause, ends = assert_chunk_matches(run, x, hs, r1, rm, r4)
        assert cause is None and len(ends) == 7
        # _kernel_steps' call, then the check's own call of run_chunk
        assert calls == [7, 7]


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
            self, monkeypatch, lib, name, dt):
        """The 4_2_1 flight and 4_2_2's three routes, planned and flown
        with the library (run_law samples the laws, run_chunk takes the
        steps) and without it; at dt = 0.0037 every window ends with a
        shorter step."""
        monkeypatch.setattr(native, "_lib", lib)
        compiled = flights(name, dt)
        monkeypatch.setattr(native, "_lib", False)
        python = flights(name, dt)
        assert len(compiled) == len(python) >= 1
        for a, b in zip(compiled, python):
            for field in ("times", "states", "omegas", "thrust"):
                assert getattr(a, field).tobytes() \
                    == getattr(b, field).tobytes()

    @pytest.mark.parametrize("name", ["scenario_4_2_1", "scenario_4_2_2"])
    def test_quad_csvs_do_not_depend_on_the_kernel(
            self, tmp_path, monkeypatch, lib, name):
        cfg = load_config(scenario_path(name))
        for label, so in (("compiled", lib), ("python", False)):
            monkeypatch.setattr(native, "_lib", so)
            run_mission(cfg, out_dir=tmp_path / label)
        csvs = sorted(p.name for p in
                      (tmp_path / "compiled" / cfg.out).glob("quad_*.csv"))
        assert len(csvs) == cfg.network.n
        for csv in csvs:
            assert (tmp_path / "compiled" / cfg.out / csv).read_bytes() \
                == (tmp_path / "python" / cfg.out / csv).read_bytes()


class TestSimulateUsesTheKernel:
    def test_every_step_flies_compiled(self, monkeypatch, lib):
        monkeypatch.setattr(native, "_lib", lib)
        python, compiled = [], []
        step, kernel_steps = quad._rk4_step, quad._kernel_steps
        monkeypatch.setattr(quad, "_rk4_step",
                            lambda *a: python.append(a) or step(*a))
        monkeypatch.setattr(quad, "_kernel_steps", lambda *a: compiled.append(
            kernel_steps(*a)) or compiled[-1])
        simulate(hover_state(), hover_schedule(P, 0.5), P, 0.5)
        assert python == [] and sum(compiled) == 500

    def test_one_call_per_chunk(self, monkeypatch, lib):
        """Chunks of 100 steps over a window of 503 steps of dt and a
        shorter last one: six calls, the last with the shorter step."""
        monkeypatch.setattr(native, "_lib", lib)
        monkeypatch.setattr(quad, "_CHUNK", 100)
        step, kernel_steps = quad._rk4_step, quad._kernel_steps
        python, calls = [], []
        monkeypatch.setattr(quad, "_rk4_step",
                            lambda *a: python.append(a) or step(*a))
        monkeypatch.setattr(quad, "_kernel_steps", lambda *a: calls.append(
            (a[2].tolist(), kernel_steps(*a))) or calls[-1][1])
        traj = simulate(hover_state(), hover_schedule(P, 0.50337), P, 0.50337)
        assert python == []
        assert [j for _, j in calls] == [100] * 5 + [4]
        assert calls[-1][0][:3] == [1e-3] * 3
        assert calls[-1][0][3] == pytest.approx(3.7e-4, abs=1e-12)
        assert traj.times[-1] == 0.50337

    def test_a_hover_law_flies_as_the_constant_schedule(self, monkeypatch,
                                                        lib):
        """A hover written as a plain law of one row and the one that
        ControlSchedule.constant builds fly the same bytes, compiled
        and in Python; compiled, each chunk reaches run_chunk with one
        row of rotor terms (a row stride of 0)."""
        monkeypatch.setattr(quad, "_CHUNK", 100)
        speeds = tuple(hover_controls(P).omega.tolist())
        calls = []

        def run(*args):
            calls.append((args[1], args[6]))
            return lib.run_chunk(*args)

        flown = []
        for so in (SimpleNamespace(run_chunk=run), False):
            monkeypatch.setattr(native, "_lib", so)
            for sched in (ControlSchedule((Segment(0.0, 0.5,
                                                   lambda tl: speeds),)),
                          ControlSchedule.constant(speeds, 0.5)):
                flown.append(simulate(hover_state(), sched, P, 0.5))
        assert calls == [(100, 0)] * 10
        for traj in flown[1:]:
            for field in ("times", "states", "omegas", "thrust"):
                assert getattr(traj, field).tobytes() \
                    == getattr(flown[0], field).tobytes()

    def test_a_refused_sample_walks_its_chunk_in_python(self, monkeypatch,
                                                        lib):
        """A chunk whose samples go through schedule.emit one at a time
        never reaches the kernel."""
        monkeypatch.setattr(native, "_lib", lib)
        monkeypatch.setattr(ControlSchedule, "sample",
                            lambda self, seg, times: None)
        compiled = []
        kernel_steps = quad._kernel_steps
        monkeypatch.setattr(quad, "_kernel_steps", lambda *a: compiled.append(
            kernel_steps(*a)) or compiled[-1])
        sched = ControlSchedule((Segment(0.0, 0.05, lambda tl: (300.0,) * 4),))
        walked = simulate(hover_state(), sched, P, 0.05)
        monkeypatch.setattr(native, "_lib", False)
        assert compiled == []
        assert walked.states.tobytes() \
            == simulate(hover_state(), sched, P, 0.05).states.tobytes()


class TestBuild:
    def test_the_c_file_ships_with_the_package(self):
        assert (resources.files("quadswarm") / "_kernels.c").is_file()

    def test_cache_writable_by_others_is_not_used(self, tmp_path,
                                                  monkeypatch):
        """A cache directory that another user could write is neither
        built into nor loaded from."""
        monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
        monkeypatch.setattr(native, "_lib", None)
        cache = Path(importlib.util.cache_from_source(
            str(Path(native.__file__).with_name("_kernels.c")))).parent
        cache.mkdir(parents=True)
        cache.chmod(0o777)
        assert native.library() is None
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
        built = {p.name for p in (tmp_path / "cc-cache").rglob("_kernels.*")}
        assert not any((tmp_path / "no-cc-cache").rglob("_kernels.*"))
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


# ---- run_samples: the complete-graph protocol step and its samples ----

def counting(lib):
    """lib with a run_samples that also appends the steps each call
    took, read from its ctl argument, to the returned list."""
    steps = []

    def run_samples(*args):
        ctl = ctypes.c_int64.from_address(args[10])
        k = ctl.value
        got = lib.run_samples(*args)
        steps.append(ctl.value - k)
        return got

    return SimpleNamespace(run_chunk=lib.run_chunk, run_samples=run_samples,
                           format_rows=lib.format_rows), steps


def complete(n, threshold=10.0):
    return Network(n, itertools.combinations(range(1, n + 1), 2),
                   DistanceWeighted(threshold))


def taylor(dt):
    c2 = dt * dt / 2.0
    c3 = dt * c2 / 3.0
    return dt, c2, c3, dt * c3 / 4.0


def protocol_run(q0, steps, stride, dt=1e-3, stop_tol=0.0):
    """(times, states, stop) of consensus._record for steps of
    _moving_step on the complete graph from q0, with the library
    native._lib holds and no start check."""
    q = np.array(q0, dtype=float)
    advance, compiled = consensus._moving_step(complete(len(q)), q, dt,
                                               taylor(dt), [])
    return consensus._record(q, consensus.consensus_point(q), advance,
                             compiled, steps, stride, dt, stop_tol)


def protocol_steps(q0, count, dt=1e-3):
    """q0 after count steps, the last sample of a run of one stride."""
    times, states, _ = protocol_run(q0, count, count, dt)
    assert len(times) == 2
    return states[-1]


def both_ways(monkeypatch, lib, run):
    """run() with the compiled library, counted, and without it:
    (compiled result, numpy result, steps the compiled calls took)."""
    so, taken = counting(lib)
    monkeypatch.setattr(native, "_lib", so)
    compiled = run()
    monkeypatch.setattr(native, "_lib", False)
    return compiled, run(), sum(taken)


def artifacts(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestRunProtocol:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_equals_numpy_steps_bit_for_bit(self, monkeypatch, lib, r):
        """n in 1..40 (the 8-accumulator row sums end at 128 terms) and
        129..140 (where they split in two), each with a -0.0 coordinate;
        states of one agent or one coordinate stay on numpy, as its dot
        calls other BLAS routines for them."""
        rng = np.random.default_rng(r)
        for n in [*range(1, 41), *range(129, 141)]:
            q0 = rng.uniform(-1.0, 1.0, (n, r))
            q0[0, 0] = -0.0
            q0[-1, -1] = -0.0
            got, want, taken = both_ways(monkeypatch, lib,
                                         lambda: protocol_steps(q0, 7))
            assert taken == (7 if n >= 2 and r >= 2 else 0)
            assert np.isfinite(want).all()
            assert got.tobytes() == want.tobytes(), (n, r)

    @pytest.mark.parametrize("scale", [1e100, 1e160, 1e300])
    def test_overflowing_steps_equal_numpy_steps(self, monkeypatch, lib,
                                                 scale):
        """Squares that overflow to inf, and the inf - inf and 0 * inf
        that follow, give numpy's infinities and NaNs (NaN signs aside,
        which no output shows)."""
        q0 = np.random.default_rng(7).uniform(-scale, scale, (5, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            got, want, taken = both_ways(monkeypatch, lib,
                                         lambda: protocol_steps(q0, 5))
        assert taken == 5
        assert not np.isfinite(want).all()
        assert bits(got) == bits(want)

    def test_divergence_fails_at_the_same_sample(self, monkeypatch, lib):
        """A complete graph stepped past RK4's stability limit (its
        start check switched off) overflows inside run_samples, and the
        run fails with the text, at the sample, and after the samples of
        the numpy steps."""
        monkeypatch.setattr(consensus.StartSpectrum, "check",
                            lambda self, dt: None)
        q0 = np.random.default_rng(3).uniform(-5.0, 5.0, (6, 3))

        def run():
            with pytest.raises(DivergenceError) as e:
                consensus.integrate_protocol(complete(6), q0, 50.0, dt=0.5,
                                             stride=10)
            times, states, stop = protocol_run(q0, 100, 10, 0.5, 1e-4)
            return str(e.value), times.tolist(), bits(states), stop

        compiled, numpy, taken = both_ways(monkeypatch, lib, run)
        text, times, _, stop = compiled
        assert compiled == numpy
        assert stop == consensus._DIVERGED
        assert text == f"protocol state is non-finite at t={times[-1]:.6f}"
        # each run took its steps in C: integrate_protocol's and _record's
        assert taken == 2 * 10 * (len(times) - 1)

    def test_a_nan_ends_the_run_as_divergence(self, monkeypatch, lib):
        """One NaN coordinate makes every distance of its agent NaN, and
        the first sample's spread NaN, which is no early stop, however
        large stop_tol, but the non-finite stop."""
        q0 = np.random.default_rng(4).uniform(-1.0, 1.0, (4, 3))
        q0[2, 1] = np.nan
        compiled, numpy, taken = both_ways(
            monkeypatch, lib, lambda: protocol_run(q0, 50, 10, stop_tol=1e9))
        assert [len(compiled[0]), compiled[2]] == [2, consensus._DIVERGED]
        assert numpy[2] == consensus._DIVERGED
        assert compiled[0].tobytes() == numpy[0].tobytes()
        assert bits(compiled[1]) == bits(numpy[1])
        assert taken == 10

    # Each run of 5 agents from the same start, at dt = 1e-3: (stride,
    # horizon in steps, stop_tol, samples recorded). The spread falls
    # below 0.03 at step 3458 = 7 * 494; 3459 samples fill 14 blocks.
    # A horizon past int64 stays in Python, and its early stop ends it.
    @pytest.mark.parametrize("stride, steps, stop_tol, samples", [
        (7, 100_000, 0.03, 495), (1, 100_000, 0.03, 3459),
        (10 ** 6, 2000, 0.0, 2), (2 ** 70, 2000, 0.0, 2),
        (3, 3001, 0.0, 1002), (256, 256 * 300, 0.0, 301),
        (7, 10 ** 20, 0.03, 495)],
        ids=["stride 7", "stride 1", "stride past the run",
             "stride past int64", "horizon off stride", "block edges",
             "horizon past int64"])
    def test_samples_equal_the_numpy_samples(self, monkeypatch, lib, stride,
                                             steps, stop_tol, samples):
        q0 = np.random.default_rng(5).uniform(-3.0, 3.0, (5, 3))
        compiled, numpy, taken = both_ways(
            monkeypatch, lib,
            lambda: protocol_run(q0, steps, stride, stop_tol=stop_tol))
        assert len(compiled[0]) == samples
        assert compiled[2] == (consensus._STOPPED if stop_tol else 0)
        assert compiled[0].tobytes() == numpy[0].tobytes()
        assert compiled[1].tobytes() == numpy[1].tobytes()
        assert compiled[2] == numpy[2]
        assert taken == (round(compiled[0][-1] / 1e-3) if steps < 2 ** 63
                         else 0)

    @pytest.mark.parametrize("block", [1, 2, 3, 4])
    def test_small_blocks_give_the_same_samples(self, monkeypatch, lib,
                                                block):
        """Blocks of 1 to 4 samples put a block's end at every sample of
        the run, the stop sample included."""
        q0 = np.random.default_rng(5).uniform(-3.0, 3.0, (5, 3))
        want = protocol_run(q0, 100_000, 7, stop_tol=0.03)
        monkeypatch.setattr(consensus, "_SAMPLES", block)
        compiled, numpy, _ = both_ways(
            monkeypatch, lib, lambda: protocol_run(q0, 100_000, 7,
                                                   stop_tol=0.03))
        for got in (compiled, numpy):
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2] == want[2]

    def test_a_spread_equal_to_stop_tol_goes_on(self, monkeypatch, lib):
        """The run stops where the spread is below stop_tol, not where it
        equals it: at stop_tol equal to the spread of sample 100, the
        run stops at a later sample."""
        q0 = np.random.default_rng(5).uniform(-3.0, 3.0, (5, 3))
        alpha = consensus.consensus_point(q0)
        _, states, _ = protocol_run(q0, 1000, 7)
        spreads = np.max(np.abs(states - alpha), axis=(1, 2))
        tol = float(spreads[100])
        assert np.all(spreads[:100] > tol)
        compiled, numpy, _ = both_ways(
            monkeypatch, lib, lambda: protocol_run(q0, 1000, 7,
                                                   stop_tol=tol))
        assert len(compiled[0]) > 101
        assert compiled[1].tobytes() == numpy[1].tobytes()

    @pytest.mark.parametrize("stride", [10, 7])
    def test_bundled_run_hands_over_to_c(self, monkeypatch, lib, stride):
        """2_5_2's graph grows complete in step 109, so the numpy steps
        end at step 110, a sample at stride 10 and mid-stride at 7; the
        first 3 s, 301 samples at stride 10, fill two blocks."""
        if native.numpy_blas() is None:
            pytest.skip("numpy exports no ILP64 CBLAS routines")
        cfg = load_config(scenario_path("scenario_2_5_2"))

        def run():
            return consensus.integrate_protocol(
                cfg.network, cfg.agents[:, :3], 3.0, cfg.dt, stride,
                cfg.stop_tol)

        compiled, numpy, taken = both_ways(monkeypatch, lib, run)
        assert taken == 3000 - 110
        assert [t for t, _ in compiled.laplacian_log][-1] == 0.109
        assert compiled.times.tobytes() == numpy.times.tobytes()
        assert compiled.states.tobytes() == numpy.states.tobytes()

    @pytest.mark.parametrize("name", ["scenario_2_5_2", "swarm1", "swarm2"])
    def test_artifacts_do_not_depend_on_the_kernel(
            self, tmp_path, monkeypatch, lib, name):
        """particle.csv and report.json of the bundled distance-weighted
        scenario and of the benchmark's two 24-agent swarms."""
        cfg = mission_config(tmp_path, name)
        for label, so in (("compiled", lib), ("numpy", False)):
            monkeypatch.setattr(native, "_lib", so)
            run_mission(cfg, out_dir=tmp_path / label)
        compiled = artifacts(tmp_path / "compiled")
        assert {p.name for p in compiled} == {"particle.csv", "report.json"}
        assert compiled == artifacts(tmp_path / "numpy")

    def test_missing_blas_symbols_fall_back_to_numpy(self, monkeypatch, lib):
        so, taken = counting(lib)
        monkeypatch.setattr(native, "_lib", so)
        monkeypatch.setattr(native, "_blas", None)
        monkeypatch.setattr(native, "_BLAS_SYMBOLS",
                            ("no_such_dgemm", "no_such_dgemv"))
        q0 = np.random.default_rng(9).uniform(-1.0, 1.0, (4, 3))
        got = protocol_steps(q0, 20)
        monkeypatch.setattr(native, "_lib", False)
        want = protocol_steps(q0, 20)
        assert native.numpy_blas() is None
        assert taken == []
        assert got.tobytes() == want.tobytes()

    def test_bundled_run_takes_its_steps_in_c(self, monkeypatch, lib):
        """2_5_2's graph is complete from step 110 of 150,000, so a
        silent fallback to numpy cannot pass unseen."""
        if native.numpy_blas() is None:
            pytest.skip("numpy exports no ILP64 CBLAS routines")
        so, taken = counting(lib)
        monkeypatch.setattr(native, "_lib", so)
        cfg = load_config(scenario_path("scenario_2_5_2"))
        traj = consensus.integrate_protocol(
            cfg.network, cfg.agents[:, :3], cfg.T, cfg.dt, cfg.stride,
            cfg.stop_tol)
        assert sum(taken) == 150_000 - 110
        # after the 12 samples to step 110, the first call fills the
        # first block of 256 samples, and every later call one more
        assert len(traj.times) == 15_001
        assert len(taken) == 1 + -(-(15_001 - 256) // 256)


# ---- run_law: the planner's yaw, climb and translation-ramp laws ----

# Vehicles whose laws reach every refusal between them: the default,
# whose ramps meet the tilt guard and the torque budget; one whose
# heavy rotors the balancing pair cannot always cancel; and one whose
# body z drag can make a ramp's thrust nonpositive
VEHICLES = {"default": P, "heavy-rotors": replace(P, Jr_bar=3e-2),
            "z-drag": replace(P, CD=np.array([5e-4, 5e-4, 5.0]))}

# The refusals of the four laws, each a prefix of its error text
REFUSALS = ("yaw torque exceeds rotor authority at t=",
            "descent wants negative thrust at t=",
            "translation wants tilt beyond 0.785 rad",
            "profile demands nonpositive thrust",
            "torque demand exceeds thrust budget",
            "balancing pair cannot cancel the gyroscopic torque")

# The drawn amounts: radians of yaw, meters otherwise
_AMOUNT = {"yaw": 6.0, "vertical": 60.0, "bodyX": 40.0, "bodyY": 40.0}


@pytest.fixture(scope="module")
def law_kernel(lib):
    """run_law of the fresh build."""
    return lib.run_law


def law_segments(kind, amount, duration, vehicle):
    """The schedule of one maneuver, built without its feasibility
    probe so that refused amplitudes build too, and its segments whose
    laws carry a compiled form; None where the build itself refuses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "_feasible", lambda sched: sched)
        try:
            sched = schedule_for(VEHICLES[vehicle],
                                 ManeuverSpec(kind, amount, duration))
        except SwarmError:
            return None
    segs = [seg for seg in sched.segments if hasattr(seg.law, "kernel")]
    assert len(segs) == (1 if kind in ("yaw", "vertical") else 2)
    return sched, segs


def sampled(sched, seg, tl):
    """seg's law at the local times tl through _law_rows, and emit at
    the first of them: each as its bytes, or as its error's type and
    text."""
    def outcome(f):
        try:
            return np.ascontiguousarray(f(), dtype=float).tobytes()
        except (SwarmError, ValueError) as e:
            return type(e).__name__, str(e)

    return (outcome(lambda: planner._law_rows(seg, tl)),
            outcome(lambda: sched.emit(seg, seg.t0 + tl[0])))


def law_both_ways(law_kernel, sched, seg, tl):
    """sampled() with law_kernel as native._lib's only entry and with
    no library: (compiled, python, what each run_law call returned)."""
    returned = []

    def run_law(*args):
        returned.append(law_kernel(*args))
        return returned[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "_lib", SimpleNamespace(run_law=run_law))
        compiled = sampled(sched, seg, tl)
        mp.setattr(native, "_lib", False)
        python = sampled(sched, seg, tl)
    return compiled, python, returned


def refusal(outcome):
    """The REFUSALS entry an outcome's error text starts with, or None
    for speeds."""
    if isinstance(outcome, bytes):
        return None
    (prefix,) = [r for r in REFUSALS if outcome[1].startswith(r)]
    return prefix


@st.composite
def maneuvers(draw):
    kind = draw(st.sampled_from(sorted(_AMOUNT)))
    amount = draw(st.floats(-_AMOUNT[kind], _AMOUNT[kind]))
    return (kind, amount, draw(st.floats(0.5, 20.0)),
            draw(st.sampled_from(sorted(VEHICLES))))


class TestRunLaw:
    @settings(max_examples=300, deadline=None)
    @given(maneuver=maneuvers(), u=st.floats(0.0, 1.0))
    def test_equals_the_python_law_bit_for_bit(self, law_kernel, maneuver,
                                               u):
        """Each compiled segment of a drawn yaw, climb, descent or
        bodyX or bodyY translation, on a grid and at one drawn time:
        the same speeds, or the same refusal."""
        built = law_segments(*maneuver)
        if built is None:
            return
        sched, segs = built
        for seg in segs:
            span = seg.t1 - seg.t0
            for tl in (np.linspace(0.0, span, 65), np.array([u * span])):
                compiled, python, returned = law_both_ways(
                    law_kernel, sched, seg, tl)
                assert compiled == python
                assert returned[0] == (refusal(python[0]) is not None)

    def test_every_refusal_is_reached(self, law_kernel):
        """Seeded maneuvers of every kind on every vehicle, on grids of
        257 times and at single times: the compiled law gives the Python
        law's bits wherever it refuses nothing, goes back to Python
        exactly where a check refuses, and every refusal is met."""
        rng = np.random.default_rng(36)
        met = set()
        for kind, vehicle in itertools.product(sorted(_AMOUNT),
                                               sorted(VEHICLES)):
            for _ in range(25):
                built = law_segments(
                    kind, float(rng.uniform(-_AMOUNT[kind], _AMOUNT[kind])),
                    float(rng.uniform(0.5, 10.0)), vehicle)
                if built is None:
                    continue
                sched, segs = built
                for seg in segs:
                    span = seg.t1 - seg.t0
                    for tl in (np.linspace(0.0, span, 257),
                               rng.uniform(0.0, span, 1)):
                        compiled, python, returned = law_both_ways(
                            law_kernel, sched, seg, tl)
                        assert compiled == python
                        met.add(refusal(python[0]))
                        assert returned[0] == (refusal(python[0])
                                               is not None)
        assert met == {None, *REFUSALS}

    @pytest.mark.parametrize("vehicle, kind, amount, duration, leg, t, text",
                             [("default", "yaw", -40.0, 0.5, 0, 0.0125,
                               REFUSALS[0]),
                              ("default", "vertical", -40.0, 0.5, 0, 0.0125,
                               REFUSALS[1]),
                              ("default", "bodyX", -40.0, 0.5, 0, 0.0025,
                               REFUSALS[2]),
                              ("z-drag", "bodyX", -40.0, 1.0, 1, 0.005,
                               REFUSALS[3]),
                              ("default", "bodyX", -40.0, 0.5, 0, 0.0,
                               REFUSALS[4]),
                              ("heavy-rotors", "bodyX", -40.0, 2.0, 0, 0.38,
                               REFUSALS[5])],
                             ids=["yaw", "descent", "tilt", "thrust",
                                  "torque", "gyro"])
    def test_a_handed_back_call_raises_the_python_text(
            self, law_kernel, vehicle, kind, amount, duration, leg, t,
            text):
        """A refused time goes back to Python, which raises its own
        text there and in emit; a grid that holds the time goes back
        too, and raises the first check in the law's order that any of
        its times fails."""
        sched, segs = law_segments(kind, amount, duration, vehicle)
        seg = segs[leg]
        compiled, python, returned = law_both_ways(law_kernel, sched, seg,
                                                   np.array([t]))
        assert compiled == python
        assert returned == [1, 1]
        assert refusal(python[0]) == refusal(python[1]) == text
        grid = np.linspace(0.0, seg.t1 - seg.t0, 33)
        compiled, python, returned = law_both_ways(
            law_kernel, sched, seg, np.sort(np.append(grid, t)))
        assert compiled == python
        assert returned[0] == 1 and refusal(python[0]) is not None

    @pytest.mark.parametrize("kind", sorted(_AMOUNT))
    def test_a_time_that_is_not_finite_goes_back(self, law_kernel, kind):
        """At +-inf math.cos raises ValueError, or a ramp's speeds go
        NaN, and at NaN every law's do: run_law hands each back, and the
        Python law raises or returns its own bits."""
        sched, segs = law_segments(kind, 1.0, 4.0, "default")
        for t in (math.inf, -math.inf, math.nan):
            compiled, python, returned = law_both_ways(
                law_kernel, sched, segs[0], np.array([t, 0.5]))
            assert compiled == python
            assert returned == [1, 1]

    @pytest.mark.parametrize("name", ["scenario_4_2_1", "scenario_4_2_2"])
    def test_bundled_flights_sample_every_law_in_c(self, monkeypatch,
                                                   law_kernel, lib, name):
        """Planning and flying the 4_2_1 flight and 4_2_2's three routes
        call run_law for every probe grid, every chunk and every emit
        of a compiled law, and no call goes back to Python."""
        returned = []

        def run_law(*args):
            returned.append(law_kernel(*args))
            return returned[-1]

        monkeypatch.setattr(native, "_lib", SimpleNamespace(
            run_chunk=lib.run_chunk, run_law=run_law))
        flights(name)
        assert len(returned) > 10 and set(returned) == {0}

    def test_constants_that_do_not_fit_the_kind_are_refused(self):
        """run_law reads a law's constants unchecked, so a count that
        does not fit its kind never reaches it."""
        with pytest.raises(DomainError, match="takes 8 constants, got 7"):
            planner._compiled(lambda tl: tl, planner._YAW, *[1.0] * 7)
