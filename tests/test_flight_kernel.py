"""The compiled loops of quadswarm/_kernels.c against their references.

run_chunk transcribes quad._deriv and quad._rk4_step, and run_samples
the complete-graph branch of consensus._moving_step and the sample loop
of consensus._record. These tests hold each to its reference bit for
bit, on drawn inputs and on the bundled runs, and check that simulate
and integrate_protocol go through them where they build and fall back
to the same bytes where they do not. Where no C compiler is found, the
tests that need one are skipped. format_rows has tests/test_format.py.
"""

import ctypes
import importlib.util
import itertools
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COMPILER, mission_config, scenario_path
from quadswarm import consensus, native, quad
from quadswarm.errors import DivergenceError, GimbalLockError
from quadswarm.mission import load_config, prepare, run_mission
from quadswarm.network import DistanceWeighted, Network
from quadswarm.numerics import PITCH_LIMIT
from quadswarm.planner import ControlSchedule, Segment, hover_schedule, plan
from quadswarm.quad import (QuadState, default_params, hover_state, simulate,
                            _param_tuple)

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
            self, monkeypatch, lib, name, dt):
        """The 4_2_1 flight and 4_2_2's three routes; at dt = 0.0037
        every window ends with a shorter step."""
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
