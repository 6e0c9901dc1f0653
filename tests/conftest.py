"""Shared fixtures and the acceptance summary reporter.

The acceptance module's outcomes are echoed as one PASS/FAIL line per
check at the end of the run, so the gate status is readable without
scrolling through the full pytest output.
"""

import dataclasses
import importlib.util
import os
import pathlib
import shlex
import shutil
import sys
import time

import numpy as np
import pytest

from quadswarm import native
from quadswarm.consensus import integrate_protocol
from quadswarm.mission import load_config

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SCENARIOS = _ROOT / "src/quadswarm/scenarios"

# The C compiler native.library builds with, or None
COMPILER = shutil.which(shlex.split(os.environ.get("CC") or "cc")[0])

_acceptance = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and item.fspath.basename == "test_acceptance.py":
        _acceptance[item.name] = rep.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance summary")
    for name, outcome in _acceptance.items():
        mark = {"passed": "PASS", "failed": "FAIL"}.get(
            outcome, outcome.upper())
        terminalreporter.write_line(f"{mark}  {name}")


def scenario_path(name):
    return _SCENARIOS / f"{name}.cfg"


def swarm_text(swarm_seed):
    """The benchmark's 24-agent distance-weighted swarm, run seed 1."""
    spec = importlib.util.spec_from_file_location(
        "workloads", _ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.swarm_config(1, swarm_seed)


def mission_config(tmp_path, name):
    """The config of a bundled scenario, or of swarm1 or swarm2, the
    benchmark's swarms of swarm seeds 1 and 2."""
    if name.startswith("swarm"):
        path = tmp_path / f"{name}.cfg"
        path.write_text(swarm_text(int(name[-1])))
        return load_config(path)
    return load_config(scenario_path(name))


@pytest.fixture(scope="session")
def lib(tmp_path_factory):
    """The shared object of _kernels.c, built from this checkout into a
    fresh cache: where a compiler exists, a C file that does not build or
    load fails here instead of falling back unnoticed."""
    if COMPILER is None:
        pytest.skip("no C compiler")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "pycache_prefix",
                   str(tmp_path_factory.mktemp("pycache")))
        mp.setattr(native, "_lib", None)
        so = native.library()
    assert so is not None
    return so


@pytest.fixture(scope="session")
def cfg_fixed_unweighted():
    return load_config(scenario_path("scenario_2_4_1"))


@pytest.fixture(scope="session")
def cfg_fixed_weighted():
    return load_config(scenario_path("scenario_2_5_1"))


@pytest.fixture(scope="session")
def cfg_time_varying():
    return load_config(scenario_path("scenario_2_5_2"))


@dataclasses.dataclass(frozen=True)
class TimedRun:
    """A scenario integration plus how long it took."""

    traj: object
    wall: float


def timed_protocol_run(net, q0, duration, dt, stride, stop_tol):
    start = time.perf_counter()
    traj = integrate_protocol(net, q0, duration, dt=dt, stride=stride,
                              stop_tol=stop_tol)
    return TimedRun(traj=traj, wall=time.perf_counter() - start)


def _run(cfg):
    return timed_protocol_run(
        cfg.network, np.asarray(cfg.agents, dtype=float)[:, :3],
        cfg.T, cfg.dt, cfg.stride, cfg.stop_tol)


@pytest.fixture(scope="session")
def run_fixed_unweighted(cfg_fixed_unweighted):
    return _run(cfg_fixed_unweighted)


@pytest.fixture(scope="session")
def run_fixed_weighted(cfg_fixed_weighted):
    return _run(cfg_fixed_weighted)


@pytest.fixture(scope="session")
def run_time_varying(cfg_time_varying):
    return _run(cfg_time_varying)
