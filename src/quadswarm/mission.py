"""Mission configs, mission runs, and their artifacts.

A mission file is INI-style: a [mission] section (mode and integration
settings), a [network] section, an [agents] section, and optional
[params] and [maneuvers] sections. Runs write CSV trajectories plus a
report.json into an output directory, each whole or not at all
(_write_lines); a failed run leaves a FAILED marker file next to the
artifacts it finished.
"""

import configparser
import contextlib
import functools
import itertools
import json
import math
import os
import pickle
import re
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .consensus import (ConsensusTrajectory, consensus_point,
                        integrate_protocol, max_cross_track)
from .errors import (DivergenceError, DomainError, IoError, ParseError,
                     SwarmError, ValidationError)
from .network import (DistanceWeighted, Network, StaticWeights, Unweighted,
                      is_complete, pairwise_distances)
from .numerics import sym_eigen
from .planner import (ManeuverSpec, plan, rendezvous_route,
                      require_level_hover)
# Unused by mission: perfbench/spans.py wraps these two bindings, and the
# next benchmark change removes that wrapper and these imports together.
from .planner import rendezvous_leg, schedule_for
from .quad import (QuadParams, QuadState, QuadTrajectory, default_params,
                   simulate)

MODES = ("particle", "quad", "compare")

# Each section's named keys, and the pattern of its numbered keys,
# whose numbers are >= 1 and written as str(int) writes them, so that
# every key has one spelling.
_KEYS = {
    "mission": {"mode", "T", "dt", "stride", "stop_tol", "out"},
    "network": {"n", "edges", "weights", "threshold"},
    "agents": set(),
    "params": {"m", "J", "Jr_bar", "d", "Kr", "Kd", "CD", "Ctau", "g"},
    "maneuvers": set(),
}
_NUMBERED = {
    "network": re.compile("weight_([1-9][0-9]*)_([1-9][0-9]*)"),
    "agents": re.compile("agent([1-9][0-9]*)"),
    "maneuvers": re.compile("leg([1-9][0-9]*)"),
}


@dataclass(frozen=True)
class MissionConfig:
    """Validated mission description.

    agents is an (n, 6) array: position then (roll, pitch, yaw); files
    may give 3 values per agent, in which case the angles are zero.
    T is None exactly for scripted-maneuver missions, which integrate
    for exactly the schedule's duration.

    The cross-field checks run on construction, so a config changed
    with dataclasses.replace (the CLI's --mode and --dt) is checked
    exactly like one loaded from a file: a violation raises
    ValidationError; among them, a rendezvous flight (no maneuvers)
    needs level starts.
    """

    mode: str
    agents: np.ndarray
    network: Network
    T: float
    dt: float
    stride: int
    stop_tol: float
    params: QuadParams
    out: str
    maneuvers: tuple = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(
                f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        if self.maneuvers is not None:
            if self.mode != "quad":
                raise ValidationError("[maneuvers] requires mode = quad")
            if self.network.n != 1:
                raise ValidationError("[maneuvers] requires a single agent")
            if self.T is not None:
                raise ValidationError(
                    "T is not valid with [maneuvers]: a scripted flight "
                    "runs for its legs' total duration")
        if self.T is None and self.maneuvers is None:
            raise ValidationError("missing T in [mission]")
        if self.T is not None and not self.T > 0.0:
            raise ValidationError(f"T must be positive, got {self.T}")
        if not 0.0 < self.dt < math.inf:
            raise ValidationError(
                f"dt must be positive and finite, got {self.dt}")
        if self.T is not None and round(self.T / self.dt) < 1:
            raise ValidationError(
                f"T={self.T} is shorter than half a step dt={self.dt}; "
                "the protocol would take no step")
        if self.stride < 1:
            raise ValidationError(f"stride must be >= 1, got {self.stride}")
        if not self.stop_tol > 0.0:
            raise ValidationError(
                f"stop_tol must be positive, got {self.stop_tol}")
        if self.mode in ("quad", "compare"):
            for i in range(self.network.n):
                try:
                    start = _quad_start(self, i)
                    if self.maneuvers is None:
                        require_level_hover(start)
                except DomainError as e:
                    raise ValidationError(f"agent{i + 1}: {e}") from e


@dataclass(frozen=True)
class AgentReport:
    """Per-agent outcome. Fields that do not apply to the run mode are
    None and serialize as JSON null.

    particle mode fills particle_final_error; a scripted quad flight
    fills flight_time; a rendezvous quad flight fills quad_final_error,
    max_cross_track and flight_time; compare fills all of them.
    final_position is the flight's endpoint when there is a flight,
    else the protocol's.
    """

    agent: int
    particle_final_error: float = None
    quad_final_error: float = None
    max_cross_track: float = None
    flight_time: float = None
    final_position: tuple = None

    def to_dict(self):
        d = asdict(self)
        if self.final_position is not None:
            d["final_position"] = list(self.final_position)
        return d


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of a mission run.

    rendezvous_point is the agreement point of the initial positions
    (None for scripted-maneuver runs, which have no rendezvous).
    eigenvalues logs (time, sorted Laplacian spectrum) at t=0 and at
    every proximity edge addition in particle and compare runs; it is
    empty in quad runs, even when an incomplete graph ran the protocol
    for the flight targets.
    """

    mode: str
    rendezvous_point: tuple
    agents: tuple
    eigenvalues: tuple

    def to_dict(self):
        return {
            "mode": self.mode,
            "rendezvous_point": list(self.rendezvous_point)
            if self.rendezvous_point is not None else None,
            "agents": [a.to_dict() for a in self.agents],
            "eigenvalues": [
                {"t": t, "values": list(vals)} for t, vals in self.eigenvalues
            ],
        }


def _floats(text, key):
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as e:
        raise ParseError(f"key '{key}': {e}") from None
    if not all(math.isfinite(v) for v in vals):
        raise ValidationError(f"key '{key}': non-finite number in {text!r}")
    return vals


def _one_float(cp, section, key, default=None):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        val = float(raw)
    except ValueError:
        raise ParseError(
            f"key '{key}' in [{section}]: not a number: {raw!r}") from None
    if not math.isfinite(val):
        raise ValidationError(
            f"key '{key}' in [{section}]: non-finite number {raw!r}")
    return val


def _one_int(cp, section, key, default=None):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return int(raw)
    except ValueError:
        raise ParseError(
            f"key '{key}' in [{section}]: not an integer: {raw!r}") from None


def _numbers(section, key):
    """The numbers of a numbered key of section, e.g. (1, 2) for
    weight_1_2 in [network], or None for any other key."""
    m = section in _NUMBERED and _NUMBERED[section].fullmatch(key)
    return tuple(int(x) for x in m.groups()) if m else None


def _parse_edges(text):
    edges = []
    text = text.strip()
    if not text:
        return edges
    for tok in text.split(","):
        parts = tok.strip().split("-")
        if len(parts) != 2:
            raise ParseError(f"key 'edges': bad edge {tok.strip()!r}, "
                             "expected 'i-j'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(
                f"key 'edges': bad edge {tok.strip()!r}") from None
    return edges


def load_config(path):
    """Parse and validate a mission file.

    Raises:
        IoError: unreadable file.
        ParseError: syntax errors, unknown sections or keys, non-numeric
            values (the message names the offending key).
        ValidationError: structurally invalid missions (bad mode,
            nonpositive dt, non-finite numbers, agent count mismatch,
            ...).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise IoError(f"cannot read config {path}: {e}") from e

    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ParseError(str(e)) from None

    for section in cp.sections():
        if section not in _KEYS:
            raise ParseError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KEYS[section] and not _numbers(section, key):
                raise ParseError(f"unknown key '{key}' in [{section}]")

    for required in ("mission", "network", "agents"):
        if not cp.has_section(required):
            raise ValidationError(f"missing [{required}] section")

    mode = cp.get("mission", "mode", fallback=None)
    n = _one_int(cp, "network", "n")
    if n is None or n < 1:
        raise ValidationError(f"network needs n >= 1, got {n!r}")

    agents = []
    for i in range(1, n + 1):
        key = f"agent{i}"
        if not cp.has_option("agents", key):
            raise ValidationError(f"missing agent entry '{key}'")
        vals = _floats(cp.get("agents", key), key)
        if len(vals) == 3:
            vals = vals + [0.0, 0.0, 0.0]
        if len(vals) != 6:
            raise ValidationError(
                f"'{key}' needs 3 or 6 numbers, got {len(vals)}")
        agents.append(vals)
    for key in cp.options("agents"):
        if _numbers("agents", key)[0] > n:
            raise ParseError(f"unknown key '{key}' in [agents]")
    agents = np.array(agents)

    edges = _parse_edges(cp.get("network", "edges", fallback=""))
    weights = cp.get("network", "weights", fallback="none")
    threshold = _one_float(cp, "network", "threshold",
                           DistanceWeighted.threshold)
    static_map = {}
    for key in cp.options("network"):
        ij = _numbers("network", key)
        if ij:
            edge = (min(ij), max(ij))
            if edge in static_map:
                raise ParseError(f"key '{key}' in [network] repeats the "
                                 f"weight of edge {edge[0]}-{edge[1]}")
            static_map[edge] = _one_float(cp, "network", key)

    if weights == "none":
        policy = Unweighted()
    elif weights == "static":
        policy = StaticWeights(static_map)
    elif weights == "distance":
        policy = DistanceWeighted(threshold)
    elif weights == "initial-distance":
        dist = pairwise_distances(agents[:, :3])
        policy = StaticWeights({
            (min(i, j), max(i, j)): float(dist[i - 1, j - 1])
            for i, j in edges if 1 <= i <= n and 1 <= j <= n})
    else:
        raise ValidationError(
            f"weights must be none, static, distance or initial-distance, "
            f"got {weights!r}")
    if static_map and weights != "static":
        raise ValidationError(
            "weight_i_j keys are only valid with weights = static")
    if cp.has_option("network", "threshold") and weights != "distance":
        raise ValidationError(
            "threshold is only valid with weights = distance")

    try:
        network = Network(n, edges, policy)
    except DomainError as e:
        raise ValidationError(f"bad network: {e}") from e

    maneuvers = None
    if cp.has_section("maneuvers") and cp.options("maneuvers"):
        legs = []
        for key in sorted(cp.options("maneuvers"),
                          key=lambda k: _numbers("maneuvers", k)):
            vals = cp.get("maneuvers", key).split(",")
            if len(vals) != 3:
                raise ParseError(
                    f"key '{key}': expected 'kind, amount, duration'")
            amount, duration = _floats(",".join(vals[1:]), key)
            try:
                legs.append(ManeuverSpec(vals[0].strip(), amount, duration))
            except DomainError as e:
                raise ValidationError(f"'{key}': {e}") from e
        maneuvers = tuple(legs)

    T = _one_float(cp, "mission", "T")
    dt = _one_float(cp, "mission", "dt", 1e-3)
    stride = _one_int(cp, "mission", "stride", 10)
    stop_tol = _one_float(cp, "mission", "stop_tol", 1e-4)
    out = cp.get("mission", "out", fallback=path.stem)

    params = default_params()
    if cp.has_section("params"):
        kw = {}
        for key in cp.options("params"):
            if key in ("J", "CD", "Ctau"):
                vals = _floats(cp.get("params", key), key)
                if len(vals) != 3:
                    raise ValidationError(f"'{key}' needs 3 numbers")
                kw[key] = np.array(vals)
            else:
                kw[key] = _one_float(cp, "params", key)
        try:
            params = replace(params, **kw)
        except DomainError as e:
            raise ValidationError(f"bad params: {e}") from e

    return MissionConfig(
        mode=mode, agents=agents, network=network, T=T, dt=dt,
        stride=stride, stop_tol=stop_tol, params=params, out=out,
        maneuvers=maneuvers)


def export_csv(traj, path):
    """Write a trajectory as UTF-8 CSV with LF line endings.

    Consensus runs get columns t, x1, y1, z1, x2, ... per agent; quad
    runs get t, b1, b2, b3, phi, theta, psi, v1..v3, O1..O3, w1..w4,
    thrust. Floats are rendered with 17 significant digits, so equal
    runs produce byte-identical files. The lines go to path + ".part",
    which is renamed onto path once the last is written, as every
    artifact of a run is: path is whole or not written at all, and an
    OSError raises IoError naming path.
    """
    _write_lines(path, _csv_lines(traj))


def _csv_lines(traj):
    """Iterator over the lines of traj's CSV; raises DomainError for an
    unknown payload before a line is made."""
    if isinstance(traj, ConsensusTrajectory):
        k, n, r = traj.states.shape
        header = _particle_header(n, r)
        rows = traj.states.reshape(k, n * r)
    elif isinstance(traj, QuadTrajectory):
        header = ("t,b1,b2,b3,phi,theta,psi,"
                  "v1,v2,v3,O1,O2,O3,w1,w2,w3,w4,thrust")
        rows = np.hstack([traj.states, traj.omegas,
                          traj.thrust[:, None]])
    else:
        raise DomainError(f"cannot export {type(traj).__name__}")
    return _table_lines(header, ((t, *row.tolist())
                                 for t, row in zip(traj.times, rows)))


def _particle_header(n, r):
    """The CSV header of a protocol run of n agents in r coordinates."""
    if r == 3:
        cols = [f"{axis}{i + 1}" for i in range(n) for axis in "xyz"]
    else:
        cols = [f"q{i + 1}c{j + 1}" for i in range(n) for j in range(r)]
    return "t," + ",".join(cols)


def _table_lines(header, rows):
    """Iterator over the header line and one line per row, a tuple of
    as many floats as the header has columns."""
    # '%.17g' % x renders a float exactly as format(x, '.17g') does,
    # including -0, inf, nan and subnormals, in one call per row
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    return itertools.chain((header + "\n",), (line % row for row in rows))


def _write_lines(path, lines):
    """Put an artifact on disk, the one way every artifact gets there:
    lines go to the temporary sibling _part(path), which is renamed onto
    path once the last is written. Any failure deletes the sibling, and
    an OSError raises IoError naming path, so path is whole or absent."""
    path = Path(path)
    part = _part(path)
    try:
        try:
            with open(part, "w", encoding="utf-8", newline="") as f:
                f.writelines(lines)
            os.replace(part, path)
        finally:
            with contextlib.suppress(OSError):
                part.unlink()
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def _part(path):
    """The temporary sibling an artifact at path is written to."""
    return path.with_name(path.name + ".part")


def _spectrum_log(particle):
    """(time, ascending eigenvalues) of each Laplacian particle logged;
    the t=0 entry is the start spectrum the protocol checked."""
    log = [(0.0, particle.start.eigenvalues)] + [
        (t, sym_eigen(lap.matrix)[0]) for t, lap in particle.laplacian_log[1:]]
    return tuple((float(t), tuple(float(x) for x in w)) for t, w in log)


def _agent_report(i, alpha, particle, run):
    """AgentReport of agent i (0-based). particle (the protocol run to
    report on), run (the agent's flight) and alpha (the rendezvous
    point) are None when the run has none; the fields they measure
    then stay None."""
    fields = {}
    if particle is not None:
        fields["particle_final_error"] = float(
            np.linalg.norm(particle.states[-1][i] - alpha))
    end = particle.states[-1][i] if run is None else run.states[-1][:3]
    if run is not None:
        fields["flight_time"] = float(run.times[-1])
        if alpha is not None:
            fields["quad_final_error"] = float(np.linalg.norm(end - alpha))
            fields["max_cross_track"] = max_cross_track(
                run.states[:, :3], run.states[0][:3], alpha)
    return AgentReport(agent=i + 1,
                       final_position=tuple(float(x) for x in end),
                       **fields)


def _report(mode, alpha, particle, agents):
    """ComparisonReport of a run from its AgentReports, in agent order.

    The spectrum is logged only when particle is given, so a quad run
    that ran the protocol just for its targets passes particle=None.
    """
    return ComparisonReport(
        mode=mode,
        rendezvous_point=tuple(float(x) for x in alpha)
        if alpha is not None else None,
        agents=tuple(agents),
        eigenvalues=_spectrum_log(particle) if particle is not None else (),
    )


def _resolve_out(config, out_dir):
    root = out_dir if out_dir is not None else os.environ.get(
        "SWARM_OUT_DIR", ".")
    dest = Path(root) / config.out
    try:
        dest.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create output directory {dest}: {e}") from e
    return dest


def _quad_start(config, i):
    return QuadState(
        b=config.agents[i, :3], angles=config.agents[i, 3:6],
        v=np.zeros(3), Omega=np.zeros(3))


def run_mission(config, out_dir=None):
    """Execute a mission and write its artifacts.

    Output goes to <root>/<config.out> where root is the out_dir
    argument, else $SWARM_OUT_DIR, else the working directory. On
    failure, whatever artifacts were already produced stay on disk next
    to a FAILED marker holding the error text, and the error re-raises;
    a flight worker that dies (ChildProcessError) fails the run alike.

    Returns:
        ComparisonReport.
    """
    dest = _resolve_out(config, out_dir)
    try:
        return _run_mission(config, dest)
    except (SwarmError, ChildProcessError) as e:
        try:
            (dest / "FAILED").write_text(
                f"{type(e).__name__}: {e}\n", encoding="utf-8")
        except OSError:
            pass
        raise


def prepare(config, dest=None):
    """Everything a run of config does before its first flight step;
    returns (alpha, particle, routes).

    alpha is the agreement point of the starts and particle the protocol
    run, each None where the run has none: a scripted flight has
    neither, and a quad rendezvous on a complete graph runs no protocol.
    routes holds each drone's tuple of ManeuverSpec in agent order: the
    [maneuvers] legs, else one rendezvous_route per agent, to alpha on a
    complete graph, else to its protocol endpoint, and none in particle
    mode, whose starts need not be level. Only given the output
    directory dest does a particle or compare run write particle.csv.
    """
    if config.maneuvers:
        return None, None, [config.maneuvers]
    alpha = consensus_point(config.agents[:, :3])
    complete = is_complete(config.network)
    particle = None
    if config.mode != "quad" and dest is not None:
        particle = _protocol_to_csv(config, dest / "particle.csv")
    elif config.mode != "quad" or not complete:
        particle = _protocol(config)
    if config.mode == "particle":
        return alpha, particle, []
    targets = [alpha] * config.network.n if complete else particle.states[-1]
    return alpha, particle, [rendezvous_route(_quad_start(config, i), target)
                             for i, target in enumerate(targets)]


def _run_mission(config, dest):
    alpha, particle, routes = prepare(config, dest)
    # the protocol run reported on; a quad run reports none
    reported = None if config.mode == "quad" else particle
    if config.mode == "particle":
        agents = [_agent_report(i, alpha, particle, None)
                  for i in range(config.network.n)]
    else:
        agents = _fly_agents(config, routes, alpha, reported, dest)

    report = _report(config.mode, alpha, reported, agents)
    _write_report(report, dest)
    return report


def _protocol(config, sink=None):
    return integrate_protocol(config.network, config.agents[:, :3],
                              config.T, config.dt, config.stride,
                              config.stop_tol, sink=sink)


def _protocol_to_csv(config, path):
    """Run config's protocol and write its samples to path as
    export_csv writes the run; returns the run.

    With more than one usable CPU and os.fork, a forked writer formats
    the samples while the protocol integrates: each sample's raw
    float64 bytes, t and then the state, go through a pipe as the
    protocol records them, and the writer puts the lines on disk with
    _write_lines. The samples end, and so path appears, only once the
    protocol has returned. Otherwise export_csv writes the run here
    after the protocol. Either way a protocol that raises leaves no
    file, and a writer that dies raises ChildProcessError.
    """
    if _usable_cpus() < 2 or not hasattr(os, "fork"):
        particle = _protocol(config)
        export_csv(particle, path)
        return particle
    header = _particle_header(*config.agents[:, :3].shape)
    workers = []    # the writer's (pid, pipe) until it is reaped
    rfd, wfd = os.pipe()
    pipe = open(wfd, "wb")
    try:
        with open(rfd, "rb") as samples:
            workers.append(_fork(_write_samples,
                                 (samples, pipe, header, path)))
        stamp = struct.Struct("d").pack

        # tobytes, not the array itself: numpy keeps the buffer format
        # it exports with the array, about 1 MB over 2_5_2's samples
        def sink(t, q):
            pipe.write(stamp(t))
            pipe.write(q.tobytes())

        try:
            particle = _protocol(config, sink)
            pipe.close()    # the end of the samples
        except BrokenPipeError:
            # the writer ends before the samples do only by dying
            _join(workers, "particle writer")
            raise
        error = _join(workers, "particle writer")
        if error is not None:
            raise error
        return particle
    finally:
        _kill(workers)
        # after a failure, the buffered samples meet a closed pipe
        with contextlib.suppress(OSError):
            pipe.close()
        # what a killed writer left behind
        with contextlib.suppress(FileNotFoundError):
            _part(path).unlink()


def _write_samples(args):
    """The forked particle writer: read the samples from the pipe until
    it ends, each as raw float64 t and then the state, and write them
    under header to path with _write_lines. Returns None, or the
    IoError of a failed write once the pipe has ended, so that the run
    raises it after the protocol, where the in-process export would."""
    samples, pipe, header, path = args
    pipe.close()    # this child's copy of the write end
    row = struct.Struct(f"{header.count(',') + 1}d")
    rows = map(row.unpack,
               iter(functools.partial(samples.read, row.size), b""))
    try:
        _write_lines(path, _table_lines(header, rows))
    except IoError as e:
        samples.read()
        return e
    return None


def _fly_agents(config, routes, alpha, particle, dest):
    """Plan and fly agent i along routes[i], a tuple of ManeuverSpec,
    write its CSV and return the AgentReports in agent order, as a
    serial loop over the agents would.

    The flights are independent, so they are spread over W = min(usable
    CPUs, agents) lanes by flight time, the sum of the route's leg
    durations. Lane 0 plans and flies in this process, every other lane
    in a forked child. The CSVs are written in agent order up to the
    first agent that failed, in planning or in flight, and that agent's
    error is raised, so the artifacts and the error are those of the
    serial loop. W = 1 forks nothing.
    """
    width = min(_usable_cpus(), len(routes)) if hasattr(os, "fork") else 1
    lanes = _lpt_lanes(
        [sum(spec.duration for spec in route) for route in routes], width)

    def fly(lane):
        return _fly_lane(config, lane, routes, alpha, particle)

    flown = {}
    workers = []    # (pid, pipe) of every child not yet reaped
    try:
        for lane in lanes[1:]:
            workers.append(_fork(fly, lane))
        flown.update(fly(lanes[0]))
        while workers:
            flown.update(_join(workers, "flight worker"))
    finally:
        _kill(workers)

    agents = []
    for i in range(len(routes)):
        out = flown[i]
        if isinstance(out, Exception):
            raise out
        text, agent = out
        _write_lines(dest / f"quad_agent{i + 1}.csv", (text,))
        agents.append(agent)
    return agents


def _lpt_lanes(durations, width):
    """Graham's LPT rule: the indices of durations, longest first (ties
    to the lower index), each to the lane with the least total so far
    (ties to the lower lane); each lane lists its indices in order."""
    lanes = [[] for _ in range(width)]
    loads = [0.0] * width
    for i in sorted(range(len(durations)), key=lambda i: -durations[i]):
        k = loads.index(min(loads))
        lanes[k].append(i)
        loads[k] += durations[i]
    return [sorted(lane) for lane in lanes]


def _fly_lane(config, lane, routes, alpha, particle):
    """Plan and fly the agents of one lane in index order; returns
    {agent: (CSV text, AgentReport)}, ending at the lane's first agent
    that failed, in planning or in flight, which maps to its error: no
    later agent of the lane can matter."""
    flown = {}
    for i in lane:
        try:
            sched = plan(config.params, routes[i])
            run = simulate(_quad_start(config, i), sched, config.params,
                           sched.total_duration, config.dt, config.stride)
            flown[i] = ("".join(_csv_lines(run)),
                        _agent_report(i, alpha, particle, run))
        except Exception as e:
            flown[i] = e
            break
    return flown


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the
    platform has one, so `taskset` narrows it, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(fn, arg):
    """Run fn(arg) in a forked child; returns its pid and the read end
    of the pipe that carries its pickled result."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            with open(wfd, "wb") as f:
                f.write(pickle.dumps(fn(arg), pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            # never return into the caller's stack, on any path
            os._exit(code)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _join(workers, what):
    """Reap workers[0], a (pid, pipe) of _fork, drop it from workers and
    return its result; a child that ended with a nonzero status raises
    ChildProcessError, which names it what."""
    pid, pipe = workers[0]
    with pipe:
        data = pipe.read()
    status = os.waitpid(pid, 0)[1]
    del workers[0]
    if status != 0:
        raise ChildProcessError(
            f"{what} {pid} ended with wait status {status}")
    return pickle.loads(data)


def _kill(workers):
    """Kill and reap every (pid, pipe) of _fork left in workers: the
    cleanup of a run that stops before it has joined them."""
    if workers:
        import signal
    for pid, pipe in workers:
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _write_report(report, dest):
    # serialised before the file opens, so a non-finite number leaves
    # no partial report behind
    try:
        text = json.dumps(report.to_dict(), indent=2, allow_nan=False)
    except ValueError as e:
        raise DivergenceError(
            f"report holds a non-finite number: {e}") from e
    _write_lines(dest / "report.json", (text + "\n",))
