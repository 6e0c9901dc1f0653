"""Mission configs, mission runs, and their artifacts.

A mission file is INI-style: a [mission] section (mode and integration
settings), a [network] section, an [agents] section, and optional
[params] and [maneuvers] sections. Runs write CSV trajectories plus a
report.json into an output directory, first cleared of what an earlier
run left there, each whole or not at all (_write_lines); a failed run
leaves a FAILED marker file, written the same way, next to the
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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import native
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

# Most steps of dt a run's span (T, or a scripted flight's summed leg
# durations) may take. The largest bundled scenario, 2_5_2, takes
# 1.5e5; a count past this is a mistyped T, dt or duration, whose run
# would step for hours or days instead of failing.
MAX_STEPS = 10 ** 8

# Most rows of a CSV table formatted at once: the bytes of a block are
# written before the next is made, so no whole file is held as text
_BLOCK = 256

# Each section's named keys, and the pattern of its numbered keys,
# whose numbers are >= 1 and written as str(int) writes them, so that
# every key has one spelling. [params] takes QuadParams' fields.
_KEYS = {
    "mission": {"mode", "T", "dt", "stride", "stop_tol", "out"},
    "network": {"n", "edges", "weights", "threshold"},
    "agents": set(),
    "params": {f.name for f in fields(QuadParams)},
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
        # the protocol's horizon, else the scripted flight's
        span = self.T or sum(spec.duration for spec in self.maneuvers)
        steps = span / self.dt
        if not steps < math.inf:
            raise ValidationError(f"dt={self.dt} is too small: {span} s "
                                  "would take a non-finite number of steps")
        _bound_steps(span, self.dt)
        if self.T is not None and round(steps) < 1:
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


def _bound_steps(span, dt, what=""):
    """Raise ValidationError where span seconds at dt take more than
    MAX_STEPS steps; what names the span in the message."""
    steps = span / dt
    if steps > MAX_STEPS:
        raise ValidationError(
            f"{what}{span} s at dt={dt} would take {steps:.6g} steps, "
            f"more than the {MAX_STEPS} a run may take")


def _floats(text, key):
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as e:
        raise ParseError(f"key '{key}': {e}") from None
    if not all(math.isfinite(v) for v in vals):
        raise ValidationError(f"key '{key}': non-finite number in {text!r}")
    return vals


def _one(cp, section, key, kind=float, default=None):
    """The value of key in section as one finite kind (float or int),
    or default where the key is absent."""
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        val = kind(raw)
    except ValueError:
        what = "a number" if kind is float else "an integer"
        raise ParseError(
            f"key '{key}' in [{section}]: not {what}: {raw!r}") from None
    # a comparison, not math.isfinite, which overflows on a huge int
    if not -math.inf < val < math.inf:
        raise ValidationError(
            f"key '{key}' in [{section}]: non-finite number {raw!r}")
    return val


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
    n = _one(cp, "network", "n", int)
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
    threshold = _one(cp, "network", "threshold",
                     default=DistanceWeighted.threshold)
    static_map = {}
    for key in cp.options("network"):
        ij = _numbers("network", key)
        if ij:
            edge = (min(ij), max(ij))
            if edge in static_map:
                raise ParseError(f"key '{key}' in [network] repeats the "
                                 f"weight of edge {edge[0]}-{edge[1]}")
            static_map[edge] = _one(cp, "network", key)

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

    T = _one(cp, "mission", "T")
    dt = _one(cp, "mission", "dt", default=1e-3)
    stride = _one(cp, "mission", "stride", int, 10)
    stop_tol = _one(cp, "mission", "stop_tol", default=1e-4)
    out = cp.get("mission", "out", fallback=path.stem)

    params = default_params()
    if cp.has_section("params"):
        # a vector field's length is QuadParams' to check
        kw = {key: _floats(cp.get("params", key), key)
              if isinstance(getattr(params, key), np.ndarray)
              else _one(cp, "params", key) for key in cp.options("params")}
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
    """Iterator over the bytes of traj's CSV: the header line, then the
    lines of each block of _BLOCK rows (_format_rows), so the text held
    at once is one block's; raises DomainError for an unknown payload
    before a line is made."""
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
    times = traj.times
    blocks = (np.column_stack((times[i:i + _BLOCK], rows[i:i + _BLOCK]))
              for i in range(0, len(times), _BLOCK))
    return itertools.chain(((header + "\n").encode(),),
                           map(_format_rows, blocks))


def _particle_header(n, r):
    """The CSV header of a protocol run of n agents in r coordinates."""
    if r == 3:
        cols = [f"{axis}{i + 1}" for i in range(n) for axis in "xyz"]
    else:
        cols = [f"q{i + 1}c{j + 1}" for i in range(n) for j in range(r)]
    return "t," + ",".join(cols)


def _format_rows(table):
    """The CSV lines of a (k, c) table as bytes: each number as
    '%.17g' % x writes it, exactly as format(x, '.17g') does, including
    -0, inf, nan and subnormals, joined by commas, each line ended by
    LF. format_rows of _kernels.c writes a C-ordered float64 table
    where the shared object has it (native.library), else Python's '%'
    does, per row."""
    lib = native.library()
    if lib is not None and hasattr(lib, "format_rows") \
            and table.dtype == np.float64 and table.flags.c_contiguous:
        # 24 bytes is the longest number, as -1.2345678901234567e-308
        out = np.empty(table.size * 25, dtype=np.uint8)
        size = lib.format_rows(table.ctypes.data, *table.shape,
                               out.ctypes.data)
        if size >= 0:
            return out[:size].tobytes()
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join([line % row for row in map(tuple, table.tolist())]
                   ).encode()


def _write_lines(path, lines):
    """Put an artifact on disk, the one way every artifact gets there:
    lines, bytes, go to the temporary sibling _part(path), which is
    renamed onto path once the last is written. Any failure deletes the
    sibling, and an OSError raises IoError naming path, so path is whole
    or absent."""
    path = Path(path)
    part = _part(path)
    try:
        try:
            with open(part, "wb") as f:
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


def _flight_report(i, alpha, run):
    """AgentReport of agent i's (0-based) flight run: its facts alone.
    alpha, the rendezvous point, is None for a scripted flight, whose
    miss and cross-track then stay None."""
    end = run.states[-1][:3]
    measured = {}
    if alpha is not None:
        measured["quad_final_error"] = float(np.linalg.norm(end - alpha))
        measured["max_cross_track"] = max_cross_track(
            run.states[:, :3], run.states[0][:3], alpha)
    return AgentReport(agent=i + 1, flight_time=float(run.times[-1]),
                       final_position=tuple(float(x) for x in end),
                       **measured)


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
    argument, else $SWARM_OUT_DIR, else the working directory. The run
    first removes the artifacts an earlier run left there. On failure,
    whatever artifacts were already produced stay on disk next to a
    FAILED marker holding the error text, and the error re-raises; a
    flight worker that dies (ChildProcessError) fails the run alike.
    FAILED is written as every artifact is, whole or not at all, and
    only where it can be: a failure to write it never hides the error.

    The protocol runs before the flights only where their routes need
    its endpoints, and otherwise beside them (prepare). Either way the
    artifacts and the error are those of the protocol followed by a
    serial loop over the agents: a protocol that fails, or a
    particle.csv that cannot be written, is the run's error, and no
    quad CSV is written.

    Returns:
        ComparisonReport.
    """
    dest = _resolve_out(config, out_dir)
    try:
        _clear(dest)
        return _run_mission(config, dest)
    except (SwarmError, ChildProcessError) as e:
        with contextlib.suppress(IoError):
            _write_lines(dest / "FAILED",
                         (f"{type(e).__name__}: {e}\n".encode(),))
        raise


# the artifacts a run may leave, and their temporary siblings (_part)
_ARTIFACT = re.compile(r"(FAILED|report\.json|particle\.csv"
                       r"|quad_agent[1-9][0-9]*\.csv)(\.part)?")


def _clear(dest):
    """Remove what a run may have left in dest: FAILED, report.json,
    particle.csv, every quad_agent<k>.csv, and the .part sibling of
    each; raises IoError where a removal fails."""
    try:
        for path in dest.iterdir():
            if _ARTIFACT.fullmatch(path.name):
                path.unlink()
    except OSError as e:
        raise IoError(f"cannot clear output directory {dest}: {e}") from e


def prepare(config, dest=None):
    """Everything a run of config does before its first flight step;
    returns (alpha, particle, routes, beside).

    The one order rule: the protocol runs before the flights only where
    their routes need its endpoints, and otherwise beside them. alpha is
    the agreement point of the starts. A quad or compare run on an
    incomplete graph integrates the protocol here and gets it as
    particle. A particle run and a compare run on a complete graph get
    beside instead, a job that beside() runs, returning the protocol run
    (_protocol). A scripted flight, which has no alpha, and a quad
    rendezvous on a complete graph get neither. routes holds each
    drone's tuple of ManeuverSpec in agent order: the [maneuvers] legs,
    else one rendezvous_route per agent, to alpha on a complete graph,
    else to its protocol endpoint, and none in particle mode, whose
    starts need not be level. Only given the output directory dest does
    a particle or compare run write particle.csv.
    """
    if config.maneuvers:
        return None, None, [config.maneuvers], None
    alpha = consensus_point(config.agents[:, :3])
    path = None if dest is None or config.mode == "quad" \
        else dest / "particle.csv"
    protocol = functools.partial(_protocol, config, path)
    if config.mode == "particle":
        return alpha, None, [], protocol
    if not is_complete(config.network):
        particle = protocol()
        return alpha, particle, _routes(config, particle.states[-1]), None
    routes = _routes(config, [alpha] * config.network.n)
    return alpha, None, routes, protocol if config.mode == "compare" else None


def _routes(config, targets):
    """Each agent's rendezvous_route to its target, in agent order; a
    route that would take more than MAX_STEPS steps of dt raises
    ValidationError before any is planned."""
    routes = [rendezvous_route(_quad_start(config, i), target)
              for i, target in enumerate(targets)]
    for i, route in enumerate(routes):
        _bound_steps(sum(spec.duration for spec in route), config.dt,
                     f"agent {i + 1}'s route: ")
    return routes


def _run_mission(config, dest):
    alpha, particle, routes, beside = prepare(config, dest)
    ran, agents = _fly_agents(config, routes, alpha, dest, beside)
    if beside is not None:
        particle = ran
    if config.mode == "quad":
        particle = None     # a quad run reports no protocol run
    if particle is not None:
        ends = particle.states[-1]
        # a particle run flies no agent: its reports are the endpoints
        agents = agents or [AgentReport(agent=i + 1, final_position=tuple(
            float(x) for x in end)) for i, end in enumerate(ends)]
        # each agent's protocol miss, whichever process flew it
        agents = [replace(a, particle_final_error=float(np.linalg.norm(
            ends[i] - alpha))) for i, a in enumerate(agents)]
    report = ComparisonReport(
        mode=config.mode,
        rendezvous_point=tuple(float(x) for x in alpha)
        if alpha is not None else None,
        agents=tuple(agents),
        eigenvalues=_spectrum_log(particle) if particle is not None else (),
    )
    _write_report(report, dest)
    return report


def _protocol(config, path=None):
    """Run config's protocol and return the run; given path, also write
    it there with export_csv. A protocol that raises leaves no file."""
    particle = integrate_protocol(config.network, config.agents[:, :3],
                                  config.T, config.dt, config.stride,
                                  config.stop_tol)
    if path is not None:
        export_csv(particle, path)
    return particle


def _fly_agents(config, routes, alpha, dest, beside=None):
    """Plan and fly agent i along routes[i], a tuple of ManeuverSpec,
    write its CSV and return (beside's result, the flight AgentReports
    in agent order), as a serial loop over the agents would.

    The flights are independent, so they are spread over W = min(usable
    CPUs, agents) lanes by flight time, the sum of the route's leg
    durations. Lane 0 plans and flies in this process, every other lane
    in a forked child. beside(), prepare's protocol where the routes do
    not need it, runs in this process once the children are
    forked and before lane 0 flies; an error it raises kills the
    children and is raised before any CSV is written. The CSVs are
    written in agent order up to the first agent that failed, in
    planning or in flight, and that agent's error is raised, so the
    artifacts and the error are those of the serial loop. W <= 1 forks
    no flight worker; a particle run has no routes, so W = 0 and only
    beside runs. The compiled loops (native.library) are loaded before
    the lanes fork, so a cold cache builds them once; a particle run
    loads them when its protocol or its particle.csv first needs them.
    """
    if routes:
        native.library()
    width = min(_usable_cpus(), len(routes))
    lanes = _lpt_lanes(
        [sum(spec.duration for spec in route) for route in routes], width)

    def fly(lane):
        return _fly_lane(config, lane, routes, alpha)

    flown, result = {}, None
    workers = []    # (pid, pipe) of every child not yet reaped
    try:
        for lane in lanes[1:]:
            workers.append(_fork(fly, lane))
        if beside is not None:
            result = beside()
        if lanes:
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
        csv, agent = out
        _write_lines(dest / f"quad_agent{i + 1}.csv", (csv,))
        agents.append(agent)
    return result, agents


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


def _fly_lane(config, lane, routes, alpha):
    """Plan and fly the agents of one lane in index order; returns
    {agent: (CSV bytes, flight AgentReport)}, ending at the lane's first
    agent that failed, in planning or in flight, which maps to its
    error: no later agent of the lane can matter."""
    flown = {}
    for i in lane:
        try:
            sched = plan(config.params, routes[i])
            run = simulate(_quad_start(config, i), sched, config.params,
                           sched.total_duration, config.dt, config.stride)
            flown[i] = (b"".join(_csv_lines(run)),
                        _flight_report(i, alpha, run))
        except Exception as e:
            flown[i] = e
            break
    return flown


def _usable_cpus():
    """CPUs this process may spread its work over: 1 where the platform
    has no os.fork, else its affinity mask where the platform has one,
    so `taskset` narrows it, else the CPU count."""
    if not hasattr(os, "fork"):
        return 1
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
    _write_lines(dest / "report.json", ((text + "\n").encode(),))
