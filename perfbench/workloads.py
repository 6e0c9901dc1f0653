"""Benchmark workloads: their inputs and the checks on their artifacts.

compare-3drone and proximity-4agent are bundled scenarios, run as
shipped. swarm-24 is generated: a base swarm of 24 agents uniform in a
40 m cube (drawn from the swarm seed) is given a rigid motion and an
agent relabelling drawn from the run seed. The motion keeps every
pairwise distance, so each run seed yields new input bytes but the
same topology changes and the same work; a different swarm seed gives
a different geometry, and with it a different amount of work. Drawing
the geometry itself from the run seed would make run time depend on
the seed: five such geometries took 49 to 76 eigendecompositions and
7.0 to 10.2 s, too wide a spread for a benchmark compared across seeds.
"""

import configparser
import hashlib
import json
import math
import random
from pathlib import Path

SCENARIOS = Path("src") / "quadswarm" / "scenarios"

BUNDLED = {
    "compare-3drone": "scenario_4_2_2.cfg",
    "proximity-4agent": "scenario_2_5_2.cfg",
}
SWARM = "swarm-24"
WORKLOADS = (*BUNDLED, SWARM)

# Base geometry of swarm-24. Later claims are checked again on the
# held-out seed, which no change was written against.
DEFAULT_SWARM_SEED = 1
HELD_OUT_SWARM_SEED = 2

SWARM_N = 24
SWARM_SIDE = 40.0
SWARM_SHIFT = 50.0

# compare-3drone bounds, as in tests/test_acceptance.py.
COMPARE_POINT = (5.0, 6.0, 0.0)
COMPARE_TOL = 1e-9
QUAD_ERROR_MAX = 0.1
CROSS_TRACK_MAX = 0.1


def _rotation(rng):
    """Uniform random rotation matrix from a normalized Gaussian quaternion."""
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(v * v for v in q))
    w, x, y, z = (v / norm for v in q)
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def swarm_config(seed, swarm_seed=DEFAULT_SWARM_SEED):
    """Text of the swarm-24 mission file for a run seed and a swarm seed.

    Agents are joined in a ring (so the graph is connected at t=0) with
    distance weights and a 10 m proximity threshold; the ring follows
    the relabelling, so it links the same physical agents for every
    run seed.
    """
    base = random.Random(swarm_seed)
    points = [[base.uniform(0.0, SWARM_SIDE) for _ in range(3)]
              for _ in range(SWARM_N)]
    rng = random.Random(seed)
    rot = _rotation(rng)
    shift = [rng.uniform(-SWARM_SHIFT, SWARM_SHIFT) for _ in range(3)]
    label = list(range(1, SWARM_N + 1))
    rng.shuffle(label)

    agents = [None] * SWARM_N
    for i, p in enumerate(points):
        agents[label[i] - 1] = [sum(r[k] * p[k] for k in range(3)) + s
                                for r, s in zip(rot, shift)]
    ring = [(label[i], label[(i + 1) % SWARM_N]) for i in range(SWARM_N)]
    lines = [
        "[mission]", "mode = particle", "T = 30", "dt = 0.001",
        "stride = 10", f"out = {SWARM}", "",
        "[network]", f"n = {SWARM_N}",
        "edges = " + ", ".join(f"{a}-{b}" for a, b in ring),
        "weights = distance", "threshold = 10", "",
        "[agents]",
    ]
    lines += [f"agent{i} = " + ", ".join(repr(v) for v in a)
              for i, a in enumerate(agents, 1)]
    return "\n".join(lines) + "\n"


def prepare(name, seed, swarm_seed, root, work):
    """Path of the workload's mission file, writing it first if generated."""
    if name in BUNDLED:
        return root / SCENARIOS / BUNDLED[name]
    path = work / f"{SWARM}.cfg"
    path.write_text(swarm_config(seed, swarm_seed), encoding="utf-8")
    return path


def initial_positions(config_path):
    """Agent start positions read from a mission file."""
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    cp.read(config_path, encoding="utf-8")
    n = cp.getint("network", "n")
    return [[float(v) for v in cp.get("agents", f"agent{i}").split(",")[:3]]
            for i in range(1, n + 1)]


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite number {token} in report.json")
    return json.loads(text, parse_constant=reject)


def _csv_problem(path):
    with open(path, encoding="utf-8") as f:
        next(f)
        for lineno, line in enumerate(f, 2):
            for field in line.split(","):
                if not math.isfinite(float(field)):
                    return f"{path.name}:{lineno}: non-finite {field.strip()}"
    return None


def _bound_problems(name, report, start):
    got = report["rendezvous_point"]
    if name == "compare-3drone":
        if any(abs(g - w) > COMPARE_TOL for g, w in zip(got, COMPARE_POINT)):
            return [f"rendezvous point {got} is not {COMPARE_POINT}"]
        return [f"agent {a['agent']}: {key} {a[key]} > {limit}"
                for a in report["agents"]
                for key, limit in (("quad_final_error", QUAD_ERROR_MAX),
                                   ("max_cross_track", CROSS_TRACK_MAX))
                if not a[key] <= limit]
    centroid = [sum(p[k] for p in start) / len(start) for k in range(3)]
    if not all(math.isclose(g, c, rel_tol=1e-12, abs_tol=1e-12)
               for g, c in zip(got, centroid)):
        return [f"rendezvous point {got} is not the centroid {centroid}"]
    return [f"agent {a['agent']}: final error {a['particle_final_error']} "
            f"not below its initial distance {math.dist(p, centroid)}"
            for a, p in zip(report["agents"], start)
            if not a["particle_final_error"] < math.dist(p, centroid)]


def check_artifacts(name, out_dir, start):
    """Check one sample's artifacts.

    Returns (problems, digests): a list of what is wrong (empty when the
    sample passed) and the sha256 of every artifact by relative path.
    """
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    digests = {p.relative_to(out_dir).as_posix():
               hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    problems = []
    reports = [p for p in files if p.name == "report.json"]
    if any(p.name == "FAILED" for p in files) or len(reports) != 1:
        return [f"artifacts {sorted(digests)}: no single report.json, "
                "or a FAILED marker"], digests
    try:
        report = _strict_json(reports[0].read_text(encoding="utf-8"))
    except ValueError as e:
        return [f"report.json: {e}"], digests
    for p in files:
        if p.suffix == ".csv":
            try:
                problem = _csv_problem(p)
            except (ValueError, StopIteration) as e:
                problem = f"{p.name}: {e!r}"
            if problem:
                problems.append(problem)
    try:
        problems += _bound_problems(name, report, start)
    except (KeyError, TypeError) as e:
        problems.append(f"report.json lacks a bound field: {e!r}")
    return problems, digests
