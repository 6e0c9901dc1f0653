"""quadswarm benchmark: time from a loaded config to artifacts on disk.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--swarm-seed K]

Workloads are described in workloads.py. The loop is closed with one
client: samples run one after another, each in a fresh interpreter
(child.py) that imports quadswarm from this checkout's src/, loads the
mission file and calls run_mission, the same path `quadswarm run`
takes. At most two processes are alive at once, this one and a sample.

A run first starts a few setup-only processes, then starts samples
while the next one is expected to end less than half a sample past S
seconds from the start (at least one of each kind it needs).

--trace 0 reports the end-to-end metrics, measured untraced:
    run_ref_s    run_mission wall time scaled to the reference CPU
                 speed, measured on the sample's own thread while it
                 ran (speed.py), median over samples; the raw wall
                 time run_s is printed beside it
    setup_s      interpreter start to config loaded, median over every
                 process of the run
    peak_rss_mb  peak resident memory of a sample's process (wait4)
--trace 1 alternates traced and untraced samples and reports the
per-layer metrics of the traced ones (see PER_LAYER), with
trace.overhead_s = traced minus untraced median run_s.

Every sample is checked: the process exits 0, report.json is strict
JSON, every CSV number is finite, the workload's bounds hold, the
artifacts are byte-identical to the run's first sample, and (traced)
the deterministic counters equal the first traced sample's and the
layer self times add up to run_s within 5%. A sample that fails any
check counts in `failed`. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BASELINE = HERE / "baseline.json"

SETUP_PROBES = 5
# Stop starting samples when the next one could end past this, so a run
# stays well inside the 180 s a run may take.
TIME_LIMIT_S = 150.0
COVERAGE_TOL = 0.05

END_TO_END = (("run_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("planner.self_s", "s"), ("planner.legs", "count"),
    ("planner.sims", "count"), ("planner.sims.bodyX", "count"),
    ("planner.sims.yaw", "count"), ("planner.sims.vertical", "count"),
    ("planner.useful_ratio", "ratio"),
    ("quad.tune_sim_s", "s"), ("quad.flight_s", "s"),
    ("quad.steps", "count"), ("quad.deriv_evals", "count"),
    ("quad.steps_per_s", "1/s"),
    ("consensus.integrate_s", "s"), ("consensus.steps", "count"),
    ("consensus.steps_per_s", "1/s"),
    ("network.topology_changes", "count"), ("network.edges_final", "count"),
    ("numerics.sym_eigen_s", "s"), ("numerics.sym_eigen_calls", "count"),
    ("mission.load_config_s", "s"), ("mission.export_s", "s"),
    ("mission.export_bytes", "B"), ("mission.export_mb_per_s", "MB/s"),
    ("mission.self_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead_s", "s"),
)

# Counts that must repeat exactly for equal inputs.
DETERMINISTIC = (
    "planner.legs", "planner.sims", "planner.sims.bodyX", "planner.sims.yaw",
    "planner.sims.vertical", "quad.steps", "consensus.steps",
    "network.topology_changes", "network.edges_final",
    "numerics.sym_eigen_calls", "mission.export_bytes",
)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def _child_env():
    env = dict(os.environ)
    # Keep compiled bytecode inside the checkout, so setup time after
    # the first process is that of an installed package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def spawn(mode, config, out_dir, deadline):
    """Run child.py once; returns (exit code, peak RSS MB, result, stderr)."""
    out_dir.mkdir(parents=True)
    result_path = out_dir.with_suffix(".json")
    err_path = out_dir.with_suffix(".err")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(SRC), str(config),
             str(out_dir), str(result_path), mode],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            env=_child_env(), cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            # Interrupted while waiting: leave no sample running.
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    result = None
    if code == 0:
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if "loaded_at" in result:
            result["setup_s"] = result["loaded_at"] - spawned_at
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return code, usage.ru_maxrss / 1024.0, result, stderr


def layer_metrics(result):
    """Per-layer metrics of one traced sample."""
    self_s, counts = result["self_s"], result["counters"]
    m = {name: self_s.get(name, 0.0) for name, unit in PER_LAYER
         if unit == "s" and name != "trace.overhead_s"}
    m.update({name: counts.get(name, 0) for name in DETERMINISTIC})
    m["planner.useful_ratio"] = _ratio(m["planner.legs"], m["planner.sims"])
    m["quad.deriv_evals"] = 4 * m["quad.steps"]
    m["quad.steps_per_s"] = _ratio(
        m["quad.steps"], m["quad.tune_sim_s"] + m["quad.flight_s"])
    m["consensus.steps_per_s"] = _ratio(
        m["consensus.steps"], m["consensus.integrate_s"])
    m["mission.export_mb_per_s"] = _ratio(
        m["mission.export_bytes"] / 1e6, m["mission.export_s"])
    m["trace.coverage"] = _ratio(
        sum(m[name] for name in spans.RUN_LAYER_METRICS), result["run_s"])
    return m


def summary(values):
    """(median, first quartile, third quartile) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


class BenchRun:
    """Samples of one benchmark run and the checks across them."""

    def __init__(self, workload, config, work, deadline):
        self.workload = workload
        self.config = config
        self.work = work
        self.deadline = deadline
        self.start = workloads.initial_positions(config)
        self.digests = None
        self.counts = None
        self.samples = []   # (mode, run_s, rss_mb, layers, problems)
        self.setups = []
        self.run_ref = []   # run_ref_s of the untraced samples

    def probe_setup(self, k):
        code, _, result, stderr = spawn(
            "setup", self.config, self.work / f"probe{k}", self.deadline)
        if code != 0:
            sys.exit(f"setup process failed (exit {code}):\n{stderr}")
        self.setups.append(result["setup_s"])

    def sample(self, mode, k):
        out = self.work / f"sample{k}"
        code, rss, result, stderr = spawn(
            mode, self.config, out, self.deadline)
        problems, layers = [], None
        if code != 0:
            problems.append(f"exit {code}: {stderr.strip()[-2000:]}")
        else:
            found, digests = workloads.check_artifacts(
                self.workload, out, self.start)
            problems += found
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append("artifacts differ from the first sample's")
            if mode == "traced":
                layers = layer_metrics(result)
                counts = {name: layers[name] for name in DETERMINISTIC}
                if self.counts is None:
                    self.counts = counts
                elif counts != self.counts:
                    problems.append(f"counters {counts} differ from the "
                                    f"first traced sample's {self.counts}")
                if abs(layers["trace.coverage"] - 1.0) > COVERAGE_TOL:
                    problems.append(
                        f"layer self times cover {layers['trace.coverage']:.4f}"
                        " of run_s")
            if mode == "run":
                self.setups.append(result["setup_s"])
                self.run_ref.append(
                    result["run_s"] * speed.REF_UNIT_S / result["unit_s"])
        shutil.rmtree(out, ignore_errors=True)
        for problem in problems:
            print(f"sample {k} ({mode}) FAILED: {problem}", file=sys.stderr)
        run_s = result.get("run_s") if result else None
        self.samples.append((mode, run_s, rss, layers, problems))
        speed_note = ""
        if mode == "run" and result:
            speed_note = (f"unit {result['unit_s'] * 1e3:.4f} ms "
                          f"(n={result['units']}), ")
        print(f"sample {k} {mode}: run_s {run_s} s, {speed_note}"
              f"peak_rss {rss:.4f} MB, " + ("FAILED" if problems else "ok"),
              flush=True)

    def times(self, mode):
        return [s[1] for s in self.samples if s[0] == mode and s[1] is not None]


def end_to_end(bench):
    rss = [s[2] for s in bench.samples if s[0] == "run"]
    return {"run_s": bench.times("run"), "run_ref_s": bench.run_ref,
            "setup_s": bench.setups, "peak_rss_mb": rss}


def per_layer(bench):
    traced = [s[3] for s in bench.samples if s[3] is not None]
    values = {name: [m[name] for m in traced] for name, _ in PER_LAYER
              if name != "trace.overhead_s"}
    with_trace, without = bench.times("traced"), bench.times("run")
    if with_trace and without:
        values["trace.overhead_s"] = [
            statistics.median(with_trace) - statistics.median(without)]
    return values


def baseline_digests(workload, seed, swarm_seed):
    if not BASELINE.is_file():
        return None
    recorded = json.loads(BASELINE.read_text(encoding="utf-8"))
    key = workload if workload in workloads.BUNDLED else \
        f"{workload}/seed{seed}/swarm{swarm_seed}"
    return recorded.get("artifacts", {}).get(key)


def report(args, bench, values, units):
    attempted = len(bench.samples)
    failed = sum(1 for s in bench.samples if s[4])
    print(f"workload {args.workload} seed {args.seed} "
          f"swarm-seed {args.swarm_seed} trace {args.trace}")
    print(f"samples {attempted}, failed {failed}, "
          f"failed_frac {_ratio(failed, attempted):.4g} ratio")
    metrics = {}
    if args.trace == 0 and values["run_s"]:
        med, q1, q3 = summary(values["run_s"])
        print(f"{'run_s':26s} {med:<14.10g} {'s':6s} q1 {q1:.10g} q3 {q3:.10g} "
              f"n={len(values['run_s'])} (wall time, not scaled)")
    for name, unit in units:
        if not values.get(name):
            sys.exit(f"no measurement of {name}")
        med, q1, q3 = summary(values[name])
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:26s} {med:<14.10g} {unit:6s} q1 {q1:.10g} q3 {q3:.10g} "
              f"n={len(values[name])}")
    if args.trace == 0:
        print("no tail percentile: fewer than 10 samples lie beyond any")
    recorded = baseline_digests(args.workload, args.seed, args.swarm_seed)
    for path, digest in sorted((bench.digests or {}).items()):
        if recorded is None or path not in recorded:
            note = "not recorded"
        else:
            note = "same" if recorded[path] == digest else "CHANGED"
        print(f"artifact {path} sha256 {digest} baseline {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--swarm-seed", type=int,
                        default=workloads.DEFAULT_SWARM_SEED)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "quadswarm" / "__init__.py").is_file():
        sys.exit(f"no quadswarm sources under {SRC}")

    begin = time.monotonic()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = workloads.prepare(
        args.workload, args.seed, args.swarm_seed, ROOT, work)
    bench = BenchRun(args.workload, config, work, begin + TIME_LIMIT_S)

    for k in range(SETUP_PROBES):
        bench.probe_setup(k)
    modes = ("run",) if args.trace == 0 else ("traced", "run")
    k = 0
    while True:
        started = time.monotonic()
        bench.sample(modes[k % len(modes)], k)
        k += 1
        now = time.monotonic()
        last = now - started
        # Start another sample only if it would end less than half a
        # sample past S, so long samples do not double a run's length.
        if k >= len(modes) and now - begin + last / 2 >= args.seconds:
            break
        if now + last > begin + TIME_LIMIT_S:
            break

    print(f"measured for {time.monotonic() - begin:.1f} s")
    if args.trace == 0:
        report(args, bench, end_to_end(bench), END_TO_END)
    else:
        report(args, bench, per_layer(bench), PER_LAYER)
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
