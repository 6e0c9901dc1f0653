"""One benchmark sample, run in a fresh interpreter by run.py.

Usage: child.py SRC CONFIG OUT_DIR RESULT_JSON MODE

MODE is `setup` (import quadswarm and load the config, nothing more),
`run` (then run the mission untraced, with the CPU speed reference of
speed.py interleaved) or `traced` (the same under the layer wrappers
of spans.py, without the speed reference). The sample writes its timings to
RESULT_JSON; the mission writes its artifacts under OUT_DIR exactly as
`quadswarm run CONFIG --out OUT_DIR` would.

`loaded_at` is CLOCK_MONOTONIC, which every process shares, so the
parent can subtract its own spawn time from it to get setup time.
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    src, config_path, out_dir, result_path, mode = argv
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    if mode == "traced":
        import spans
        tracer = spans.Tracer()

    from quadswarm import mission, planner

    if src not in Path(mission.__file__).resolve().parents:
        raise SystemExit(f"quadswarm imported from {mission.__file__}, "
                         f"not from {src}")

    result = {}
    if mode == "traced":
        with spans.instrument(tracer, {"mission": mission,
                                       "planner": planner}):
            config = mission.load_config(config_path)
            start = time.perf_counter()
            with tracer.span("mission.run_mission"):
                mission.run_mission(config, out_dir=out_dir)
            result["run_s"] = time.perf_counter() - start
        result["self_s"] = dict(tracer.self_times())
        result["counters"] = dict(tracer.counters)
    else:
        config = mission.load_config(config_path)
        result["loaded_at"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        if mode == "run":
            import speed
            with speed.SpeedSampler() as sampler:
                start = time.perf_counter()
                mission.run_mission(config, out_dir=out_dir)
                wall = time.perf_counter() - start
                handler_s = sampler.handler_s
            result["run_s"] = wall - handler_s
            result["unit_s"] = sampler.unit_s()
            result["units"] = len(sampler.units)

    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
