#!/usr/bin/env bash
# Make every CLI call whose output CI compares, with the quadswarm
# package under SRC, and keep all that the calls leave in OUT: each
# run's artifacts under OUT, and each call's stdout, stderr and exit
# code in OUT/cli/<call>.out, .err and .rc. Two trees of outputs are
# compared with diff -r.
#
#   usage (from the repository root): ci/outputs.sh SRC OUT
#
# The bundled scenarios are SRC's own. The inputs no scenario ships
# are written to OUT/cfg from this checkout's scenarios,
# perfbench/workloads.py and tests/test_mission.py, so every SRC reads
# the same bytes.
set -eu
if [ $# -ne 2 ]; then
  echo "usage: $0 SRC OUT" >&2
  exit 2
fi
src=$1 out=$2
bundled=$src/quadswarm/scenarios templates=src/quadswarm/scenarios
mkdir "$out"  # a fresh OUT: nothing stale enters the comparison
mkdir "$out/cli" "$out/cfg"

call() {  # call NAME ARGS...: one CLI call, recorded as cli/NAME.*
  local name=$1 rc=0
  shift
  PYTHONPATH=$src python -m quadswarm.cli "$@" > "$out/cli/$name.out" \
    2> "$out/cli/$name.err" || rc=$?
  echo "$rc" > "$out/cli/$name.rc"
}

# 24-agent swarms (swarm seeds 1 and 2): the n = 24 products and row
# sums of the distance-weighted step, and an L(0) with n = 24
for seed in 1 2; do
  (cd perfbench && python -c "import sys, workloads; \
    sys.stdout.write(workloads.swarm_config(1, $seed))") \
    > "$out/cfg/swarm$seed.cfg"
done
# 2_5_2 at dt = 0.1 fails its stability check
sed 's/^dt = 0.001$/dt = 0.1/' "$templates/scenario_2_5_2.cfg" \
  > "$out/cfg/dt01-2_5_2.cfg"
# a first leg of 60 m in 2 s, which the rotor ceiling refuses
sed 's/^leg1 = .*/leg1 = vertical, 60, 2/' "$templates/scenario_4_2_1.cfg" \
  > "$out/cfg/ceiling-4_2_1.cfg"
# m = 3.0: agent 1's rendezvous route passes the rotor ceiling
sed 's/^\[agents\]$/[params]\nm = 3.0\n\n[agents]/' \
  "$templates/scenario_4_2_2.cfg" > "$out/cfg/m3-4_2_2.cfg"
grep -qx 'leg1 = vertical, 60, 2' "$out/cfg/ceiling-4_2_1.cfg"
grep -qx 'm = 3.0' "$out/cfg/m3-4_2_2.cfg"
# the same m = 3.0 drones on the path 1-2, 2-3: agent 1's route to its
# protocol endpoint passes the rotor ceiling
PYTHONPATH=src:tests python -c "import sys, test_mission; \
  sys.stdout.write(test_mission.PATH_M3)" > "$out/cfg/path-m3.cfg"
# a 24-agent distance-weighted ring whose protocol state overflows
PYTHONPATH=src:tests python -c "import sys, test_mission; \
  sys.stdout.write(test_mission.ring_text())" > "$out/cfg/ring.cfg"

for cfg in "$bundled"/*.cfg; do
  name=$(basename "$cfg" .cfg)
  call "$name" run "$cfg" --out "$out"
  call "validate-$name" validate "$cfg"
done
for name in swarm1 swarm2 dt01-2_5_2 ceiling-4_2_1 m3-4_2_2 path-m3 ring; do
  call "validate-$name" validate "$out/cfg/$name.cfg"
done
for name in swarm1 swarm2 path-m3 ring; do
  call "$name" run "$out/cfg/$name.cfg" --out "$out/$name"
done
# at dt = 0.0037 every window ends off the step grid with a remainder
# step; at dt = 0.9 agent 2 fails (exit 1) while agent 3 flies
for name in scenario_4_2_1 scenario_4_2_2; do
  call "dt0037-$name" run "$bundled/$name.cfg" --dt 0.0037 \
    --out "$out/dt0037"
done
call dt09 run "$bundled/scenario_4_2_2.cfg" --dt 0.9 --out "$out/dt09"
call ceiling run "$out/cfg/ceiling-4_2_1.cfg" --out "$out/ceiling"
call m3 run "$out/cfg/m3-4_2_2.cfg" --out "$out/m3"
