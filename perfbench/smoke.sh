#!/bin/sh
# Smoke test of the benchmark: every workload at a tiny size, output
# checks on, traced run included, on two seeds. Run from the
# repository root:
#
#   sh perfbench/smoke.sh
#
# Exits non-zero when any run fails or reports "correct": false.
set -e
for seed in 2026 7; do
  for workload in flight-vcomp flight-o0 serve-repeat; do
    for trace in 0 1; do
      line=$(sh perfbench/run.sh --workload "$workload" --seed "$seed" \
               --seconds 1 --trace "$trace" --nodes 10 --hot 3 \
               --fresh-share 0.3 | tail -n 1)
      case "$line" in
        '{"correct": true,'*) echo "ok   $workload seed=$seed trace=$trace" ;;
        *) echo "FAIL $workload seed=$seed trace=$trace: $line"; exit 1 ;;
      esac
    done
  done
done
echo "perfbench smoke: all runs correct"
