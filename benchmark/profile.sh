#!/usr/bin/env bash
# gprof cross-check of where rcs_bench's host time goes, by layer.
#
#   benchmark/profile.sh [WORKLOAD] [SEED]      (default: steady_delta 1)
#
# Builds rcs_bench with -pg and links it statically into build-bench-pg/, so
# malloc, libstdc++ and libc are sampled along with the repository's code,
# runs ten reps of one workload, and folds gprof's flat profile by
# rcs::<module>, std, allocator, memcmp, rtti and libc buckets
# (fold_gprof.py). Informational only: nothing gates on it.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/build-bench-pg"
workload="${1:-steady_delta}"
seed="${2:-1}"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS="-pg -static" > /dev/null
cmake --build "$build" -j "$(nproc)" --target rcs_bench > /dev/null
cd "$build"
rm -f gmon.out
./rcs_bench --workload "$workload" --seed "$seed" --reps 10 > run.txt
gprof -b -p ./rcs_bench gmon.out > flat.txt
echo "gprof self time of rcs_bench --workload $workload --seed $seed --reps 10"
python3 "$here/fold_gprof.py" flat.txt
