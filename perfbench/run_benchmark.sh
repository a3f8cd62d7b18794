#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
#
#   bash perfbench/run_benchmark.sh --workload water_sim --seed 42 \
#        --seconds 25 --trace 0
#   bash perfbench/run_benchmark.sh               # all four workloads
#   bash perfbench/run_benchmark.sh --trace 1     # traced per-layer runs
#   bash perfbench/run_benchmark.sh --smoke       # every workload + check, fast
#   bash perfbench/run_benchmark.sh --check-identity
#
# The build goes to ${CARGO_TARGET_DIR:-.bench_build}/perfbench (relative to
# the checkout root); build output goes to stderr so that the last line of
# standard output is the result JSON of the (last) workload run.  Without
# --workload every workload runs in its own process, one after the other;
# the script exits non-zero if any of them does.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "${here}/.." && pwd)"
cd "${root}"

if [[ ! -d src || ! -f src/md/sim.hpp ]]; then
  echo "perfbench: no library sources under ${root}/src; nothing to build" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "${build}"
log="${build}/build.log"
# The repository's own build with the perfbench target added to it
# (perfbench.cmake); only the benchmark and the library it links compile.
if ! { cmake -S . -B "${build}" -DCMAKE_BUILD_TYPE=Release \
         -DCMAKE_PROJECT_INCLUDE="${here}/perfbench.cmake" &&
       cmake --build "${build}" --target perfbench \
         -j "$(nproc 2>/dev/null || echo 2)"; } \
       > "${log}" 2>&1; then
  echo "perfbench: build failed; last lines of ${log}:" >&2
  tail -n 40 "${log}" >&2
  exit 2
fi

sha="$(git -C "${root}" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
bin="${build}/perfbench"
common=(--git-sha "${sha}" --trace-dir "${build}/traces")

has_workload=0
for arg in "$@"; do
  case "${arg}" in
    --workload|--workload=*|--smoke|--check-identity|--repro-energy-jump)
      has_workload=1 ;;
  esac
done

if [[ ${has_workload} -eq 1 ]]; then
  exec "${bin}" "${common[@]}" "$@"
fi

status=0
for w in water_sim water_dd copper_rebuild serve_mixed; do
  "${bin}" "${common[@]}" --workload "${w}" "$@" || status=1
done
exit "${status}"
