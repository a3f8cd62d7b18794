# Build file of the repository benchmark (see perfbench/README.md).
#
# run_benchmark.sh configures the repository's top-level build with
#   -DCMAKE_PROJECT_INCLUDE=perfbench/perfbench.cmake
# which includes this file at the end of the top-level project() call,
# leaving the top-level CMakeLists untouched.  The `perfbench` target is
# added once that CMakeLists has run, in its directory: the benchmark links
# the real `dpmd` target and compiles with every flag and option the
# repository's build sets (-march=native, -fopenmp-simd, sanitizers).
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_add_target)
  add_executable(perfbench
    ${PERFBENCH_DIR}/main.cpp ${PERFBENCH_DIR}/md_workloads.cpp
    ${PERFBENCH_DIR}/serve_workload.cpp ${PERFBENCH_DIR}/replay.cpp)
  target_link_libraries(perfbench PRIVATE dpmd)
  target_compile_options(perfbench PRIVATE -Wall -Wextra)
endfunction()

cmake_language(DEFER CALL perfbench_add_target)
