# Runs bench_throughput with a benchmark filter that matches nothing, in an
# empty working directory, and fails if the run leaves any file there:
# without --json=PATH the harness must write nothing, or a run from the
# repository root would overwrite the committed BENCH_throughput.json.
#
#   cmake -DBENCH=<bench_throughput> -DWORK_DIR=<dir> -P no_default_output.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH}" "--benchmark_filter=^$"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_throughput exited with ${rc}")
endif()
file(GLOB left LIST_DIRECTORIES true RELATIVE "${WORK_DIR}" "${WORK_DIR}/*")
if(left)
  message(FATAL_ERROR "bench_throughput without --json= wrote: ${left}")
endif()
