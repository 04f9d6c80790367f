# Direction check for bench_diff's ranked lists, run as a ctest:
#
#   cmake -DBENCH_DIFF=<bench_diff binary> -DWORK_DIR=<scratch dir>
#         -P bench_diff_test.cmake
#
# Writes a baseline and a current record whose metrics each moved one way,
# runs bench_diff on the two directories and checks that every slowdown
# (a time or a spread that rose, a rate that fell) is ranked among the
# regressions and every speedup among the improvements.
if(NOT BENCH_DIFF OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH_DIFF=... -DWORK_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/base" "${WORK_DIR}/cur")
file(WRITE "${WORK_DIR}/base/BENCH_dir.json" [[
{"bench": "dir", "ok": true, "metrics": {
  "BM_Leg.real_s_per_iter": 1.0,
  "BM_Leg.items_per_second": 100.0,
  "BM_Leg.items_per_second_rel_iqr": 0.1,
  "BM_Fast.real_s_per_iter": 2.0,
  "setup_s": 1.0,
  "frame_p50_ms": 1.0,
  "stream_mcodes_per_s": 100.0,
  "engine_speedup": 10.0
}}
]])
file(WRITE "${WORK_DIR}/cur/BENCH_dir.json" [[
{"bench": "dir", "ok": true, "metrics": {
  "BM_Leg.real_s_per_iter": 3.258,
  "BM_Leg.items_per_second": 150.0,
  "BM_Leg.items_per_second_rel_iqr": 0.3,
  "BM_Fast.real_s_per_iter": 1.0,
  "setup_s": 0.5,
  "frame_p50_ms": 2.0,
  "stream_mcodes_per_s": 80.0,
  "engine_speedup": 12.0
}}
]])

execute_process(
  COMMAND "${BENCH_DIFF}" "${WORK_DIR}/base" "${WORK_DIR}/cur" --tolerance 5
          --top 10
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
file(REMOVE_RECURSE "${WORK_DIR}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_diff exited ${rc}:\n${out}")
endif()

string(FIND "${out}" "worst regressions (gated):" worst_at)
string(FIND "${out}" "best improvements:" best_at)
if(worst_at EQUAL -1 OR best_at EQUAL -1 OR best_at LESS worst_at)
  message(FATAL_ERROR "ranked lists missing or out of order:\n${out}")
endif()
math(EXPR worst_len "${best_at} - ${worst_at}")
string(SUBSTRING "${out}" ${worst_at} ${worst_len} worst)
string(SUBSTRING "${out}" ${best_at} -1 best)

foreach(metric BM_Leg.real_s_per_iter BM_Leg.items_per_second_rel_iqr
               frame_p50_ms stream_mcodes_per_s)
  if(NOT worst MATCHES " ${metric} " OR best MATCHES " ${metric} ")
    message(FATAL_ERROR "${metric} got worse but is not ranked as a regression:\n${out}")
  endif()
endforeach()
foreach(metric BM_Leg.items_per_second BM_Fast.real_s_per_iter setup_s
               engine_speedup)
  if(NOT best MATCHES " ${metric} " OR worst MATCHES " ${metric} ")
    message(FATAL_ERROR "${metric} got better but is not ranked as an improvement:\n${out}")
  endif()
endforeach()
