# Determinism contract of the fleet charging backend, run under ctest (see
# tests/CMakeLists.txt): `evsys fleet` on the faulted depot scenario must
# render the committed golden report byte for byte, and a same-seed rerun
# must render it again.
# Expects -DEVSYS=<path to the evsys binary> and -DSOURCE_DIR=<repo root>.
if(NOT DEFINED EVSYS OR NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "pass -DEVSYS=<binary> -DSOURCE_DIR=<repo root>")
endif()

set(scenario "${SOURCE_DIR}/examples/scenarios/depot_fleet.fleet")
set(golden "${SOURCE_DIR}/tests/data/golden/golden_depot_fleet.report.json")
set(out_first "${CMAKE_CURRENT_BINARY_DIR}/fleet_run1.json")
set(out_rerun "${CMAKE_CURRENT_BINARY_DIR}/fleet_run2.json")

foreach(out IN ITEMS "${out_first}" "${out_rerun}")
  execute_process(
    COMMAND "${EVSYS}" fleet "${scenario}" --out "${out}"
    RESULT_VARIABLE code
    ERROR_QUIET)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "evsys fleet failed with ${code}")
  endif()
endforeach()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${out_first}" "${golden}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "fleet report ${out_first} differs from golden ${golden} — the fleet "
    "simulation changed behaviour")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${out_first}" "${out_rerun}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "fleet report differs between two same-seed runs")
endif()
message(STATUS "deterministic: fleet report matches the golden and a same-seed rerun")
