# An overloaded drive finishes, run under ctest (see tests/CMakeLists.txt):
# `evsys run` on tests/data/overloaded.scn, whose 20x message load makes the
# CAN queues diverge, must exit 0 and render byte-identical reports on two
# runs. The MAC queues cost O(log n) per frame, so a growing backlog does not
# stall the drive; the test's TIMEOUT is the bound.
# Expects -DEVSYS=<path to the evsys binary>, -DSOURCE_DIR=<repo root> and
# -DWORK_DIR=<scratch directory>.
if(NOT DEFINED EVSYS OR NOT DEFINED SOURCE_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DEVSYS=<binary> -DSOURCE_DIR=<repo> -DWORK_DIR=<dir>")
endif()
set(scenario "${SOURCE_DIR}/tests/data/overloaded.scn")

foreach(run IN ITEMS a b)
  execute_process(
    COMMAND "${EVSYS}" run "${scenario}" --out "${WORK_DIR}/overloaded_${run}.result.json"
    RESULT_VARIABLE code
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "evsys run overloaded.scn (run ${run}) failed with ${code}:\n${err}")
  endif()
endforeach()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${WORK_DIR}/overloaded_a.result.json" "${WORK_DIR}/overloaded_b.result.json"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "overloaded.scn: two runs rendered different reports")
endif()
message(STATUS "deterministic: overloaded.scn runs to the same report twice")
