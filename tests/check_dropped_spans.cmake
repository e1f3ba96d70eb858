# Honest span truncation, run under ctest (see tests/CMakeLists.txt): the
# span sink keeps the first 65,536 spans, and `evsys run --metrics` says on
# stderr how many it kept and dropped instead of truncating silently. A run
# without --metrics exports no trace and prints nothing.
# Expects -DEVSYS=<path to the evsys binary>, -DSOURCE_DIR=<repo root> and
# -DWORK_DIR=<scratch directory>.
if(NOT DEFINED EVSYS OR NOT DEFINED SOURCE_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DEVSYS=<binary> -DSOURCE_DIR=<repo> -DWORK_DIR=<dir>")
endif()
set(scenario "${SOURCE_DIR}/examples/scenarios/city_commute.scn")

execute_process(
  COMMAND "${EVSYS}" run "${scenario}" --out "${WORK_DIR}/dropped_spans.result.json"
          --metrics "${WORK_DIR}/dropped_spans"
  RESULT_VARIABLE code
  ERROR_VARIABLE err)
set(expected "evsys run: span trace full: kept the first 65536 span(s), dropped 89964\n")
if(NOT code EQUAL 0 OR NOT err STREQUAL expected)
  message(FATAL_ERROR "run --metrics on city_commute: expected exit 0 and the one "
                      "line\n${expected}got ${code}:\n${err}")
endif()
message(STATUS "run --metrics reports the spans it dropped")

execute_process(
  COMMAND "${EVSYS}" run "${scenario}" --out "${WORK_DIR}/dropped_spans.result.json"
  RESULT_VARIABLE code
  ERROR_VARIABLE err)
if(NOT code EQUAL 0 OR NOT err STREQUAL "")
  message(FATAL_ERROR "run without --metrics: expected exit 0 and no stderr, got ${code}:\n${err}")
endif()
message(STATUS "run without --metrics stays quiet")
