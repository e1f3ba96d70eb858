# Error-path contract of the evsys CLI, run under ctest (see
# tests/CMakeLists.txt):
#   unknown verb           -> exit 2, stderr enumerates every valid verb
#   unknown template kind  -> exit 2, stderr enumerates the template kinds
#   explicit 'template scenario' and bare 'template' -> identical output
#   malformed or out-of-range numeric flag -> exit 2, stderr names the flag
#   bms.stuck_voltage cell outside the pack -> `check` exit 1, `run` fails
#                                              before simulating, naming it
#   report lost to a full device (/dev/full as --out or stdout)
#                          -> exit 1 on every verb, stderr says "cannot write"
# Expects -DEVSYS=<path to the evsys binary>, -DSOURCE_DIR=<repo root> and
# -DWORK_DIR=<scratch directory>.
if(NOT DEFINED EVSYS OR NOT DEFINED SOURCE_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DEVSYS=<binary> -DSOURCE_DIR=<repo> -DWORK_DIR=<dir>")
endif()
set(limp "${SOURCE_DIR}/examples/scenarios/limp_home.scn")

execute_process(
  COMMAND "${EVSYS}" frobnicate
  RESULT_VARIABLE code
  ERROR_VARIABLE err
  OUTPUT_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "unknown verb: expected exit 2, got ${code}")
endif()
if(NOT err MATCHES "unknown command 'frobnicate'")
  message(FATAL_ERROR "unknown verb: stderr does not name the bad verb:\n${err}")
endif()
foreach(verb IN ITEMS campaign check fleet print run synthesize template)
  if(NOT err MATCHES "${verb}")
    message(FATAL_ERROR "unknown verb: stderr does not list '${verb}':\n${err}")
  endif()
endforeach()
message(STATUS "unknown verb enumerates all valid verbs")

execute_process(
  COMMAND "${EVSYS}" template starship
  RESULT_VARIABLE code
  ERROR_VARIABLE err
  OUTPUT_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "unknown template kind: expected exit 2, got ${code}")
endif()
if(NOT err MATCHES "unknown template kind 'starship'")
  message(FATAL_ERROR "unknown template kind: bad stderr:\n${err}")
endif()
foreach(kind IN ITEMS scenario fleet)
  if(NOT err MATCHES "${kind}")
    message(FATAL_ERROR "unknown template kind: stderr does not list '${kind}':\n${err}")
  endif()
endforeach()
message(STATUS "unknown template kind enumerates scenario and fleet")

execute_process(
  COMMAND "${EVSYS}" template
  RESULT_VARIABLE code
  OUTPUT_VARIABLE bare)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "bare 'template' failed with ${code}")
endif()
execute_process(
  COMMAND "${EVSYS}" template scenario
  RESULT_VARIABLE code
  OUTPUT_VARIABLE explicit)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "'template scenario' failed with ${code}")
endif()
if(NOT bare STREQUAL explicit)
  message(FATAL_ERROR "'template' and 'template scenario' outputs differ")
endif()
message(STATUS "'template scenario' matches bare 'template'")

execute_process(
  COMMAND "${EVSYS}"
  RESULT_VARIABLE code
  OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "no arguments: expected exit 2, got ${code}")
endif()
message(STATUS "bare invocation exits 2 with usage")

# Numeric flags read the closed integer grammar of scenario text: no sign
# on unsigned values, no whitespace or trailing garbage, no overflow.
function(expect_flag_error flag)
  execute_process(
    COMMAND "${EVSYS}" ${ARGN}
    RESULT_VARIABLE code
    ERROR_VARIABLE err
    OUTPUT_QUIET)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "'${ARGN}': expected exit 2, got ${code}\n${err}")
  endif()
  if(NOT err MATCHES "${flag} expects")
    message(FATAL_ERROR "'${ARGN}': stderr does not name ${flag}:\n${err}")
  endif()
endfunction()
expect_flag_error(--first campaign "${limp}" --seeds 1 --first -1)
expect_flag_error(--jobs campaign "${limp}" --seeds 1 --jobs abc)
expect_flag_error(--seeds campaign "${limp}" --seeds 2x)
expect_flag_error(--stride campaign "${limp}" --stride 99999999999999999999)
expect_flag_error(--count fuzz --count +3)
expect_flag_error(--seed fuzz --seed -5)
expect_flag_error(--jobs fuzz --jobs 4294967296)
expect_flag_error(--iters synthesize "${limp}" --iters 1e3)
expect_flag_error(--jobs fleet "${SOURCE_DIR}/examples/scenarios/depot_fleet.fleet"
                  --jobs " 3")
message(STATUS "malformed numeric flags exit 2 naming the flag")

# A stuck-voltage fault on cell -1: `check` and `run` agree it names no cell.
file(READ "${limp}" text)
set(bad_cell "${WORK_DIR}/bad_cell.scn")
file(WRITE "${bad_cell}" "${text}fault.4 = 3 bms.stuck_voltage -1 3.7\n")
execute_process(
  COMMAND "${EVSYS}" check "${bad_cell}"
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT code EQUAL 1 OR NOT err MATCHES "fault.unknown_target")
  message(FATAL_ERROR "check on cell -1: expected exit 1 with fault.unknown_target, got ${code}:\n${err}")
endif()
execute_process(
  COMMAND "${EVSYS}" run "${bad_cell}"
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT code EQUAL 1 OR NOT err MATCHES "sensor fault targets cell '-1' outside the pack")
  message(FATAL_ERROR "run on cell -1: expected exit 1 naming the target, got ${code}:\n${err}")
endif()
message(STATUS "run rejects the stuck-voltage cell check rejects, before simulating")

# Every verb writes its report through one checked writer: a report lost to
# a full device fails the verb instead of exiting 0.
if(EXISTS /dev/full)
  set(fleet "${SOURCE_DIR}/examples/scenarios/depot_fleet.fleet")
  function(expect_write_error)
    cmake_parse_arguments(ARG "" "STDOUT" "COMMAND" ${ARGN})
    if(ARG_STDOUT)
      set(sink OUTPUT_FILE "${ARG_STDOUT}")
    else()
      set(sink OUTPUT_QUIET)
    endif()
    execute_process(
      COMMAND "${EVSYS}" ${ARG_COMMAND}
      RESULT_VARIABLE code
      ERROR_VARIABLE err
      ${sink})
    if(NOT code EQUAL 1 OR NOT err MATCHES "cannot write")
      message(FATAL_ERROR "'${ARG_COMMAND}' into /dev/full: expected exit 1 saying "
                          "'cannot write', got ${code}:\n${err}")
    endif()
  endfunction()
  expect_write_error(COMMAND run "${limp}" --out /dev/full)
  expect_write_error(COMMAND campaign "${limp}" --seeds 1 --out /dev/full)
  expect_write_error(COMMAND check "${limp}" --out /dev/full)
  expect_write_error(COMMAND fleet "${fleet}" --out /dev/full)
  expect_write_error(COMMAND synthesize "${limp}" --iters 0 --out /dev/full)
  expect_write_error(COMMAND synthesize "${limp}" --iters 0 --report /dev/full)
  expect_write_error(COMMAND fuzz --count 1 --out /dev/full)
  expect_write_error(COMMAND check "${limp}" STDOUT /dev/full)
  expect_write_error(COMMAND print "${limp}" STDOUT /dev/full)
  expect_write_error(COMMAND template STDOUT /dev/full)
  expect_write_error(COMMAND template fleet STDOUT /dev/full)
  message(STATUS "a report lost to /dev/full exits 1 on every verb")
endif()
