# Error-path contract of the evsys CLI, run under ctest (see
# tests/CMakeLists.txt):
#   unknown verb           -> exit 2, stderr enumerates every valid verb
#   unknown template kind  -> exit 2, stderr enumerates the template kinds
#   explicit 'template scenario' and bare 'template' -> identical output
#   'template' and 'template fleet' -> the bytes of tests/data/golden/golden_template.*
#   malformed or out-of-range numeric flag -> exit 2, stderr names the flag
#   unknown, valueless or repeated flag, extra operand
#                          -> exit 2, one stderr line naming verb and culprit
#   bms.stuck_voltage cell outside the pack -> `check` exit 1, `run` fails
#                                              before simulating, naming it
#   tests/data/bad_targets.scn (faults off) -> `check` exit 1, `run` exit 1
#                                              with check's first message
#   tests/data/fleet_blackout_overload.fleet (grid overdrawn)
#                          -> `fleet` writes its report, exit 1 with one
#                             stderr line naming the broken invariant
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
file(READ "${SOURCE_DIR}/tests/data/golden/golden_template.scn" golden)
if(NOT bare STREQUAL golden)
  message(FATAL_ERROR "'template' differs from tests/data/golden/golden_template.scn")
endif()
execute_process(
  COMMAND "${EVSYS}" template fleet
  RESULT_VARIABLE code
  OUTPUT_VARIABLE fleet_template)
file(READ "${SOURCE_DIR}/tests/data/golden/golden_template.fleet" golden)
if(NOT code EQUAL 0 OR NOT fleet_template STREQUAL golden)
  message(FATAL_ERROR "'template fleet' (exit ${code}) differs from "
                      "tests/data/golden/golden_template.fleet")
endif()
message(STATUS "both templates match their goldens")

execute_process(
  COMMAND "${EVSYS}"
  RESULT_VARIABLE code
  OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "no arguments: expected exit 2, got ${code}")
endif()
message(STATUS "bare invocation exits 2 with usage")

# Misuse exits 2 with one stderr line that contains WHAT verbatim.
function(expect_usage_error what)
  execute_process(
    COMMAND "${EVSYS}" ${ARGN}
    RESULT_VARIABLE code
    ERROR_VARIABLE err
    OUTPUT_QUIET)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "'${ARGN}': expected exit 2, got ${code}\n${err}")
  endif()
  string(FIND "${err}" "${what}" at)
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines lines)
  if(at EQUAL -1 OR NOT lines EQUAL 1)
    message(FATAL_ERROR "'${ARGN}': expected one stderr line saying '${what}':\n${err}")
  endif()
endfunction()

# Numeric flags read the closed integer grammar of scenario text: no sign
# on unsigned values, no whitespace or trailing garbage, no overflow.
function(expect_flag_error flag verb)
  expect_usage_error("evsys ${verb}: ${flag} expects" ${verb} ${ARGN})
endfunction()
expect_flag_error(--first campaign "${limp}" --seeds 1 --first -1)
expect_flag_error(--jobs campaign "${limp}" --seeds 1 --jobs abc)
expect_flag_error(--seeds campaign "${limp}" --seeds 2x)
expect_flag_error(--stride campaign "${limp}" --stride 99999999999999999999)
expect_flag_error(--count fuzz --count +3)
expect_flag_error(--seed fuzz --seed -5)
expect_flag_error(--jobs fuzz --jobs 4294967296)
expect_flag_error(--iters synthesize "${limp}" --iters 1e3)
# ... and stay above their lower bounds.
expect_usage_error("evsys campaign: --seeds expects an integer >= 1, got '0'"
                   campaign "${limp}" --seeds 0)
expect_usage_error("evsys campaign: --stride expects an integer >= 1, got '0'"
                   campaign "${limp}" --stride 0)
expect_usage_error("evsys fuzz: --count expects an integer >= 1, got '0'"
                   fuzz --count 0)
expect_usage_error("evsys synthesize: --iters expects an integer >= 0, got '-1'"
                   synthesize "${limp}" --iters -1)
message(STATUS "malformed numeric flags exit 2 naming the flag")

# Each verb's flags are closed: the culprit is named, not the usage text.
expect_usage_error("evsys run: unknown flag '--bogus'" run "${limp}" --bogus)
# The fleet and the synthesizer run on the calling thread; neither has a
# --jobs to take.
expect_usage_error("evsys fleet: unknown flag '--jobs'"
                   fleet "${SOURCE_DIR}/examples/scenarios/depot_fleet.fleet" --jobs 2)
expect_usage_error("evsys synthesize: unknown flag '--jobs'"
                   synthesize "${limp}" --jobs 2)
expect_usage_error("evsys run: --out needs a value" run "${limp}" --out)
expect_usage_error("evsys campaign: --seeds given twice"
                   campaign "${limp}" --seeds 1 --seeds 2)
expect_usage_error("evsys template: unexpected argument 'extra'"
                   template scenario extra)
expect_usage_error("evsys template: unexpected argument 'extra'"
                   template fleet extra)
message(STATUS "unknown, valueless and repeated flags and extra operands exit 2")

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

# Four targets the vehicle lacks, with the fault subsystem off: targets are
# resolved regardless, so `run` fails on the first one `check` reports.
set(bad_targets "${SOURCE_DIR}/tests/data/bad_targets.scn")
execute_process(
  COMMAND "${EVSYS}" check "${bad_targets}"
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE check_err)
if(NOT code EQUAL 1 OR
   NOT check_err MATCHES "error fault\\[0\\] \\[fault\\.unknown_target\\] ([^\n]*)")
  message(FATAL_ERROR "check on bad_targets.scn: expected exit 1 with fault[0] "
                      "first, got ${code}:\n${check_err}")
endif()
set(first_error "${CMAKE_MATCH_1}")
execute_process(
  COMMAND "${EVSYS}" run "${bad_targets}"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(FIND "${err}" "${first_error}" at)
if(NOT code EQUAL 1 OR at EQUAL -1 OR NOT out STREQUAL "")
  message(FATAL_ERROR "run on bad_targets.scn: expected exit 1 saying "
                      "'${first_error}', got ${code}:\n${err}")
endif()
message(STATUS "run rejects bad_targets.scn with check's first error, faults off")

# A whole-fleet blackout under a 90% capacity drop: silent stations keep
# their safe current, which overdraws the grid. The report is still written
# (it counts the violations), but the verb fails.
set(overload "${WORK_DIR}/fleet_blackout_overload.json")
file(REMOVE "${overload}")
execute_process(
  COMMAND "${EVSYS}" fleet "${SOURCE_DIR}/tests/data/fleet_blackout_overload.fleet"
          --out "${overload}"
  RESULT_VARIABLE code
  ERROR_VARIABLE err)
string(REGEX MATCHALL "grid-safety invariant broken[^\n]*\n" broken "${err}")
list(LENGTH broken lines)
if(NOT code EQUAL 1 OR NOT lines EQUAL 1 OR
   NOT err MATCHES "evsys fleet: grid-safety invariant broken: [^\n]* on 610 tick\\(s\\)\n")
  message(FATAL_ERROR "fleet on fleet_blackout_overload.fleet: expected exit 1 with one "
                      "line naming 610 overdrawn ticks, got ${code}:\n${err}")
endif()
file(READ "${overload}" report)
if(NOT report MATCHES "\"violations\":610")
  message(FATAL_ERROR "fleet_blackout_overload report does not count 610 violations:\n${report}")
endif()
message(STATUS "fleet exits 1 when the grid is overdrawn, report still written")

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
