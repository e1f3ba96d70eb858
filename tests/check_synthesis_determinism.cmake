# Synthesis determinism contract, run under ctest (see tests/CMakeLists.txt):
#   overloaded.scn --seed 7 --iters 200 -> scenario and report byte-identical
#                                          to tests/data/golden/
#                                          golden_overloaded.synth.{scn,json}
#   same scenario + same --seed         -> byte-identical scenario and report
#   the synthesized scenario            -> `evsys check` exits 0
# The report pins bus_pass_evals, so the golden also pins how many
# single-bus passes the search spends, not only the design it finds.
# Expects -DEVSYS=<path to the evsys binary> and -DSOURCE_DIR=<repo root>.
if(NOT DEFINED EVSYS OR NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "pass -DEVSYS=<binary> -DSOURCE_DIR=<repo root>")
endif()

set(scenario "${SOURCE_DIR}/tests/data/overloaded.scn")
set(golden "${SOURCE_DIR}/tests/data/golden/golden_overloaded.synth")
set(work "${CMAKE_CURRENT_BINARY_DIR}/synthesis_determinism")
file(MAKE_DIRECTORY "${work}")

function(run_synthesize tag)
  execute_process(
    COMMAND "${EVSYS}" synthesize "${scenario}" --seed 7 --iters 200
            --out "${work}/${tag}.scn" --report "${work}/${tag}.json"
    RESULT_VARIABLE code
    ERROR_QUIET)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "evsys synthesize (${tag}) failed with ${code}")
  endif()
endfunction()

run_synthesize(first)
run_synthesize(rerun)

foreach(ext IN ITEMS scn json)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                  "${work}/first.${ext}" "${golden}.${ext}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "the .${ext} artifact differs from golden ${golden}.${ext} — "
                        "the synthesizer changed behaviour")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                  "${work}/first.${ext}" "${work}/rerun.${ext}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "same-seed reruns differ in the .${ext} artifact")
  endif()
endforeach()
message(STATUS "deterministic: matches the golden and a same-seed rerun")

# The synthesized design must pass static analysis cleanly — that is the
# whole point of the synthesizer.
execute_process(
  COMMAND "${EVSYS}" check "${work}/first.scn"
  RESULT_VARIABLE code
  OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "evsys check rejected the synthesized scenario (${code})")
endif()
message(STATUS "synthesized scenario checks clean (exit 0)")
