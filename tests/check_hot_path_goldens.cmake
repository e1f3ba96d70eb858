# Bit-exactness contract of the hot-path rework (SoA cell batch, arena event
# queue, zero-copy publish), run under ctest (see tests/CMakeLists.txt): the
# deterministic artifacts of E2/E17/E18 and the evsys run/campaign reports
# must stay byte-identical to the goldens captured from the pre-rework tree
# (tests/data/golden/). Any drift means the optimisation changed simulated
# behaviour, not just its cost.
# Expects -DBENCH_E2=, -DBENCH_E17=, -DBENCH_E18=, -DEVSYS=, -DSOURCE_DIR=.
foreach(var BENCH_E2 BENCH_E17 BENCH_E18 EVSYS SOURCE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

set(golden_dir "${SOURCE_DIR}/tests/data/golden")
set(work_dir "${CMAKE_CURRENT_BINARY_DIR}/hot_path_goldens")
file(MAKE_DIRECTORY "${work_dir}")

function(compare_or_die produced golden what)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                  "${produced}" "${golden}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
      "${what}: ${produced} differs from golden ${golden} — the hot-path "
      "rework changed simulated behaviour (bit-exactness contract broken)")
  endif()
  message(STATUS "byte-identical: ${what}")
endfunction()

# --- benchmark artifacts (each bench writes BENCH_*.json into its cwd) -------
foreach(pair IN ITEMS
    "${BENCH_E2};BENCH_e2_cell_balancing.json"
    "${BENCH_E17};BENCH_e17_fault_injection.json"
    "${BENCH_E18};BENCH_e18_scenario_vehicle.json")
  list(GET pair 0 bench)
  list(GET pair 1 artifact)
  execute_process(COMMAND "${bench}"
                  WORKING_DIRECTORY "${work_dir}"
                  RESULT_VARIABLE code
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${bench} failed with ${code}")
  endif()
  compare_or_die("${work_dir}/${artifact}" "${golden_dir}/${artifact}" "${artifact}")
endforeach()

# --- evsys single run of every shipped scenario + seed-ladder campaign -------
# city_commute (active, NMC, obs on), limp_home (passive by default, faults),
# the actively balanced 8x12 fuzzed_error_storm at 0.2 s control, and the LFP
# fuzzed_highway_degraded without balancing: between them every balancing
# policy and both chemistries of the pack sweep.
foreach(name IN ITEMS city_commute limp_home fuzzed_error_storm fuzzed_highway_degraded)
  execute_process(COMMAND "${EVSYS}" run "${SOURCE_DIR}/examples/scenarios/${name}.scn"
                  --out "${work_dir}/${name}.result.json"
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "evsys run ${name}.scn failed with ${code}")
  endif()
  compare_or_die("${work_dir}/${name}.result.json"
                 "${golden_dir}/golden_${name}.result.json"
                 "evsys run report (${name})")
endforeach()

set(scenario "${SOURCE_DIR}/examples/scenarios/city_commute.scn")

execute_process(COMMAND "${EVSYS}" campaign "${scenario}" --seeds 4 --jobs 2
                --out "${work_dir}/city_commute.campaign.json"
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "evsys campaign failed with ${code}")
endif()
compare_or_die("${work_dir}/city_commute.campaign.json"
               "${golden_dir}/golden_city_commute.campaign.json"
               "evsys campaign report")
