# Golden end-to-end determinism check for the search CLI.
#
# For each run (a short SA and a short multi-start PT on ota_small, and a
# short SA on a 100-block scenario), for every kernel tier, the afp_cli
# pipeline must write a bitwise-identical --report for AFP_NUM_THREADS in
# {1, 4} and across two repeats.  The report contains the full-precision
# best cost, metrics, rectangles and routed wirelength and no timings, so
# any byte of drift means the search or routing path diverged.  Every net
# routes on a window around its pins first; the 100-block scenario gives
# that path far more nets and obstacles than ota_small does.  Each run is
# a separate process with its own address layout, so a stage that iterates
# a pointer-keyed or unordered container shows up here as drift.
#
# Invoked by CTest as:
#   cmake -DAFP_CLI=<path-to-afp_cli> -DWORK_DIR=<scratch-dir> -P e2e_determinism.cmake
if(NOT AFP_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DAFP_CLI=... -DWORK_DIR=... -P e2e_determinism.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# avx2 falls back to scalar on CPUs without AVX2, so the list is safe anywhere.
set(tiers naive scalar avx2 auto)

# name;args... per run: one plain SA, one multi-start parallel tempering,
# one SA on a 100-block scenario.
set(runs
    "sa\;ota_small\;--baseline\;sa\;--iters\;120"
    "pt\;ota_small\;--baseline\;pt\;--restarts\;2\;--opt\;replicas=4,swap_interval=8\;--iters\;60"
    "sa_windowed\;--scenario\;ota:100:1\;--baseline\;sa\;--iters\;120")

foreach(run IN LISTS runs)
  list(GET run 0 name)
  list(SUBLIST run 1 -1 flags)
  foreach(tier IN LISTS tiers)
    # The first (tier, threads=1, repeat=1) report is the golden reference
    # every other (threads, repeat) combination must reproduce bitwise.
    set(golden_file "")
    foreach(threads 1 4)
      foreach(repeat 1 2)
        set(report "${WORK_DIR}/${name}_${tier}_t${threads}_r${repeat}.txt")
        execute_process(
          COMMAND ${CMAKE_COMMAND} -E env
                  AFP_NUM_THREADS=${threads} AFP_KERNEL_TIER=${tier}
                  ${AFP_CLI} floorplan ${flags} --seed 7
                  --report ${report}
          RESULT_VARIABLE rc
          OUTPUT_QUIET
          ERROR_VARIABLE err)
        if(NOT rc EQUAL 0)
          message(FATAL_ERROR
            "afp_cli failed (${name}, tier ${tier}, ${threads} threads): ${err}")
        endif()
        if(golden_file STREQUAL "")
          set(golden_file "${report}")
          file(READ "${report}" golden_content)
        else()
          file(READ "${report}" content)
          if(NOT content STREQUAL golden_content)
            message(FATAL_ERROR
              "nondeterministic result: ${report} differs from ${golden_file} "
              "(run ${name}, tier ${tier}, ${threads} threads, repeat ${repeat})")
          endif()
        endif()
      endforeach()
    endforeach()
    message(STATUS "${name} @ tier ${tier}: bitwise identical across threads and repeats")
  endforeach()
endforeach()
