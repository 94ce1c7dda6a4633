# End-to-end daemon smoke: afp_loadgen --spawn starts afpd on a unix
# socket, drives it with 4 concurrent client sessions x 3 seeds (checking
# cross-client byte-parity internally), SIGTERMs it and requires a clean
# drain (exit 0).  The canonical served report for every seed is then
# bitwise-compared against `afp_cli floorplan ... --report-json` for the
# same circuit/config/seed — the only member allowed to differ is the
# "timings" line, the report's one documented non-deterministic field.
#
# Invoked by CTest as:
#   cmake -DAFP_CLI=<path> -DAFPD=<path> -DLOADGEN=<path> -DWORK_DIR=<dir>
#         -P service_smoke.cmake
if(NOT AFP_CLI OR NOT AFPD OR NOT LOADGEN OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DAFP_CLI=... -DAFPD=... -DLOADGEN=... "
                      "-DWORK_DIR=... -P service_smoke.cmake")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(seeds 7 8 9)
set(circuit ota_small)
set(iters 60)

# Reference reports from the CLI path.
foreach(seed IN LISTS seeds)
  execute_process(
    COMMAND ${AFP_CLI} floorplan ${circuit} --baseline sa --iters ${iters}
            --seed ${seed} --report-json ${WORK_DIR}/cli_seed${seed}.json
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "afp_cli seed ${seed} failed (${rc}): ${err}")
  endif()
endforeach()

# Served reports: spawn the daemon, 4 concurrent sessions, drain on SIGTERM.
execute_process(
  COMMAND ${LOADGEN} --spawn ${AFPD} --socket ${WORK_DIR}/afpd.sock
          --clients 4 --seeds 7,8,9 --circuit ${circuit} --baseline sa
          --iters ${iters} --write-reports ${WORK_DIR}
          --bench-json ${WORK_DIR}/BENCH_service.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "afp_loadgen failed (${rc}):\n${out}\n${err}")
endif()
message(STATUS "${out}")

# Bitwise parity, daemon vs CLI, modulo the timings line.
foreach(seed IN LISTS seeds)
  foreach(side cli report)
    file(READ ${WORK_DIR}/${side}_seed${seed}.json ${side}_bytes)
    string(REGEX REPLACE "\"timings\": {[^}]*}" "\"timings\": {}"
           ${side}_bytes "${${side}_bytes}")
  endforeach()
  if(NOT cli_bytes STREQUAL report_bytes)
    message(FATAL_ERROR "seed ${seed}: served report differs from afp_cli "
                        "--report-json beyond the timings line")
  endif()
endforeach()

file(READ ${WORK_DIR}/BENCH_service.json bench)
foreach(key jobs_per_s p50_ms p99_ms)
  if(NOT bench MATCHES "\"${key}\"")
    message(FATAL_ERROR "BENCH_service.json is missing ${key}: ${bench}")
  endif()
endforeach()
message(STATUS "4-client served reports bitwise-match afp_cli for seeds 7 8 9")
