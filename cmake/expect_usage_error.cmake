# Smoke test for the CLI's unknown-flag handling: an unrecognized option
# must exit with code 2 and print the usage text (plus the offending flag)
# to stderr — never be silently ignored.
#
# Invoked by CTest as:
#   cmake -DAFP_CLI=<path-to-afp_cli> -P expect_usage_error.cmake
if(NOT AFP_CLI)
  message(FATAL_ERROR "usage: cmake -DAFP_CLI=... -P expect_usage_error.cmake")
endif()

execute_process(
  COMMAND ${AFP_CLI} floorplan ota_small --definitely-bogus
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit code 2 for an unknown flag, got ${rc}")
endif()
if(NOT err MATCHES "unknown option '--definitely-bogus'")
  message(FATAL_ERROR "stderr does not name the unknown flag: ${err}")
endif()
if(NOT err MATCHES "usage: afp")
  message(FATAL_ERROR "stderr does not contain the usage text: ${err}")
endif()
# A flag that only exists on a different command must be rejected too.
execute_process(
  COMMAND ${AFP_CLI} train --restarts 8
  RESULT_VARIABLE rc2
  OUTPUT_QUIET
  ERROR_VARIABLE err2)
if(NOT rc2 EQUAL 2)
  message(FATAL_ERROR "expected exit code 2 for a wrong-command flag, got ${rc2}")
endif()
if(NOT err2 MATCHES "unknown option '--restarts' for 'train'")
  message(FATAL_ERROR "stderr does not name the wrong-command flag: ${err2}")
endif()

# Malformed values are usage errors too: every numeric option is validated
# (historically `--seed abc` crashed with an uncaught std::invalid_argument
# from std::stoul), an unknown --baseline must name the registry, and a bad
# --opt key must name the optimizer's known options.  All exit 2 + usage.
# So do the removed spellings: pt's fixed-rung and adaptive-swap options,
# the --pt-* and --method flags and the sa-bstar name (one name per
# optimizer, one flag per setting: --baseline and --opt).
set(bad_invocations
    "floorplan\;ota_small\;--seed\;abc"
    "floorplan\;ota_small\;--iters\;12x"
    "floorplan\;ota_small\;--restarts\;-3"
    "floorplan\;ota_small\;--time-budget\;soon"
    "floorplan\;ota_small\;--time-budget\;nan"
    "floorplan\;ota_small\;--time-budget\;inf"
    "floorplan\;ota_small\;--baseline\;annealing-deluxe"
    "floorplan\;ota_small\;--opt\;bogus_key=1"
    "floorplan\;ota_small\;--baseline\;sa\;--opt\;iterations=many"
    "floorplan\;ota_small\;--baseline\;pt\;--opt\;replicas=1"
    "floorplan\;ota_small\;--baseline\;sa\;--opt\;iterations=-5"
    "floorplan\;ota_small\;--restarts\;4\;--time-budget\;0.1"
    "floorplan\;ota_small\;--batch\;nowhere\;--svg\;x.svg"
    "floorplan\;ota_small\;--baseline\;sa\;--pt-replicas\;4"
    "floorplan\;ota_small\;--baseline\;pt\;--opt\;anneal=false"
    "floorplan\;ota_small\;--baseline\;pt\;--opt\;t_hot=1"
    "floorplan\;ota_small\;--baseline\;pt\;--opt\;adaptive_swap=true"
    "floorplan\;ota_small\;--baseline\;pt\;--pt-replicas\;4"
    "floorplan\;ota_small\;--baseline\;pt\;--pt-adaptive"
    "floorplan\;ota_small\;--method\;sa"
    "floorplan\;ota_small\;--baseline\;sa-bstar"
    "floorplan\;ota_small\;--quanta\;0"
    "floorplan\;ota_small\;--quanta\;lots"
    "floorplan\;ota_small\;--restarts\;2\;--quanta\;4"
    "floorplan\;ota_small\;--job-timeout\;0"
    "floorplan\;ota_small\;--job-timeout\;never"
    "floorplan\;ota_small\;--max-retries\;-1"
    "floorplan\;ota_small\;--checkpoint\;cp.bin"
    "floorplan\;ota_small\;--quanta\;2\;--resume"
    "train\;--episodes\;1e3"
    "eval\;ota_small\;--attempts\;0")
foreach(invocation IN LISTS bad_invocations)
  execute_process(
    COMMAND ${AFP_CLI} ${invocation}
    RESULT_VARIABLE rc3
    OUTPUT_QUIET
    ERROR_VARIABLE err3)
  if(NOT rc3 EQUAL 2)
    message(FATAL_ERROR
      "expected exit code 2 for 'afp ${invocation}', got ${rc3}: ${err3}")
  endif()
  if(NOT err3 MATCHES "usage: afp")
    message(FATAL_ERROR "no usage text for 'afp ${invocation}': ${err3}")
  endif()
endforeach()
message(STATUS "unknown flags and malformed values rejected with exit 2")

# ------------------------------------------------- batch partial failure ---
# A manifest entry that cannot be loaded must be skipped (reported as a
# failed job, kind invalid_config), not abort the batch: a mixed batch exits
# 3 (partial failure), an all-bad batch exits 1.
if(NOT WORK_DIR)
  set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()
file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/mixed_manifest.txt
     "ota_small\n/nonexistent/netlist.sp\n")
execute_process(
  COMMAND ${AFP_CLI} floorplan --batch ${WORK_DIR}/mixed_manifest.txt
          --iters 30 --seed 1
  RESULT_VARIABLE rc4
  OUTPUT_VARIABLE out4
  ERROR_VARIABLE err4)
if(NOT rc4 EQUAL 3)
  message(FATAL_ERROR
    "expected exit code 3 for a partially failed batch, got ${rc4}: ${err4}")
endif()
if(NOT err4 MATCHES "skipping '/nonexistent/netlist.sp'")
  message(FATAL_ERROR "stderr does not name the skipped entry: ${err4}")
endif()
if(NOT out4 MATCHES "invalid_config")
  message(FATAL_ERROR
    "batch table does not classify the skipped job as invalid_config: ${out4}")
endif()
file(WRITE ${WORK_DIR}/bad_manifest.txt
     "/nonexistent/a.sp\n/nonexistent/b.sp\n")
execute_process(
  COMMAND ${AFP_CLI} floorplan --batch ${WORK_DIR}/bad_manifest.txt --seed 1
  RESULT_VARIABLE rc5
  OUTPUT_QUIET
  ERROR_QUIET)
if(NOT rc5 EQUAL 1)
  message(FATAL_ERROR
    "expected exit code 1 for an all-failed batch, got ${rc5}")
endif()
message(STATUS "batch skips unloadable entries; exit 3 flags partial failure")
