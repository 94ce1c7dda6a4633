# afpd's flag handling: a malformed or out-of-range value, or a removed
# flag, must exit 2 with the usage text before the daemon binds anything —
# never start on a wrapped port, a zero drain grace or a wrapped count.
# Each case runs under a timeout: a daemon that starts anyway serves until
# it is killed, and the timeout fails the case.
#
# Invoked by CTest as:
#   cmake -DAFPD=<path-to-afpd> -DWORK_DIR=<dir> -P afpd_usage_error.cmake
if(NOT AFPD OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DAFPD=... -DWORK_DIR=... "
                      "-P afpd_usage_error.cmake")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})
set(sock ${WORK_DIR}/afpd.sock)

set(bad_invocations
    "--port\;70000"
    "--port\;-1"
    "--socket\;${sock}\;--drain-grace\;abc"
    "--socket\;${sock}\;--drain-grace\;-3"
    "--socket\;${sock}\;--threads\;0"
    "--socket\;${sock}\;--threads\;-2"
    "--socket\;${sock}\;--base-seed\;-5"
    "--socket\;${sock}\;--max-sessions\;4294967297"
    "--socket\;${sock}\;--session-quota\;0"
    "--socket\;${sock}\;--strike-limit\;-1"
    "--socket\;${sock}\;--queue-frames\;12x"
    "--socket\;${sock}\;--max-inflight\;2"
    "--socket\;${sock}\;--max-parked\;8")
foreach(invocation IN LISTS bad_invocations)
  execute_process(
    COMMAND ${AFPD} --quiet ${invocation}
    TIMEOUT 10
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "expected exit code 2 for 'afpd ${invocation}', got ${rc}: ${err}")
  endif()
  if(NOT err MATCHES "usage: afpd")
    message(FATAL_ERROR "no usage text for 'afpd ${invocation}': ${err}")
  endif()
endforeach()
message(STATUS "afpd rejects malformed and out-of-range flags with exit 2")
