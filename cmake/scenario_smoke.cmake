# Workload-ingestion smoke: the checked-in example deck must run end to end
# through `afp_cli ingest` with a schema-valid JSON report, the checked-in
# malformed deck must exit 2 with a file:line diagnostic, and a 3-family x
# 2-size scenario matrix must produce bitwise-identical batch reports at
# AFP_NUM_THREADS 1 and 4 (modulo the runtime members: timings, runtime_s
# and the recorded thread count).
#
# Invoked by CTest as:
#   cmake -DAFP_CLI=... -DPYTHON=... -DSCHEMA_DIR=... -DEXAMPLES_DIR=...
#         -DWORK_DIR=... -P scenario_smoke.cmake
# (PYTHON may be empty: the schema validation is skipped then.)
if(NOT AFP_CLI OR NOT SCHEMA_DIR OR NOT EXAMPLES_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
    "usage: cmake -DAFP_CLI=... -DPYTHON=... -DSCHEMA_DIR=... "
    "-DEXAMPLES_DIR=... -DWORK_DIR=... -P scenario_smoke.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# --- 1. example deck: parse, elaborate, search, report -------------------
set(ingest_report "${WORK_DIR}/ingest.json")
execute_process(
  COMMAND ${AFP_CLI} ingest ${EXAMPLES_DIR}/two_stage_ota.sp
          --baseline sa --iters 400 --seed 7 --report-json ${ingest_report}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "example-deck ingest failed (rc ${rc}): ${out}\n${err}")
endif()
if(NOT out MATCHES "blocks: [1-9]")
  message(FATAL_ERROR "ingest produced no recognized blocks:\n${out}")
endif()
if(PYTHON)
  execute_process(
    COMMAND ${PYTHON} ${SCHEMA_DIR}/check_report_json.py
            ${SCHEMA_DIR}/report_schema.json ${ingest_report}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE vout
    ERROR_VARIABLE verr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ingest JSON violates the schema: ${verr}")
  endif()
  message(STATUS "${vout}")
endif()

# --- 2. malformed deck: structured exit 2, never a crash -----------------
execute_process(
  COMMAND ${AFP_CLI} ingest ${EXAMPLES_DIR}/broken_unterminated.sp
          --parse-only
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "malformed deck must exit 2, got rc ${rc}: ${out}\n${err}")
endif()
if(NOT err MATCHES "broken_unterminated.sp:3")
  message(FATAL_ERROR "malformed-deck diagnostic lost its file:line:\n${err}")
endif()

# --- 3. scenario matrix: 1- vs 4-thread bitwise batch reports ------------
foreach(threads 1 4)
  set(report "${WORK_DIR}/matrix_t${threads}.json")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env AFP_NUM_THREADS=${threads}
            ${AFP_CLI} floorplan --scenario-matrix ota,latch,driver:10,16:1
            --baseline sa --iters 600 --opt spacing_um=0 --seed 5
            --report-json ${report}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "scenario matrix failed at ${threads} threads (rc ${rc}): "
      "${out}\n${err}")
  endif()
  if(NOT out MATCHES "matrix: 6/6 done")
    message(FATAL_ERROR "matrix did not finish all 6 instances:\n${out}")
  endif()
  file(READ "${report}" body)
  string(REGEX REPLACE "\"timings\": {[^}]*}" "\"timings\": {}" body "${body}")
  string(REGEX REPLACE "\"runtime_s\": [0-9.eE+-]+" "\"runtime_s\": 0"
         body "${body}")
  string(REGEX REPLACE "\"threads\": [0-9]+" "\"threads\": 0" body "${body}")
  set(norm_t${threads} "${body}")
endforeach()
if(NOT norm_t1 STREQUAL norm_t4)
  file(WRITE "${WORK_DIR}/norm_t1.json" "${norm_t1}")
  file(WRITE "${WORK_DIR}/norm_t4.json" "${norm_t4}")
  message(FATAL_ERROR
    "scenario matrix is thread-count dependent: ${WORK_DIR}/norm_t1.json "
    "vs ${WORK_DIR}/norm_t4.json differ")
endif()
if(PYTHON)
  execute_process(
    COMMAND ${PYTHON} ${SCHEMA_DIR}/check_report_json.py
            ${SCHEMA_DIR}/report_schema.json ${WORK_DIR}/matrix_t1.json batch
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE vout
    ERROR_VARIABLE verr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "matrix batch JSON violates the schema: ${verr}")
  endif()
  message(STATUS "${vout}")
endif()
message(STATUS
  "ingest + malformed-deck + 6-instance matrix smoke finished cleanly "
  "(1- vs 4-thread reports bitwise identical)")
