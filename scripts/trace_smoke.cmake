# Smoke test for the structured tracing pipeline: run one figure harness
# with --quick --trace= --flight-recorder (plus --json= so the report
# carries the schema-6 trace fields). Its --budget=20000 runs trip the
# state budget, so the flight recorder dumps to ${OUT_TRACE}.flight. Both
# the trace export and the dump are validated against the trace-event
# checker and fed through trace_report; the report is validated against
# the bench schema checker.
#
# Expected -D variables:
#   HARNESS         - path to the fig5_synthetic_ida binary
#   REPORT_TOOL     - path to the trace_report binary
#   TRACE_VALIDATOR - path to scripts/check_trace_json.py
#   BENCH_VALIDATOR - path to scripts/check_bench_json.py
#   PYTHON          - python3 interpreter
#   OUT_TRACE       - where to write the trace export
#   OUT_JSON        - where to write the bench report

foreach(var HARNESS REPORT_TOOL TRACE_VALIDATOR BENCH_VALIDATOR PYTHON
            OUT_TRACE OUT_JSON)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "trace_smoke: missing -D${var}")
  endif()
endforeach()

# A dump left by an earlier run must not stand in for this run's.
set(OUT_FLIGHT "${OUT_TRACE}.flight")
file(REMOVE "${OUT_FLIGHT}")

execute_process(
  COMMAND "${HARNESS}" --quick --budget=20000
          "--trace=${OUT_TRACE}" --flight-recorder "--json=${OUT_JSON}"
  RESULT_VARIABLE harness_rc
  OUTPUT_VARIABLE harness_out
  ERROR_VARIABLE harness_err
)
if(NOT harness_rc EQUAL 0)
  message(FATAL_ERROR
          "trace_smoke: harness failed (${harness_rc}):\n${harness_err}")
endif()

foreach(out OUT_TRACE OUT_FLIGHT OUT_JSON)
  if(NOT EXISTS "${${out}}")
    message(FATAL_ERROR "trace_smoke: harness did not write ${${out}}")
  endif()
endforeach()

foreach(trace "${OUT_TRACE}" "${OUT_FLIGHT}")
  execute_process(
    COMMAND "${PYTHON}" "${TRACE_VALIDATOR}" "${trace}"
    RESULT_VARIABLE trace_rc
    OUTPUT_VARIABLE trace_out
    ERROR_VARIABLE trace_err
  )
  if(NOT trace_rc EQUAL 0)
    message(FATAL_ERROR
            "trace_smoke: ${trace} failed validation:\n${trace_err}")
  endif()
  message(STATUS "trace_smoke: ${trace_out}")

  execute_process(
    COMMAND "${REPORT_TOOL}" "${trace}"
    RESULT_VARIABLE report_rc
    OUTPUT_VARIABLE report_out
    ERROR_VARIABLE report_err
  )
  if(NOT report_rc EQUAL 0)
    message(FATAL_ERROR "trace_smoke: trace_report failed on ${trace} "
                        "(${report_rc}):\n${report_err}")
  endif()
  string(REGEX MATCH "^[^\n]*" report_first_line "${report_out}")
  message(STATUS "trace_smoke: ${report_first_line}")
endforeach()

execute_process(
  COMMAND "${PYTHON}" "${BENCH_VALIDATOR}" "${OUT_JSON}"
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err
)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR
          "trace_smoke: report failed validation:\n${bench_err}")
endif()
message(STATUS "trace_smoke: ${bench_out}")
