# Exit-code smoke test for tupelo_cli: every numeric flag is parsed by one
# checked helper, so a malformed, negative or out-of-range value is a
# usage error (exit 2, usage text on stderr) rather than an uncaught
# exception (SIGABRT) or a silent wrap to a huge budget. The flags of
# the removed watchdog supervisor are unknown flags now and get the same
# usage exit. A small rename pair then has to run to a verified mapping
# (exit 0).
#
# Expected -D variables:
#   CLI      - path to the tupelo_cli binary
#   WORK_DIR - scratch directory for the .tdb inputs (wiped before the run)

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_smoke: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(source "${WORK_DIR}/source.tdb")
set(target "${WORK_DIR}/target.tdb")
file(WRITE "${source}" "relation Staff (Name, Office) {\n  (Ada, B12)\n}\n")
file(WRITE "${target}" "relation Staff (Person, Office) {\n  (Ada, B12)\n}\n")

# Runs tupelo_cli on the rename pair plus `flag` and fails unless it exits
# with `expected`.
function(expect_exit expected flag)
  execute_process(
    COMMAND "${CLI}" "${source}" "${target}" ${flag}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
  )
  if(NOT "${rc}" STREQUAL "${expected}")
    message(FATAL_ERROR
            "cli_smoke: tupelo_cli ${flag} exited '${rc}', expected "
            "${expected}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  if(expected EQUAL 2 AND NOT err MATCHES "usage: tupelo_cli")
    message(FATAL_ERROR
            "cli_smoke: tupelo_cli ${flag} printed no usage text:\n${err}")
  endif()
  message(STATUS "cli_smoke: ${flag} -> ${rc}")
endfunction()

expect_exit(2 "--threads=abc")
expect_exit(2 "--max-states=-5")
expect_exit(2 "--beam-width=0")
expect_exit(2 "--supervise")
expect_exit(2 "--rung-retries=1")
expect_exit(0 "--max-states=1000")
