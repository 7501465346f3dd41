# Service-level smoke test for discovery-as-a-service (docs/SERVING.md):
# serve_loadgen spawns its own tupelo_serve, drives concurrent clients
# with a mix of satisfiable and unsatisfiable (deadline-burning) jobs,
# SIGKILLs the daemon mid-run and restarts it on the same journal — the
# crash-durability proof. The loadgen exits non-zero if any accepted job
# fails to reach a terminal state (accepted-then-dropped), so this test
# is the end-to-end "kill -9 loses nothing" gate. The emitted report is
# then validated against the schema-10 checker and its summary asserted:
# at least one kill actually landed, recovery re-ran real jobs, zero
# violations. First, tupelo_serve's flag parsing is pinned: an unknown
# flag or a malformed value must exit 2 with the usage text before it
# binds anything.
#
# Expected -D variables:
#   LOADGEN     - path to the serve_loadgen binary
#   SERVE_BIN   - path to the tupelo_serve binary it spawns/kills
#   VALIDATOR   - path to scripts/check_bench_json.py
#   PYTHON      - python3 interpreter
#   OUT_JSON    - where to write the BENCH_serve report
#   JOURNAL_DIR - scratch journal directory (wiped before the run)

foreach(var LOADGEN SERVE_BIN VALIDATOR PYTHON OUT_JSON JOURNAL_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_smoke: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${JOURNAL_DIR}")

# Runs tupelo_serve with `flag` and fails unless it exits 2 with the usage
# text. The timeout turns a daemon that starts anyway into a failure
# instead of a hang.
function(expect_usage flag)
  execute_process(
    COMMAND "${SERVE_BIN}" "--journal-dir=${JOURNAL_DIR}" ${flag}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 10
  )
  if(NOT "${rc}" STREQUAL "2" OR NOT err MATCHES "usage: tupelo_serve")
    message(FATAL_ERROR
            "serve_smoke: tupelo_serve ${flag} exited '${rc}', expected 2 "
            "with usage text\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "serve_smoke: ${flag} -> usage")
endfunction()

expect_usage("--default-deadline-ms=-5")
expect_usage("--port=70000")
expect_usage("--workers=abc")
expect_usage("--workers=4x")
expect_usage("--retries=2")
expect_usage("--wokers=2")
file(REMOVE_RECURSE "${JOURNAL_DIR}")

# Half the jobs are unsatisfiable so searches are reliably in flight when
# the SIGKILL lands; two kill/restart cycles on the same journal.
execute_process(
  COMMAND "${LOADGEN}" --quick --seed=2006
          "--serve-bin=${SERVE_BIN}"
          "--journal-dir=${JOURNAL_DIR}"
          --clients=3 --jobs=12 --hard-pct=50 --deadline-ms=1500
          --disconnect-pct=10
          --kill-after-ms=400 --restarts=2
          --workers=2 --queue-limit=8 --checkpoint-interval=16
          "--json=${OUT_JSON}"
  RESULT_VARIABLE loadgen_rc
  OUTPUT_VARIABLE loadgen_out
  ERROR_VARIABLE loadgen_err
)
message(STATUS "serve_smoke:\n${loadgen_out}")
if(NOT loadgen_rc EQUAL 0)
  message(FATAL_ERROR
          "serve_smoke: loadgen reported violations (${loadgen_rc}):\n"
          "${loadgen_out}\n${loadgen_err}")
endif()

if(NOT EXISTS "${OUT_JSON}")
  message(FATAL_ERROR "serve_smoke: loadgen did not write ${OUT_JSON}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${VALIDATOR}" "${OUT_JSON}"
  RESULT_VARIABLE validator_rc
  OUTPUT_VARIABLE validator_out
  ERROR_VARIABLE validator_err
)
if(NOT validator_rc EQUAL 0)
  message(FATAL_ERROR
          "serve_smoke: report failed validation:\n${validator_err}")
endif()
message(STATUS "serve_smoke: ${validator_out}")

# Assert the chaos actually happened and the durability contract held.
execute_process(
  COMMAND "${PYTHON}" -c "
import json, sys
doc = json.load(open(sys.argv[1]))
summary = next(p for p in doc['panels'] if p['name'] == 'summary')
m = summary['runs'][0]
assert m['violations'] == 0, f'violations: {m[\"violations\"]}'
assert m['kills'] >= 1, 'no kill landed'
assert m['jobs_recovered'] >= 1, 'recovery never re-ran a job'
assert m['jobs_completed'] + m['jobs_disconnected'] == m['jobs_accepted'], \
    'accepted-then-dropped'
print('kills=%d recovered=%d completed=%d disconnected=%d accepted=%d' % (
    m['kills'], m['jobs_recovered'], m['jobs_completed'],
    m['jobs_disconnected'], m['jobs_accepted']))
" "${OUT_JSON}"
  RESULT_VARIABLE assert_rc
  OUTPUT_VARIABLE assert_out
  ERROR_VARIABLE assert_err
)
if(NOT assert_rc EQUAL 0)
  message(FATAL_ERROR
          "serve_smoke: durability assertions failed:\n${assert_err}")
endif()
message(STATUS "serve_smoke: ${assert_out}")
