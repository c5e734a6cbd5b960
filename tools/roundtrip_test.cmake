# Drives the CLI tools end to end; any nonzero exit fails the test.
execute_process(
  COMMAND ${LRB_GEN} --jobs 80 --procs 8 --placement hotspot --seed 5
  OUTPUT_FILE ${WORK_DIR}/roundtrip.lrb RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lrb_gen failed: ${rc}")
endif()
execute_process(
  COMMAND ${LRB_SOLVE} ${WORK_DIR}/roundtrip.lrb --algo mp-ls --k 6
          --out ${WORK_DIR}/roundtrip.assign RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lrb_solve failed: ${rc}")
endif()
execute_process(
  COMMAND ${LRB_EVAL} ${WORK_DIR}/roundtrip.lrb ${WORK_DIR}/roundtrip.assign
  RESULT_VARIABLE rc OUTPUT_VARIABLE eval_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lrb_eval failed: ${rc}")
endif()
if(NOT eval_out MATCHES "moves:")
  message(FATAL_ERROR "lrb_eval output missing report: ${eval_out}")
endif()
execute_process(
  COMMAND ${LRB_SWEEP} ${WORK_DIR}/roundtrip.lrb --k 2,4 --csv
  RESULT_VARIABLE rc OUTPUT_VARIABLE sweep_out ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lrb_sweep failed: ${rc}")
endif()
if(NOT sweep_out MATCHES "m-partition")
  message(FATAL_ERROR "lrb_sweep output missing rows")
endif()

# ---------------------------------------------------------------------------
# Malformed-input regressions: every tool must reject bad input with a
# nonzero exit and a diagnostic - never hang, wrap, crash, or silently
# accept (fuzz repros depend on the parser being trustworthy).

# Negative --jobs used to wrap through size_t to ~2^64 and hang the
# generator; it must be rejected up front.
execute_process(
  COMMAND ${LRB_GEN} --jobs -5
  RESULT_VARIABLE rc ERROR_VARIABLE gen_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "lrb_gen accepted --jobs -5")
endif()
if(NOT gen_err MATCHES "jobs")
  message(FATAL_ERROR "lrb_gen --jobs -5 gave no diagnostic: ${gen_err}")
endif()

# A bad thread count or move budget must be refused with a diagnostic
# naming the flag, before any pool or server is built: negative counts used
# to wrap through size_t and abort in ThreadPool, non-numbers threw out of
# std::stoll, and a negative --k tripped the solver's k >= 0 assertion.
function(expect_flag_rejected flag)
  string(JOIN " " command ${ARGN})
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc MATCHES "^[0-9]+$" OR rc EQUAL 0)
    message(FATAL_ERROR "'${command}' did not fail cleanly: ${rc}")
  endif()
  if(NOT err MATCHES "--${flag}")
    message(FATAL_ERROR "'${command}' gave no --${flag} diagnostic: ${err}")
  endif()
endfunction()
expect_flag_rejected(k ${LRB_SWEEP} ${WORK_DIR}/roundtrip.lrb --k -1)
expect_flag_rejected(k ${LRB_SWEEP} ${WORK_DIR}/roundtrip.lrb --k x)
expect_flag_rejected(threads
  ${LRB_SWEEP} ${WORK_DIR}/roundtrip.lrb --k 2 --threads -1)
expect_flag_rejected(workers ${LRB_BATCH} --generate 1 --workers -1)
expect_flag_rejected(workers ${LRB_BATCH} --generate 1 --workers x)
expect_flag_rejected(workers
  ${LRB_SERVE} --unix ${WORK_DIR}/flag_check.sock --workers -1)

# The same for connection, request, session, delta and frame counts: a
# negative count used to wrap through size_t and abort in a reserve (or run
# 2^64 - 1 requests), and a frame above the server's per-frame delta cap is
# answered BadRequest on every retry. None of these reaches a socket.
expect_flag_rejected(connections
  ${LRB_LOAD} --unix ${WORK_DIR}/flag_check.sock --connections -1)
expect_flag_rejected(requests
  ${LRB_LOAD} --unix ${WORK_DIR}/flag_check.sock --requests x)
expect_flag_rejected(sessions ${LRB_STREAM} --sessions -1)
expect_flag_rejected(deltas ${LRB_STREAM} --deltas -1)
expect_flag_rejected(frame ${LRB_STREAM} --frame -1)
expect_flag_rejected(frame ${LRB_STREAM} --frame 65537)

# A client's TCP port must be a whole number in 1-65535 (an out-of-range
# port used to wrap through uint16_t and connect somewhere else), and a
# cache budget must be a whole number of MiB (-1 used to run with a
# 2^64 - 2^20 byte budget, and x with the cache off).
expect_flag_rejected(tcp ${LRB_LOAD} --tcp 127.0.0.1:110527)
expect_flag_rejected(tcp ${LRB_STREAM} --tcp 127.0.0.1:70000)
expect_flag_rejected(cache-mb
  ${LRB_SERVE} --unix ${WORK_DIR}/flag_check.sock --cache-mb x)
expect_flag_rejected(cache-mb
  ${LRB_SERVE} --unix ${WORK_DIR}/flag_check.sock --cache-mb -1)
expect_flag_rejected(cache-mb ${LRB_STREAM} --cache-mb -1 --smoke --check)
expect_flag_rejected(cache-mb ${LRB_STREAM} --cache-mb x --smoke --check)

# Unknown flags are typos, not no-ops.
execute_process(
  COMMAND ${LRB_GEN} --jbos 10
  RESULT_VARIABLE rc ERROR_VARIABLE gen_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "lrb_gen accepted unknown flag --jbos")
endif()

# Garbage instead of an instance: parse diagnostic, nonzero exit.
file(WRITE ${WORK_DIR}/garbage.lrb "this is not an instance\n")
execute_process(
  COMMAND ${LRB_EVAL} ${WORK_DIR}/garbage.lrb ${WORK_DIR}/roundtrip.assign
  RESULT_VARIABLE rc ERROR_VARIABLE eval_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "lrb_eval accepted a garbage instance")
endif()
if(NOT eval_err MATCHES "parse error")
  message(FATAL_ERROR "lrb_eval gave no parse diagnostic: ${eval_err}")
endif()

# A negative job count used to wrap to a huge unsigned value; the parser
# must reject it on the 'jobs' line.
file(WRITE ${WORK_DIR}/negjobs.lrb "lrb-instance 1\nprocs 2\njobs -1\n")
execute_process(
  COMMAND ${LRB_SOLVE} ${WORK_DIR}/negjobs.lrb --algo greedy --k 1
  RESULT_VARIABLE rc ERROR_VARIABLE solve_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "lrb_solve accepted a negative job count")
endif()
if(NOT solve_err MATCHES "parse error")
  message(FATAL_ERROR "lrb_solve gave no parse diagnostic: ${solve_err}")
endif()

# A lying header (far more jobs than data) used to attempt the full upfront
# allocation; it must instead fail cleanly on the first missing job line.
file(WRITE ${WORK_DIR}/liar.lrb
  "lrb-instance 1\nprocs 2\njobs 99999999999\n3 1 0\n")
execute_process(
  COMMAND ${LRB_SOLVE} ${WORK_DIR}/liar.lrb --algo greedy --k 1
  RESULT_VARIABLE rc ERROR_VARIABLE solve_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "lrb_solve accepted a lying jobs header")
endif()
if(NOT solve_err MATCHES "bad job line")
  message(FATAL_ERROR "lrb_solve gave no job-line diagnostic: ${solve_err}")
endif()
