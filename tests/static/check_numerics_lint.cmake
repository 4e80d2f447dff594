# Selftest of the numerics-lint scalar-exp, sparse-hash,
# counter-member, text-stream and newton-loop rules: runs the lint on the
# seeded fixture tree and asserts each rule fires on its seeded violation
# while honoring the justified suppression. (Entry-check / status findings
# about the fixture's missing solver files are expected noise — the
# assertions below pin only these five rules.)
#
# Invoked by ctest as:
#   cmake -DPYTHON=... -DLINT=... -DFIXTURE=... -P check_numerics_lint.cmake

execute_process(
  COMMAND "${PYTHON}" "${LINT}" "${FIXTURE}"
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err
  RESULT_VARIABLE lint_rc)
string(APPEND lint_out "${lint_err}")

if(NOT lint_rc EQUAL 1)
  message(FATAL_ERROR
          "numerics_lint selftest: expected exit code 1 on the seeded "
          "fixture, got ${lint_rc}. Output:\n${lint_out}")
endif()

# The seeded inline exponential must be flagged by the scalar-exp rule.
string(FIND "${lint_out}" "seeded_exp.cpp:9: [scalar-exp]" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
          "numerics_lint selftest: expected scalar-exp finding at "
          "seeded_exp.cpp:9. Output:\n${lint_out}")
endif()

# The justified `lint: allow-scalar-exp` suppression must be honored.
string(FIND "${lint_out}" "seeded_exp.cpp:15" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR
          "numerics_lint selftest: the justified suppression at "
          "seeded_exp.cpp:15 must not be flagged. Output:\n${lint_out}")
endif()

# A hash map in the sparse layer must be flagged by the sparse-hash rule;
# an ordered map and the justified suppression must not.
string(FIND "${lint_out}" "seeded_hash.cpp:9: [sparse-hash]" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
          "numerics_lint selftest: expected sparse-hash finding at "
          "seeded_hash.cpp:9. Output:\n${lint_out}")
endif()
foreach(line 16 22)
  string(FIND "${lint_out}" "seeded_hash.cpp:${line}:" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR
            "numerics_lint selftest: seeded_hash.cpp:${line} must not be "
            "flagged. Output:\n${lint_out}")
  endif()
endforeach()

# A perf::Counters data member and a Counters* parameter outside src/perf
# must be flagged by the counter-member rule; a CounterScope-installed
# local, a reference to perf::global() and the justified suppression must
# not.
foreach(line 11 14)
  string(FIND "${lint_out}" "seeded_counters.cpp:${line}: [counter-member]" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
            "numerics_lint selftest: expected counter-member finding at "
            "seeded_counters.cpp:${line}. Output:\n${lint_out}")
  endif()
endforeach()
foreach(line 18 20 26)
  string(FIND "${lint_out}" "seeded_counters.cpp:${line}:" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR
            "numerics_lint selftest: seeded_counters.cpp:${line} must not be "
            "flagged. Output:\n${lint_out}")
  endif()
endforeach()

# A stream line loop in the engine must be flagged by the text-stream rule;
# the justified suppression and a plain character scan must not.
string(FIND "${lint_out}" "seeded_stream.cpp:9: [text-stream]" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
          "numerics_lint selftest: expected text-stream finding at "
          "seeded_stream.cpp:9. Output:\n${lint_out}")
endif()
foreach(line 11 19)
  string(FIND "${lint_out}" "seeded_stream.cpp:${line}:" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR
            "numerics_lint selftest: seeded_stream.cpp:${line} must not be "
            "flagged. Output:\n${lint_out}")
  endif()
endforeach()

# A hand-rolled Newton loop's budget charge and both fault points must be
# flagged by the newton-loop rule; the justified suppression and a name
# that only starts with chargeNewton must not.
foreach(line 10 12 13)
  string(FIND "${lint_out}" "seeded_newton.cpp:${line}: [newton-loop]" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
            "numerics_lint selftest: expected newton-loop finding at "
            "seeded_newton.cpp:${line}. Output:\n${lint_out}")
  endif()
endforeach()
foreach(line 20 24)
  string(FIND "${lint_out}" "seeded_newton.cpp:${line}:" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR
            "numerics_lint selftest: seeded_newton.cpp:${line} must not be "
            "flagged. Output:\n${lint_out}")
  endif()
endforeach()

message(STATUS "numerics_lint selftest: all assertions passed")
