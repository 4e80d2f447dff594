# Selftest driver for tools/dead_code.py: runs the census on the
# two-program fixture under dead_code_fixture/ with four allowlists and
# asserts that it
#   - reports the seeded dead function (only a test program calls it),
#   - honours an allowlisted function and keeps what that function calls,
#   - fails on a stale entry (a function that links, one that is gone),
#   - fails on an entry without a category or a reason,
#   - passes once every finding is allowlisted.
# The fixture builds once into BUILD_DIR; later runs reuse it.
#
# Invoked by ctest as:
#   cmake -DPYTHON=... -DTOOL=... -DFIXTURE=... -DBUILD_DIR=... \
#         -P check_dead_code.cmake

function(run_census allowlist expected_rc out_var)
  execute_process(
    COMMAND "${PYTHON}" "${TOOL}" --source "${FIXTURE}"
            --build-dir "${BUILD_DIR}" --allowlist "${FIXTURE}/${allowlist}"
            --jobs 2
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  string(APPEND out "${err}")
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
            "dead_code selftest: expected exit ${expected_rc} with "
            "${allowlist}, got ${rc}. Output:\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_in out needle)
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
            "dead_code selftest: expected `${needle}`. Output:\n${out}")
  endif()
endfunction()

function(expect_not_in out needle)
  string(FIND "${out}" "${needle}" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR
            "dead_code selftest: unexpected `${needle}`. Output:\n${out}")
  endif()
endfunction()

run_census(allow_partial.txt 1 out)
expect_in("${out}" "fx::seededDead: DEAD")
expect_in("${out}" "fx::allowlisted: allowlisted (test-hook)")
expect_in("${out}" "fx::helperOfAllowlisted: kept: reached from an allowlisted function")
expect_in("${out}" "none of 2 programs links")
expect_not_in("${out}" "fx::usedByA")
expect_not_in("${out}" "fx::usedByB")

run_census(allow_stale.txt 1 out)
expect_in("${out}" "allow_stale.txt:3: fx::usedByB: stale entry: it now links")
expect_in("${out}" "allow_stale.txt:4: fx::removedLongAgo: stale entry: it no longer exists")
expect_in("${out}" "2 failures")

run_census(allow_malformed.txt 1 out)
expect_in("${out}" "allow_malformed.txt:1: malformed entry")
expect_in("${out}" "allow_malformed.txt:2: malformed entry")
expect_in("${out}" "allow_malformed.txt:3: fx::usedByA: unknown category")

run_census(allow_clean.txt 0 out)
expect_in("${out}" "0 failures")

message(STATUS "dead_code selftest: all assertions passed")
