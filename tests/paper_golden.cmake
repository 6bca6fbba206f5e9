# Runs one paper-reproduction bench and compares its stdout byte for byte
# with the committed golden (tests/golden/paper/<bench>.stdout).
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P paper_golden.cmake
#
# The benches print charged PRAM costs, which are deterministic by
# construction (independent of thread count and build type), so any
# difference is a change to the reproduction.  To re-bless after a
# deliberate change, copy ACTUAL over GOLDEN and review the diff.
foreach(var BENCH GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${ACTUAL}"
                        "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; "
                      "the actual output is in ${ACTUAL}")
endif()
