# Runs PROGRAM with no arguments and byte-compares its stdout with GOLDEN.
#
#   cmake -DPROGRAM=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P compare_stdout.cmake
#
# The output is kept in ACTUAL, so a failure shows the unified diff and the
# file can be inspected (or promoted by scripts/regen_golden.sh).
execute_process(COMMAND "${PROGRAM}" OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
file(WRITE "${ACTUAL}" "${actual}")
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${GOLDEN}")
endif()
