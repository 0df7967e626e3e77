# Runs a command line and checks its exit code; with EXPECT_CODE 2 it also
# requires a usage line on stderr.
#
#   cmake -DCLI=<binary> -DARGS="a|b|c" -DEXPECT_CODE=<n> -P expect_exit.cmake
#
# ARGS separates the arguments with '|' (a ';' would be split by the
# -D parser).
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR
          "expected exit code ${EXPECT_CODE}, got ${code}\nstderr:\n${err}")
endif()
if(EXPECT_CODE EQUAL 2 AND NOT err MATCHES "usage: ")
  message(FATAL_ERROR "no usage line on stderr:\n${err}")
endif()
