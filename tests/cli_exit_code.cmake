# Runs the CLI binary CLI with the list ARGS and fails unless it
# exits with exactly EXPECTED. An abort (exit 134 or a signal) thus
# fails a case that expects the clean "error:" exit 1.
#
#   cmake -DCLI=<xpro_cli> "-DARGS=--case;C1" -DEXPECTED=0 \
#         -P cli_exit_code.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${result}" STREQUAL "${EXPECTED}")
    message(FATAL_ERROR
        "xpro_cli ${ARGS}: exit '${result}', expected ${EXPECTED}\n"
        "stdout:\n${out}\nstderr:\n${err}")
endif()
