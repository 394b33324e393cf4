# Runs the CLI binary CLI with the list ARGS inside WORKDIR and
# compares its stdout with the committed GOLDEN_DIR/NAME.stdout. The
# "design:" line (wall-clock design-phase timings) is dropped from
# the comparison. With TRACE set, the CLI must also have written the
# Chrome trace WORKDIR/TRACE, which is compared with
# GOLDEN_DIR/NAME.trace.json.
#
#   cmake -DCLI=<xpro_cli> "-DARGS=--case;C1;--trace;event.json" \
#         -DNAME=single_node_trace -DGOLDEN_DIR=<tests/golden> \
#         -DWORKDIR=<scratch dir> -DTRACE=event.json \
#         -P cli_golden.cmake
#
# On a mismatch the actual output is left in WORKDIR next to the
# trace, so `diff` against the golden file shows what moved.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
execute_process(COMMAND ${CLI} ${ARGS}
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${result}" STREQUAL "0")
    message(FATAL_ERROR
        "xpro_cli ${ARGS}: exit '${result}', expected 0\n"
        "stderr:\n${err}")
endif()

string(REGEX REPLACE "(^|\n)design:[^\n]*\n" "\\1" out "${out}")
file(WRITE ${WORKDIR}/${NAME}.stdout "${out}")
file(READ ${GOLDEN_DIR}/${NAME}.stdout expected)
if(NOT "${out}" STREQUAL "${expected}")
    message(FATAL_ERROR
        "xpro_cli ${ARGS}: stdout differs from "
        "${GOLDEN_DIR}/${NAME}.stdout (actual: "
        "${WORKDIR}/${NAME}.stdout)")
endif()

if(TRACE)
    if(NOT EXISTS ${WORKDIR}/${TRACE})
        message(FATAL_ERROR "xpro_cli ${ARGS}: wrote no ${TRACE}")
    endif()
    file(READ ${WORKDIR}/${TRACE} trace)
    file(READ ${GOLDEN_DIR}/${NAME}.trace.json expected_trace)
    if(NOT "${trace}" STREQUAL "${expected_trace}")
        message(FATAL_ERROR
            "xpro_cli ${ARGS}: ${TRACE} differs from "
            "${GOLDEN_DIR}/${NAME}.trace.json (actual: "
            "${WORKDIR}/${TRACE})")
    endif()
endif()
