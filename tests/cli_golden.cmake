# Runs the CLI binary CLI with the list ARGS inside WORKDIR and
# compares its stdout with the committed GOLDEN_DIR/NAME.stdout. The
# "design:" line (wall-clock design-phase timings) is dropped from
# the comparison. MASK lists JSON keys whose values vary from run to
# run (wall-clock rates, peak RSS); each `"key":value` in stdout is
# written as `"key":"masked"` before the comparison. With TRACE set,
# the CLI must also have written the Chrome trace WORKDIR/TRACE,
# which is compared with GOLDEN_DIR/NAME.trace.json. CLI may be any
# program that exits 0, e.g. a bench harness.
#
#   cmake -DCLI=<xpro_cli> "-DARGS=--case;C1;--trace;event.json" \
#         -DNAME=single_node_trace -DGOLDEN_DIR=<tests/golden> \
#         -DWORKDIR=<scratch dir> -DTRACE=event.json \
#         -P cli_golden.cmake
#
# On a mismatch the actual output is left in WORKDIR next to the
# trace, so `diff` against the golden file shows what moved.
get_filename_component(program ${CLI} NAME)
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
execute_process(COMMAND ${CLI} ${ARGS}
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${result}" STREQUAL "0")
    message(FATAL_ERROR
        "${program} ${ARGS}: exit '${result}', expected 0\n"
        "stderr:\n${err}")
endif()

string(REGEX REPLACE "(^|\n)design:[^\n]*\n" "\\1" out "${out}")
foreach(key IN LISTS MASK)
    string(REGEX REPLACE "\"${key}\":[^,}]*" "\"${key}\":\"masked\""
           out "${out}")
endforeach()
file(WRITE ${WORKDIR}/${NAME}.stdout "${out}")
file(READ ${GOLDEN_DIR}/${NAME}.stdout expected)
if(NOT "${out}" STREQUAL "${expected}")
    message(FATAL_ERROR
        "${program} ${ARGS}: stdout differs from "
        "${GOLDEN_DIR}/${NAME}.stdout (actual: "
        "${WORKDIR}/${NAME}.stdout)")
endif()

if(TRACE)
    if(NOT EXISTS ${WORKDIR}/${TRACE})
        message(FATAL_ERROR "${program} ${ARGS}: wrote no ${TRACE}")
    endif()
    file(READ ${WORKDIR}/${TRACE} trace)
    file(READ ${GOLDEN_DIR}/${NAME}.trace.json expected_trace)
    if(NOT "${trace}" STREQUAL "${expected_trace}")
        message(FATAL_ERROR
            "${program} ${ARGS}: ${TRACE} differs from "
            "${GOLDEN_DIR}/${NAME}.trace.json (actual: "
            "${WORKDIR}/${TRACE})")
    endif()
endif()
