# Reads the flag list from `CLI --help` and runs every flag with each
# hostile value below in three contexts: alone (single node), after
# "--fleet 2 --events 10" and after "--nodes 2000 --events 2". Fails
# unless every run exits 0, 1 (the "error:" exit) or 2 (the usage
# exit) within 60 s: no input may abort, crash or hang the CLI. Runs
# inside WORKDIR, since path flags (--stats-out abc) create files.
#
#   cmake -DCLI=<xpro_cli> -DWORKDIR=<scratch dir> \
#         -P cli_flag_sweep.cmake
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

execute_process(COMMAND ${CLI} --help
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE help)
if(NOT "${result}" STREQUAL "2")
    message(FATAL_ERROR "xpro_cli --help: exit '${result}', expected 2")
endif()
string(REGEX MATCHALL "\n  --[a-z-]+" flags "${help}")
list(TRANSFORM flags STRIP)
list(LENGTH flags flag_count)
if(flag_count LESS 37)
    message(FATAL_ERROR
        "xpro_cli --help lists ${flag_count} flags, expected at least "
        "37:\n${help}")
endif()

set(values "" 0 -1 nan inf 1e300 4294967297 18446744073709551616 abc)
set(context_single "")
set(context_fleet --fleet 2 --events 10)
set(context_population --nodes 2000 --events 2)

set(runs 0)
set(failures "")
foreach(context IN ITEMS single fleet population)
    foreach(flag IN LISTS flags)
        foreach(value IN LISTS values)
            execute_process(
                COMMAND ${CLI} ${context_${context}} ${flag} "${value}"
                WORKING_DIRECTORY ${WORKDIR}
                TIMEOUT 60
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE err)
            math(EXPR runs "${runs} + 1")
            if(NOT "${result}" MATCHES "^[012]$")
                string(APPEND failures
                    "  [${context}] ${flag} '${value}': exit "
                    "'${result}'\n${err}\n")
            endif()
        endforeach()
    endforeach()
endforeach()

if(failures)
    message(FATAL_ERROR
        "xpro_cli runs outside exit codes {0, 1, 2}:\n${failures}")
endif()
message(STATUS "${runs} runs of ${flag_count} flags, all exit 0, 1 or 2")
