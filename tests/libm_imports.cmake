# Fails if a static library in LIBS imports a symbol named in
# FORBIDDEN, as `NM -u` lists it: the libm functions whose results
# would then depend on the host's libm.
#
#   cmake -DNM=<nm> "-DLIBS=libxpro_common.a;libxpro_data.a" \
#         "-DFORBIDDEN=log;sin;cos;sincos" -P libm_imports.cmake
set(found "")
foreach(lib IN LISTS LIBS)
    execute_process(COMMAND ${NM} -u ${lib}
                    RESULT_VARIABLE result
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT result EQUAL 0)
        message(FATAL_ERROR "${NM} -u ${lib}: exit ${result}\n${err}")
    endif()
    string(REPLACE "\n" ";" lines "${out}")
    foreach(line IN LISTS lines)
        if(line MATCHES "^ *U ([^ @]+)")
            list(FIND FORBIDDEN "${CMAKE_MATCH_1}" at)
            if(NOT at EQUAL -1)
                list(APPEND found "${lib}: ${CMAKE_MATCH_1}")
            endif()
        endif()
    endforeach()
endforeach()
if(found)
    list(JOIN found "\n" report)
    message(FATAL_ERROR "libm imports:\n${report}")
endif()
