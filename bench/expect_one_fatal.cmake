# Run QZ_COMMAND (a list: the executable, then its arguments) and
# require that it fails cleanly: exit status QZ_STATUS, not a signal,
# and exactly one "fatal:" line across stdout and stderr. When
# QZ_MATCH is set, that line must contain it.
#
#   cmake "-DQZ_COMMAND=<exe>;--scale;abc" -DQZ_STATUS=2
#         -P expect_one_fatal.cmake
execute_process(COMMAND ${QZ_COMMAND}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

string(REGEX MATCHALL "(^|\n)fatal:[^\n]*" fatals "${out}\n${err}")
list(LENGTH fatals count)
if(NOT status STREQUAL "${QZ_STATUS}" OR NOT count EQUAL 1)
    message(FATAL_ERROR
        "${QZ_COMMAND}: want exit ${QZ_STATUS} and one fatal: line, got "
        "exit '${status}' and ${count}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED QZ_MATCH)
    string(FIND "${fatals}" "${QZ_MATCH}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "${QZ_COMMAND}: the fatal: line does not name '${QZ_MATCH}':"
            "\n${fatals}")
    endif()
endif()
