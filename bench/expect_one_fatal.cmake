# Run QZ_COMMAND (with whatever environment the caller set) and require
# that it fails cleanly: exit status 1, not a signal, and exactly one
# "fatal:" line across stdout and stderr.
#
#   cmake -E env QZ_BENCH_SCALE=abc cmake -DQZ_COMMAND=<exe>
#         -P expect_one_fatal.cmake
execute_process(COMMAND "${QZ_COMMAND}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

string(REGEX MATCHALL "(^|\n)fatal:" fatals "${out}\n${err}")
list(LENGTH fatals count)
if(NOT status STREQUAL "1" OR NOT count EQUAL 1)
    message(FATAL_ERROR
        "${QZ_COMMAND}: want exit 1 and one fatal: line, got exit "
        "'${status}' and ${count}\nstdout:\n${out}\nstderr:\n${err}")
endif()
