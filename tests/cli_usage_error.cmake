# ctest gate for CLI argument errors: each bad argument must make the
# binary print a message and exit with status exactly 2 (the usage
# error code).  An abort (e.g. an uncaught parse exception) or any
# other status fails the test.
#
# Variables (passed with -D):
#   BIN    path to the executable under test
#   ARGS   semicolon-separated list of bad arguments, each run alone

foreach(arg IN LISTS ARGS)
    execute_process(
        COMMAND "${BIN}" "${arg}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT "${rc}" STREQUAL "2")
        message(FATAL_ERROR
            "'${BIN} ${arg}' exited with '${rc}', expected 2\n${err}")
    endif()
    if("${err}" STREQUAL "")
        message(FATAL_ERROR "'${BIN} ${arg}' printed no error message")
    endif()
endforeach()
