# Run a tracking figure with the recorder flags that write files and
# check that it writes each of them:
#
#   cmake -DFIG=<fig13_tracking_jan_az> -DDIR=<scratch dir>
#         -P fig_recorders.cmake
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
execute_process(COMMAND ${FIG} --telemetry-out=t.csv --profile-out=p.json
        --audit=strict --audit-out=a.json
    WORKING_DIRECTORY ${DIR} RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${FIG} failed: ${rc}")
endif()
foreach(f t.csv p.json p.json.folded a.json t.csv.manifest.json)
    if(NOT EXISTS ${DIR}/${f})
        message(FATAL_ERROR "${FIG} did not write ${f}")
    endif()
endforeach()
file(READ ${DIR}/a.json audit)
if(NOT audit MATCHES "\"mode\": \"strict\"")
    message(FATAL_ERROR "a.json is not a strict audit: ${audit}")
endif()
file(STRINGS ${DIR}/t.csv header LIMIT_COUNT 1)
if(NOT header MATCHES "^unit,")
    message(FATAL_ERROR "t.csv has no unit column: ${header}")
endif()
file(REMOVE_RECURSE ${DIR})
