# Regenerate one campaign summary and check it against its golden:
#
#   cmake -DCAMPAIGN=<solarcore_campaign> -DGOLDEN_CHECK=<golden_check>
#         -DGOLDEN=<golden.json> -DOUT=<summary.json>
#         "-DARGS=--preset=smoke ..." -P golden_check.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CAMPAIGN} ${args} --out=${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "solarcore_campaign ${ARGS} failed: ${rc}")
endif()
execute_process(COMMAND ${GOLDEN_CHECK} --check ${GOLDEN} ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OUT} does not match ${GOLDEN}")
endif()
