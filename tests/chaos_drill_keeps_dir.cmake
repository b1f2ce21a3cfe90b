# A small chaos drill run with --dir pointing at a directory that already
# holds a file: a passing drill must leave that directory and the file in
# place and remove only the subdirectories it made.
#
#   cmake -DDRILL=<chaos_drill> -DCLI=<ropus_cli> -DDIR=<workdir> \
#         -P chaos_drill_keeps_dir.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
file(WRITE "${DIR}/sentinel" "kept\n")

execute_process(
  COMMAND "${DRILL}" "--cli=${CLI}" --apps=4 --ticks=20 --kills=1
          --net-ticks=0 "--dir=${DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos_drill exited with ${rc}")
endif()
if(NOT EXISTS "${DIR}/sentinel")
  message(FATAL_ERROR "chaos_drill deleted ${DIR} or the file it held")
endif()
foreach(sub ref chaos net introspect)
  if(EXISTS "${DIR}/${sub}")
    message(FATAL_ERROR "chaos_drill left ${DIR}/${sub} behind")
  endif()
endforeach()
file(REMOVE_RECURSE "${DIR}")
