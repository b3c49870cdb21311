# End-to-end out-of-core mining contract:
#   * `convert --out-format=bin` produces a binary matrix that round-trips
#     back through `convert --out-format=text`
#   * `mine --matrix-format=bin` mines the mapped file and emits output
#     identical to the resident text-path mine; `--model-cache-mb=N` is
#     still accepted and changes nothing
#   * --matrix-format=auto sniffs the binary magic
#   * the model bytes reach the Prometheus export, and the model-cache rows
#     read 0 (the gamma model is its bitmap index; no cache exists)
#   * a malformed --model-cache-mb is still a usage error (2)
#   * misuse (binary + --normalize, bad formats) is a usage error (2)
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

function(run_expect expected_rc)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR
            "expected exit ${expected_rc}, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

run_expect(0 ${CLI} generate --out-matrix=${WORKDIR}/m.tsv
           --genes=200 --conditions=16 --clusters=3 --gene-fraction=0.05
           --seed=11)

# --- convert: text -> bin -> text round-trips ------------------------------
run_expect(0 ${CLI} convert --in=${WORKDIR}/m.tsv
           --out=${WORKDIR}/m.rgx --out-format=bin)
if(NOT EXISTS ${WORKDIR}/m.rgx)
  message(FATAL_ERROR "convert --out-format=bin wrote nothing")
endif()
run_expect(0 ${CLI} convert --in=${WORKDIR}/m.rgx
           --out=${WORKDIR}/roundtrip.tsv --out-format=text)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/m.tsv ${WORKDIR}/roundtrip.tsv
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "text -> bin -> text round-trip changed the matrix")
endif()

# --- resident reference mine ----------------------------------------------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --out=${WORKDIR}/resident.txt
           --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05)

# --- out-of-core mine must be byte-identical -------------------------------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.rgx --matrix-format=bin
           --model-cache-mb=1
           --out=${WORKDIR}/outofcore.txt
           --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05
           --metrics-out=${WORKDIR}/outofcore.prom --metrics-format=prom)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/resident.txt ${WORKDIR}/outofcore.txt
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "out-of-core mine differs from the resident mine")
endif()

# The model bytes reach the export; the model-cache rows stay, at 0.
file(READ ${WORKDIR}/outofcore.prom prom)
if(NOT prom MATCHES "\nregcluster_model_cache_misses_total 0\n")
  message(FATAL_ERROR "out-of-core mine exported cache misses:\n${prom}")
endif()
if(NOT prom MATCHES "\nregcluster_model_bytes [1-9][0-9]*\n")
  message(FATAL_ERROR "out-of-core mine exported no model bytes:\n${prom}")
endif()

# --- auto-sniffing accepts the binary file without the explicit flag -------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.rgx
           --model-cache-mb=1
           --out=${WORKDIR}/sniffed.txt
           --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/resident.txt ${WORKDIR}/sniffed.txt
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "auto-sniffed binary mine differs from resident mine")
endif()

# A mapped mine without --model-cache-mb must also agree.
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.rgx --matrix-format=bin
           --out=${WORKDIR}/mapped_eager.txt
           --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/resident.txt ${WORKDIR}/mapped_eager.txt
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "mapped eager mine differs from resident mine")
endif()

# --- misuse is a usage error (2), before any mining ------------------------
# Normalization would mutate the read-only mapping.
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.rgx --matrix-format=bin
           --normalize=zscore --out=${WORKDIR}/x.txt
           --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05)
if(EXISTS ${WORKDIR}/x.txt)
  message(FATAL_ERROR "usage error must not mine")
endif()
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.rgx --matrix-format=elf
           --out=${WORKDIR}/x2.txt)
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.rgx --model-cache-mb=1x
           --out=${WORKDIR}/x4.txt --ming=6 --minc=5 --gamma=0.1
           --epsilon=0.05)
if(EXISTS ${WORKDIR}/x4.txt)
  message(FATAL_ERROR "malformed --model-cache-mb must not mine")
endif()
run_expect(2 ${CLI} convert --in=${WORKDIR}/m.tsv
           --out=${WORKDIR}/x.rgx --out-format=parquet)

# A text file forced through the binary reader is a data error, not a crash.
run_expect(1 ${CLI} mine --matrix=${WORKDIR}/m.tsv --matrix-format=bin
           --out=${WORKDIR}/x3.txt
           --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05)
