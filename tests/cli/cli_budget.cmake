# End-to-end budget/cancellation contract of `regcluster mine`:
#   * exit code 3 on truncation, with a valid partial archive + JSON outcome
#   * exit code 2 on usage errors (positional arg, unknown flag)
#   * SIGINT mid-mine -> partial outputs still written, exit code 3
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
           --seed=9)

# Usage errors come back as exit 2, not a mid-parse process abort.
run_expect(2 ${CLI} mine positional-arg)
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/x.txt
           --no-such-flag=1)
run_expect(2 ${CLI} no-such-command)

# Runtime error (missing input file) is exit 1.
run_expect(1 ${CLI} mine --matrix=${WORKDIR}/does-not-exist.tsv
           --out=${WORKDIR}/x.txt)

# A non-finite gamma is a named InvalidArgument (exit 1), not an empty mine.
execute_process(COMMAND ${CLI} mine --matrix=${WORKDIR}/m.tsv
                        --out=${WORKDIR}/nan.txt --gamma=nan
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "InvalidArgument")
  message(FATAL_ERROR "--gamma=nan: expected exit 1 + InvalidArgument, got "
                      "${rc}:\n${out}\n${err}")
endif()

# An infinite cell is rejected by the text reader at read time: exit 1 and
# a Corruption naming its line and column, not a mine that silently drops
# the gene from every cluster.  (The miner's own +-inf check, for matrices
# that bypass the reader, is unit-tested.)  A row whose range overflows a
# double -- every cell finite -- reaches the miner, whose Prepare() names
# the gene in a FailedPrecondition (exit 1).
foreach(kind inf range)
  set(bad_tsv "gene")
  foreach(c RANGE 7)
    string(APPEND bad_tsv "\tc${c}")
  endforeach()
  foreach(g RANGE 39)
    string(APPEND bad_tsv "\ng${g}")
    foreach(c RANGE 7)
      math(EXPR v "(${g} * 7 + ${c} * 3) % 11")
      if(g EQUAL 5 AND c EQUAL 2)
        if(kind STREQUAL "inf")
          set(v "inf")
        else()
          set(v "1e308")
        endif()
      elseif(g EQUAL 5 AND c EQUAL 6 AND kind STREQUAL "range")
        set(v "-1e308")
      endif()
      string(APPEND bad_tsv "\t${v}")
    endforeach()
  endforeach()
  file(WRITE ${WORKDIR}/${kind}.tsv "${bad_tsv}\n")
  execute_process(COMMAND ${CLI} mine --matrix=${WORKDIR}/${kind}.tsv
                          --out=${WORKDIR}/${kind}.txt --ming=3 --minc=3
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(kind STREQUAL "inf")
    set(want "Corruption.*line 7, column 4: not a finite number: 'inf'")
  else()
    set(want "FailedPrecondition.*gene 'g5' overflows")
  endif()
  if(NOT rc EQUAL 1 OR NOT err MATCHES "${want}")
    message(FATAL_ERROR "${kind} row: expected exit 1 + \"${want}\", got "
                        "${rc}:\n${out}\n${err}")
  endif()
endforeach()

# An immediate deadline truncates before any root: exit 3, valid (possibly
# empty) archive and a JSON export carrying the outcome block.
run_expect(3 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --out=${WORKDIR}/deadline.txt --json=${WORKDIR}/deadline.json
           --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05
           --remove-dominated=false --deadline-ms=0)
foreach(f deadline.txt deadline.json)
  if(NOT EXISTS ${WORKDIR}/${f})
    message(FATAL_ERROR "truncated run did not write ${f}")
  endif()
endforeach()
file(READ ${WORKDIR}/deadline.json deadline_json)
if(NOT deadline_json MATCHES "\"status\": \"truncated\"")
  message(FATAL_ERROR "deadline.json missing truncated outcome:\n${deadline_json}")
endif()
if(NOT deadline_json MATCHES "\"stop_reason\": \"deadline\"")
  message(FATAL_ERROR "deadline.json missing stop reason:\n${deadline_json}")
endif()

# A node budget truncates deterministically: exit 3 and the archive must load
# back through the summarize subcommand (i.e. it is a *valid* partial file).
run_expect(3 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --out=${WORKDIR}/budget.txt --json=${WORKDIR}/budget.json
           --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05
           --remove-dominated=false --max-nodes=40)
run_expect(0 ${CLI} summarize --clusters=${WORKDIR}/budget.txt)
file(READ ${WORKDIR}/budget.json budget_json)
if(NOT budget_json MATCHES "\"stop_reason\": \"node_budget\"")
  message(FATAL_ERROR "budget.json missing node_budget reason:\n${budget_json}")
endif()

# A generous budget that never trips keeps exit code 0 and a complete outcome.
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --out=${WORKDIR}/full.txt --json=${WORKDIR}/full.json
           --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05
           --remove-dominated=false --max-nodes=100000000 --deadline-ms=600000)
file(READ ${WORKDIR}/full.json full_json)
if(NOT full_json MATCHES "\"status\": \"complete\"")
  message(FATAL_ERROR "full.json not complete:\n${full_json}")
endif()

# SIGINT mid-mine: run an explosive configuration (a large matrix with tiny
# MinG/MinC, ~30s+ unbudgeted) under a shell that interrupts it after 1s;
# the handler must trip the token, the partial archive and JSON must land on
# disk, and the exit code must be 3.  --deadline-ms backstops the test on
# platforms where the kill misfires (a deadline stop also exits 3).
find_program(SH_PROGRAM sh)
if(SH_PROGRAM)
  run_expect(0 ${CLI} generate --out-matrix=${WORKDIR}/big.tsv
             --genes=800 --conditions=25 --clusters=10 --seed=7)
  execute_process(
      COMMAND ${SH_PROGRAM} -c
      "${CLI} mine --matrix=${WORKDIR}/big.tsv --out=${WORKDIR}/sigint.txt \
         --json=${WORKDIR}/sigint.json --ming=8 --minc=4 --gamma=0.05 \
         --epsilon=1.0 --remove-dominated=false --deadline-ms=120000 & \
       pid=$!; sleep 1; kill -INT $pid 2>/dev/null; wait $pid; echo rc=$?"
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT out MATCHES "rc=3")
    message(FATAL_ERROR "SIGINT run did not exit 3:\n${out}\n${err}")
  endif()
  foreach(f sigint.txt sigint.json)
    if(NOT EXISTS ${WORKDIR}/${f})
      message(FATAL_ERROR "SIGINT run did not write ${f}")
    endif()
  endforeach()
  file(READ ${WORKDIR}/sigint.json sigint_json)
  if(NOT sigint_json MATCHES "\"stop_reason\": \"(cancelled|deadline)\"")
    message(FATAL_ERROR "sigint.json missing stop reason:\n${sigint_json}")
  endif()
endif()
