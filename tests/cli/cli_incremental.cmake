# End-to-end incremental time-course mining contract:
#   * `mine --incremental-out=S` seeds a chain and its output is byte-
#     identical to a plain mine of the same matrix
#   * `mine --append=COLS --prev-outcome=S` widens the matrix, re-mines only
#     the dirty roots, and its archive + JSON report are byte-identical to a
#     from-scratch mine of the widened matrix (--matrix-out persists it)
#   * chains extend across steps and across k-at-a-time appends
#   * misuse (orphan flags, incompatible modes) is a usage error (2); a
#     corrupt state file is a runtime error (1), before any output appears
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

function(expect_identical a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} differs from ${b}")
  endif()
endfunction()

set(MINE_FLAGS --ming=4 --minc=4 --gamma=0.15 --epsilon=0.1
    --deterministic-output)

run_expect(0 ${CLI} generate --out-matrix=${WORKDIR}/m.tsv
           --genes=80 --conditions=10 --clusters=2 --gene-fraction=0.1
           --seed=7)
# Append batches: matrices over the same 80 genes, one column per new
# condition (gene labels in the file are ignored; counts must match).
run_expect(0 ${CLI} generate --out-matrix=${WORKDIR}/cols1.tsv
           --genes=80 --conditions=3 --clusters=1 --gene-fraction=0.1
           --seed=8)
run_expect(0 ${CLI} generate --out-matrix=${WORKDIR}/cols2.tsv
           --genes=80 --conditions=4 --clusters=1 --gene-fraction=0.1
           --seed=9)

# --- seed step: identical to a plain mine ----------------------------------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${MINE_FLAGS}
           --out=${WORKDIR}/step0.txt --json=${WORKDIR}/step0.json
           --incremental-out=${WORKDIR}/state0.bin)
if(NOT EXISTS ${WORKDIR}/state0.bin)
  message(FATAL_ERROR "--incremental-out wrote no state file")
endif()
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${MINE_FLAGS}
           --out=${WORKDIR}/ref0.txt --json=${WORKDIR}/ref0.json)
expect_identical(${WORKDIR}/step0.txt ${WORKDIR}/ref0.txt "seed archive")
expect_identical(${WORKDIR}/step0.json ${WORKDIR}/ref0.json "seed json")

# --- first append (3 columns at once) --------------------------------------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${MINE_FLAGS}
           --append=${WORKDIR}/cols1.tsv --prev-outcome=${WORKDIR}/state0.bin
           --incremental-out=${WORKDIR}/state1.bin
           --matrix-out=${WORKDIR}/grown1.rgx
           --out=${WORKDIR}/step1.txt --json=${WORKDIR}/step1.json)
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/grown1.rgx ${MINE_FLAGS}
           --out=${WORKDIR}/ref1.txt --json=${WORKDIR}/ref1.json)
expect_identical(${WORKDIR}/step1.txt ${WORKDIR}/ref1.txt "append 1 archive")
expect_identical(${WORKDIR}/step1.json ${WORKDIR}/ref1.json "append 1 json")

# --- second append chains off the widened matrix + new state ---------------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/grown1.rgx ${MINE_FLAGS}
           --append=${WORKDIR}/cols2.tsv --prev-outcome=${WORKDIR}/state1.bin
           --incremental-out=${WORKDIR}/state2.bin
           --matrix-out=${WORKDIR}/grown2.rgx
           --out=${WORKDIR}/step2.txt --json=${WORKDIR}/step2.json)
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/grown2.rgx ${MINE_FLAGS}
           --out=${WORKDIR}/ref2.txt --json=${WORKDIR}/ref2.json)
expect_identical(${WORKDIR}/step2.txt ${WORKDIR}/ref2.txt "append 2 archive")
expect_identical(${WORKDIR}/step2.json ${WORKDIR}/ref2.json "append 2 json")

# --- misuse is a usage error (2), before any mining -------------------------
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${MINE_FLAGS}
           --append=${WORKDIR}/cols1.tsv --out=${WORKDIR}/x.txt)
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${MINE_FLAGS}
           --prev-outcome=${WORKDIR}/state0.bin --out=${WORKDIR}/x.txt)
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${MINE_FLAGS}
           --matrix-out=${WORKDIR}/x.rgx --out=${WORKDIR}/x.txt)
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${MINE_FLAGS}
           --incremental-out=${WORKDIR}/x.bin
           --checkpoint=${WORKDIR}/x.ckpt --out=${WORKDIR}/x.txt)
if(EXISTS ${WORKDIR}/x.txt)
  message(FATAL_ERROR "usage error must not mine")
endif()

# Budgeted runs cannot be spliced; the rejection is a runtime error with no
# output files.
run_expect(1 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${MINE_FLAGS}
           --incremental-out=${WORKDIR}/y.bin --max-nodes=100
           --out=${WORKDIR}/y.txt)
if(EXISTS ${WORKDIR}/y.txt OR EXISTS ${WORKDIR}/y.bin)
  message(FATAL_ERROR "rejected incremental run must write nothing")
endif()

# A corrupt state file is a runtime error (1).
file(WRITE ${WORKDIR}/junk.bin "not an incremental state")
run_expect(1 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${MINE_FLAGS}
           --append=${WORKDIR}/cols1.tsv --prev-outcome=${WORKDIR}/junk.bin
           --out=${WORKDIR}/z.txt)
if(EXISTS ${WORKDIR}/z.txt)
  message(FATAL_ERROR "corrupt state must not mine")
endif()

# Mining the same append under different options than the state is a
# runtime error naming the mismatch.
run_expect(1 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --ming=4 --minc=4 --gamma=0.2 --epsilon=0.1
           --deterministic-output
           --append=${WORKDIR}/cols1.tsv --prev-outcome=${WORKDIR}/state0.bin
           --out=${WORKDIR}/w.txt)
