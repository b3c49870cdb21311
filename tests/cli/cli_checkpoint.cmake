# End-to-end durable checkpoint/resume contract of `regcluster mine`:
#   * --resume-from with no snapshot yet starts fresh (exit 0, note printed)
#   * a durable run's final output is byte-identical to a plain run, and its
#     final snapshot resumes straight to the same output (exit 0)
#   * a budget-truncated durable run exits 3 and prints the resume command;
#     re-running with the snapshot and no budget completes to the reference
#   * under the default dominance pass, a budget-truncated durable run
#     writes the same archive and JSON as the plain run under that budget
#   * two --deterministic-output durable runs write byte-identical metrics
#   * a corrupt snapshot is exit 1 (kCorruption surfaced, not mined through)
#   * resuming a mine snapshot in sweep mode (kind mismatch) is exit 1
#   * resuming under different options is exit 1 (validation, not garbage)
#   * a deadline-stopped durable sweep exits 3, and resuming it without the
#     deadline reproduces the plain sweep's JSON and CSV byte for byte
#   * --checkpoint-every-ms=0 is a usage error (exit 2)
# The scenario is stateful (fresh-start depends on no snapshot existing), so
# start from an empty work directory every run.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

function(run_expect expected_rc)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR
            "expected exit ${expected_rc}, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

run_expect(0 ${CLI} generate --out-matrix=${WORKDIR}/m.tsv
           --genes=300 --conditions=16 --clusters=4 --gene-fraction=0.05
           --seed=23)
set(mine_flags --ming=5 --minc=4 --gamma=0.12 --epsilon=0.08)

# --- plain reference -------------------------------------------------------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
           --out=${WORKDIR}/ref.out --json=${WORKDIR}/ref.json
           --deterministic-output)

# --- usage: non-positive cadence is exit 2, before any work ---------------
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
           --out=${WORKDIR}/x.out --checkpoint=${WORKDIR}/x.ckpt
           --checkpoint-every-ms=0)

# --- fresh start: --resume-from with no snapshot is not an error ----------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
           --out=${WORKDIR}/durable.out --json=${WORKDIR}/durable.json
           --deterministic-output
           --checkpoint=${WORKDIR}/d.ckpt --checkpoint-every-ms=50
           --resume-from=${WORKDIR}/d.ckpt)
if(NOT last_err MATCHES "no checkpoint at .* starting fresh")
  message(FATAL_ERROR "fresh start note missing:\n${last_err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/ref.out ${WORKDIR}/durable.out
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "durable mine differs from the plain mine")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/ref.json ${WORKDIR}/durable.json
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "durable mine json differs from the plain mine json")
endif()

# The run left a final snapshot; resuming from it replays to the same bytes.
if(NOT EXISTS ${WORKDIR}/d.ckpt.a AND NOT EXISTS ${WORKDIR}/d.ckpt.b)
  message(FATAL_ERROR "durable run wrote no snapshot buffers")
endif()
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
           --out=${WORKDIR}/replay.out --json=${WORKDIR}/replay.json
           --deterministic-output --resume-from=${WORKDIR}/d.ckpt)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/ref.out ${WORKDIR}/replay.out
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "replayed complete snapshot differs from reference")
endif()

# --- truncation: exit 3, banner names the resume command ------------------
run_expect(3 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
           --remove-dominated=false
           --out=${WORKDIR}/part.out --json=${WORKDIR}/part.json
           --deterministic-output
           --checkpoint=${WORKDIR}/p.ckpt --checkpoint-every-ms=50
           --max-nodes=200)
if(NOT last_err MATCHES "--resume-from=")
  message(FATAL_ERROR "truncation banner lacks the resume command:\n${last_err}")
endif()

# Re-running from the snapshot without the budget completes to the
# reference (modulo the dominance pass disabled above).
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
           --remove-dominated=false
           --out=${WORKDIR}/resumed.out --json=${WORKDIR}/resumed.json
           --deterministic-output
           --checkpoint=${WORKDIR}/p.ckpt --checkpoint-every-ms=50
           --resume-from=${WORKDIR}/p.ckpt)
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
           --remove-dominated=false
           --out=${WORKDIR}/ref_nodom.out --deterministic-output)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/ref_nodom.out ${WORKDIR}/resumed.out
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "budget-truncated resume differs from reference")
endif()

# The default dominance pass runs on a truncated durable mine as on a plain
# one: the archive and the JSON (outcome block included) match.  200 nodes
# cut inside the first root; 1000 keep 42 raw clusters, 26 after the pass.
foreach(budget 200 1000)
  run_expect(3 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
             --out=${WORKDIR}/dom_plain.out --json=${WORKDIR}/dom_plain.json
             --deterministic-output --max-nodes=${budget})
  run_expect(3 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
             --out=${WORKDIR}/dom_durable.out
             --json=${WORKDIR}/dom_durable.json --deterministic-output
             --checkpoint=${WORKDIR}/dom${budget}.ckpt
             --checkpoint-every-ms=50 --max-nodes=${budget})
  foreach(f out json)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${WORKDIR}/dom_plain.${f} ${WORKDIR}/dom_durable.${f}
                    RESULT_VARIABLE cmp_rc)
    if(NOT cmp_rc EQUAL 0)
      message(FATAL_ERROR "--max-nodes=${budget}: truncated durable mine ${f} "
                          "differs from the plain mine under the default "
                          "dominance pass")
    endif()
  endforeach()
endforeach()

# --- corruption: a damaged snapshot is exit 1, not a silent fresh start ---
if(EXISTS ${WORKDIR}/d.ckpt.a)
  set(buffer ${WORKDIR}/d.ckpt.a)
else()
  set(buffer ${WORKDIR}/d.ckpt.b)
endif()
file(WRITE ${WORKDIR}/corrupt.ckpt.a "RGCXCKP1 this is not a checkpoint")
run_expect(1 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
           --out=${WORKDIR}/y.out --resume-from=${WORKDIR}/corrupt.ckpt)

# --- kind mismatch: a mine snapshot cannot seed a sweep (and stays 1) -----
run_expect(1 ${CLI} mine --matrix=${WORKDIR}/m.tsv --ming=5 --minc=4
           --sweep=gamma=0.1:0.2:0.1,eps=0.08 --sweep-out=${WORKDIR}/sw.json
           --resume-from=${WORKDIR}/d.ckpt)

# --- option mismatch: resuming under different options is exit 1 ----------
run_expect(1 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --ming=5 --minc=4 --gamma=0.12 --epsilon=0.2
           --out=${WORKDIR}/z.out --resume-from=${WORKDIR}/d.ckpt)

# --- sweep durable path: fresh == plain, and a final snapshot replays -----
set(sweep_spec "gamma=0.1:0.15:0.05,eps=0.08")
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv --ming=5 --minc=4
           --sweep=${sweep_spec} --sweep-out=${WORKDIR}/sw_ref.json
           --sweep-csv=${WORKDIR}/sw_ref.csv --deterministic-output)
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv --ming=5 --minc=4
           --sweep=${sweep_spec} --sweep-out=${WORKDIR}/sw_dur.json
           --sweep-csv=${WORKDIR}/sw_dur.csv --deterministic-output
           --checkpoint=${WORKDIR}/s.ckpt --checkpoint-every-ms=50
           --resume-from=${WORKDIR}/s.ckpt)
foreach(f json csv)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORKDIR}/sw_ref.${f} ${WORKDIR}/sw_dur.${f}
                  RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR "durable sweep ${f} differs from the plain sweep")
  endif()
endforeach()
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv --ming=5 --minc=4
           --sweep=${sweep_spec} --sweep-out=${WORKDIR}/sw_replay.json
           --deterministic-output --resume-from=${WORKDIR}/s.ckpt)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/sw_ref.json ${WORKDIR}/sw_replay.json
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "replayed sweep snapshot differs from reference")
endif()

# --- sweep hard stop: a deadline-cut sweep resumes to the reference ------
# A hard stop snapshots the start of the group it cut, so resuming without
# the deadline re-runs from there and lands on the uninterrupted sweep.
run_expect(3 ${CLI} mine --matrix=${WORKDIR}/m.tsv --ming=5 --minc=4
           --sweep=${sweep_spec} --sweep-out=${WORKDIR}/sw_cut.json
           --deterministic-output --checkpoint=${WORKDIR}/hs.ckpt
           --deadline-ms=0)
if(NOT last_err MATCHES "--resume-from=")
  message(FATAL_ERROR "stopped sweep lacks the resume command:\n${last_err}")
endif()
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv --ming=5 --minc=4
           --sweep=${sweep_spec} --sweep-out=${WORKDIR}/sw_hs.json
           --sweep-csv=${WORKDIR}/sw_hs.csv --deterministic-output
           --resume-from=${WORKDIR}/hs.ckpt)
foreach(f json csv)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORKDIR}/sw_ref.${f} ${WORKDIR}/sw_hs.${f}
                  RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR "resumed hard-stopped sweep ${f} differs from the "
                        "plain sweep")
  endif()
endforeach()

# A sweep snapshot cannot seed a single mine (kind mismatch the other way).
run_expect(1 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
           --out=${WORKDIR}/w.out --resume-from=${WORKDIR}/s.ckpt)

# The checkpoint metrics are exported (zeros-not-absence contract is unit
# tested; here: a durable run reports real writes).
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
           --out=${WORKDIR}/met.out --metrics-out=${WORKDIR}/met.prom
           --metrics-format=prom
           --checkpoint=${WORKDIR}/met.ckpt --checkpoint-every-ms=50)
file(READ ${WORKDIR}/met.prom prom)
if(NOT prom MATCHES "\nregcluster_checkpoint_writes_total [1-9][0-9]*\n")
  message(FATAL_ERROR "durable mine exported no checkpoint writes:\n${prom}")
endif()
# A non-durable run still exports the names, as zeros.
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
           --out=${WORKDIR}/met0.out --metrics-out=${WORKDIR}/met0.prom
           --metrics-format=prom)
file(READ ${WORKDIR}/met0.prom prom0)
if(NOT prom0 MATCHES "\nregcluster_checkpoint_writes_total 0\n")
  message(FATAL_ERROR "plain mine lost the checkpoint metric names:\n${prom0}")
endif()

# --deterministic-output zeroes the wall-clock-paced checkpoint counters
# too, so two durable runs write byte-identical metrics.
foreach(i 1 2)
  run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv ${mine_flags}
             --out=${WORKDIR}/det${i}.out --metrics-out=${WORKDIR}/det${i}.json
             --deterministic-output
             --checkpoint=${WORKDIR}/det${i}.ckpt --checkpoint-every-ms=1)
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/det1.json ${WORKDIR}/det2.json
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "--deterministic-output durable metrics differ")
endif()
