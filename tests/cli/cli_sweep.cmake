# End-to-end contract of `regcluster mine --sweep`:
#   * malformed specs (unknown axis, bad range, bad JSON, missing outputs)
#     are usage errors (exit 2) that write nothing
#   * --sweep-out writes the stable JSON report schema (parsed with python3
#     when available, structural regexes otherwise)
#   * --sweep-csv writes the documented column contract
#   * the report is byte-identical between --threads=1 and --threads=4
#   * a sweep-level budget truncates on a run boundary and exits 3
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
           --genes=200 --conditions=14 --clusters=3 --gene-fraction=0.05
           --seed=11)

# --- malformed specs are fast usage errors ---------------------------------
# (Semicolon value lists are covered by sweep_io_test: a literal `;` cannot
# survive CMake argument lists, so the e2e specs use ranges.)
# Unknown axis.
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --sweep=delta=0.1 --sweep-out=${WORKDIR}/bad.json)
# Descending range.
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --sweep=gamma=0.5:0.1:0.1 --sweep-out=${WORKDIR}/bad.json)
# Non-integer MinG.
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --sweep=ming=2.5 --sweep-out=${WORKDIR}/bad.json)
# Malformed JSON list.
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           "--sweep=[{\"gamma\": }]" --sweep-out=${WORKDIR}/bad.json)
# --sweep without any output sink.
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv --sweep=gamma=0.1)
# --sweep-out without --sweep.
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/x.txt
           --sweep-out=${WORKDIR}/bad.json)
# Single-run output flags do not combine with --sweep.
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/x.txt
           --sweep=gamma=0.1 --sweep-out=${WORKDIR}/bad.json)
if(EXISTS ${WORKDIR}/bad.json)
  message(FATAL_ERROR "a usage error must not write a sweep report")
endif()

# --- a real sweep: JSON + CSV ----------------------------------------------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --sweep=gamma=0.1:0.2:0.05,minc=5:6:1 --ming=6 --epsilon=0.05
           --sweep-out=${WORKDIR}/sweep.json --sweep-csv=${WORKDIR}/sweep.csv)
if(NOT EXISTS ${WORKDIR}/sweep.json OR NOT EXISTS ${WORKDIR}/sweep.csv)
  message(FATAL_ERROR "sweep did not write its report files")
endif()

find_program(PYTHON3_PROGRAM python3)
if(PYTHON3_PROGRAM)
  # Real parse: 3 gammas x 2 MinCs = 6 points, all executed, equal-gamma
  # points sharing 3 engine-built indexes, every point's options recorded.
  run_expect(0 ${PYTHON3_PROGRAM} -c
"import json
doc = json.load(open(r'${WORKDIR}/sweep.json'))
sweep, runs = doc['sweep'], doc['runs']
assert sweep['status'] == 'complete', sweep
assert sweep['runs_total'] == 6 and sweep['runs_executed'] == 6, sweep
assert sweep['first_unfinished'] == -1, sweep
assert sweep['index_builds'] == 3, sweep
assert sweep['nodes_total'] > 0 and sweep['shared_model_bytes'] > 0, sweep
gammas = sorted({round(r['options']['gamma'], 6) for r in runs})
assert gammas == [0.1, 0.15, 0.2], gammas
for r in runs:
    assert r['executed'] and r['shared_model'], r
    assert r['options']['min_genes'] == 6, r
    assert r['options']['min_conditions'] in (5, 6), r
    assert r['stats']['nodes_expanded'] > 0, r
    assert len(r['clusters']) == r['num_clusters'], r
    for c in r['clusters']:
        assert c['chain'] and (c['p_genes'] or c['n_genes']), c
assert sum(r['num_clusters'] for r in runs) == sweep['clusters_total']
print('sweep.json ok:', len(runs), 'runs')
")
else()
  file(READ ${WORKDIR}/sweep.json sweep_json)
  if(NOT sweep_json MATCHES "\"status\": \"complete\"")
    message(FATAL_ERROR "sweep.json not complete:\n${sweep_json}")
  endif()
  if(NOT sweep_json MATCHES "\"index_builds\": 3")
    message(FATAL_ERROR "sweep.json expected 3 index builds:\n${sweep_json}")
  endif()
endif()

# --- CSV column contract ----------------------------------------------------
file(READ ${WORKDIR}/sweep.csv csv)
if(NOT csv MATCHES "^run,gamma,gamma_policy,epsilon,min_genes,min_conditions,executed,shared_model,status,stop_reason,clusters,nodes_expanded,extensions_tested,mine_seconds,wall_seconds\n")
  message(FATAL_ERROR "sweep.csv header drifted:\n${csv}")
endif()
# One header + six data rows, each an executed shared-model run.
string(REGEX MATCHALL "\n[0-9]+,[^\n]*,1,1,complete,none,[^\n]*" rows "${csv}")
list(LENGTH rows num_rows)
if(NOT num_rows EQUAL 6)
  message(FATAL_ERROR "sweep.csv expected 6 executed rows, got ${num_rows}:\n${csv}")
endif()

# --- determinism: --threads=1 vs --threads=4 -------------------------------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --sweep=gamma=0.1:0.2:0.05,minc=5:6:1 --ming=6 --epsilon=0.05
           --threads=1 --sweep-out=${WORKDIR}/t1.json)
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --sweep=gamma=0.1:0.2:0.05,minc=5:6:1 --ming=6 --epsilon=0.05
           --threads=4 --sweep-out=${WORKDIR}/t4.json)
if(PYTHON3_PROGRAM)
  # The deterministic payload (options, stats, clusters) must be identical;
  # wall clocks legitimately differ.
  run_expect(0 ${PYTHON3_PROGRAM} -c
"import json
def payload(path):
    doc = json.load(open(path))
    return [(r['options'], r['executed'], r['stats']['nodes_expanded'],
             r['clusters']) for r in doc['runs']]
a, b = payload(r'${WORKDIR}/t1.json'), payload(r'${WORKDIR}/t4.json')
assert a == b, 'sweep output differs between --threads=1 and --threads=4'
print('thread determinism ok:', len(a), 'runs')
")
endif()

# --- JSON-list spec form ----------------------------------------------------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           "--sweep=[{\"gamma\": 0.1, \"minc\": 5}, {\"gamma\": 0.1, \"minc\": 6}]"
           --ming=6 --epsilon=0.05 --sweep-out=${WORKDIR}/list.json)
file(READ ${WORKDIR}/list.json list_json)
if(NOT list_json MATCHES "\"runs_total\": 2")
  message(FATAL_ERROR "JSON-list spec expected 2 runs:\n${list_json}")
endif()
if(NOT list_json MATCHES "\"index_builds\": 1")
  message(FATAL_ERROR "equal-gamma JSON list should share one index:\n${list_json}")
endif()

# --- sweep-level budget: run-boundary truncation, exit 3 -------------------
run_expect(3 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --sweep=gamma=0.1,minc=5:6:1 --ming=6 --epsilon=0.05 --max-nodes=10
           --sweep-out=${WORKDIR}/trunc.json)
file(READ ${WORKDIR}/trunc.json trunc_json)
if(NOT trunc_json MATCHES "\"status\": \"truncated\"")
  message(FATAL_ERROR "budgeted sweep must report truncated:\n${trunc_json}")
endif()
if(NOT trunc_json MATCHES "\"stop_reason\": \"node_budget\"")
  message(FATAL_ERROR "budgeted sweep must report node_budget:\n${trunc_json}")
endif()
if(NOT trunc_json MATCHES "\"first_unfinished\": 0")
  message(FATAL_ERROR "10-node budget must truncate before run 0:\n${trunc_json}")
endif()
