# End-to-end metrics export contract of `regcluster mine`:
#   * --metrics-out + --metrics-format=json writes a machine-parseable JSON
#     document carrying the regcluster_* run record (checked with python3
#     when available, structural regexes otherwise)
#   * --metrics-format=prom writes Prometheus text exposition format 0.0.4
#     (HELP/TYPE comment pairs plus sample lines)
#   * the exit-code contract is unchanged: bad format is usage (2), a
#     truncated mine still writes the metrics file and exits 3
#   * --collect-stats is no flag (every counter is always collected): it is
#     a usage error like any unknown flag
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

# --- JSON format -----------------------------------------------------------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/found.txt
           --json=${WORKDIR}/found.json
           --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05
           --metrics-out=${WORKDIR}/metrics.json --metrics-format=json)
if(NOT EXISTS ${WORKDIR}/metrics.json)
  message(FATAL_ERROR "mine did not write metrics.json")
endif()

find_program(PYTHON3_PROGRAM python3)
if(PYTHON3_PROGRAM)
  # Real parse: the document must load as JSON and carry positive work
  # counters under the stable names.
  run_expect(0 ${PYTHON3_PROGRAM} -c
"import json, sys
doc = json.load(open(r'${WORKDIR}/metrics.json'))
metrics = {m['name']: m for m in doc['metrics']}
for name in ('regcluster_nodes_expanded_total',
             'regcluster_extensions_tested_total',
             'regcluster_clusters_emitted_total',
             'regcluster_index_word_ops_total',
             'regcluster_dedup_probes_total',
             'regcluster_mine_seconds',
             'regcluster_wall_seconds'):
    assert name in metrics, f'missing metric {name}'
assert metrics['regcluster_nodes_expanded_total']['value'] > 0
assert metrics['regcluster_nodes_expanded_total']['type'] == 'counter'
assert metrics['regcluster_index_word_ops_total']['value'] > 0
assert metrics['regcluster_mine_seconds']['type'] == 'gauge'
print('metrics.json ok:', len(metrics), 'metrics')
")
else()
  file(READ ${WORKDIR}/metrics.json metrics_json)
  if(NOT metrics_json MATCHES "\"name\": \"regcluster_nodes_expanded_total\", \"type\": \"counter\", \"help\": \"[^\"]+\", \"value\": [1-9][0-9]*")
    message(FATAL_ERROR "metrics.json missing nodes_expanded counter:\n${metrics_json}")
  endif()
endif()

# The cluster JSON export gains the "stats" block next to "outcome".
file(READ ${WORKDIR}/found.json found_json)
foreach(key nodes_expanded extensions_tested pruned_coherence index_word_ops
        dedup_probes)
  if(NOT found_json MATCHES "\"${key}\": [0-9]+")
    message(FATAL_ERROR "found.json stats block missing ${key}")
  endif()
endforeach()

# --- Prometheus format -----------------------------------------------------
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/found2.txt
           --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05
           --metrics-out=${WORKDIR}/metrics.prom --metrics-format=prom)
file(READ ${WORKDIR}/metrics.prom prom)
# Every exported family needs its HELP/TYPE comment pair and a sample line.
foreach(fam
        "regcluster_nodes_expanded_total counter"
        "regcluster_pruned_coherence_total counter"
        "regcluster_mine_seconds gauge"
        "regcluster_wall_seconds gauge")
  if(NOT prom MATCHES "# TYPE ${fam}\n")
    message(FATAL_ERROR "metrics.prom missing '# TYPE ${fam}':\n${prom}")
  endif()
endforeach()
if(NOT prom MATCHES "# HELP regcluster_nodes_expanded_total [^\n]+\n")
  message(FATAL_ERROR "metrics.prom missing HELP line:\n${prom}")
endif()
if(NOT prom MATCHES "\nregcluster_nodes_expanded_total [1-9][0-9]*\n")
  message(FATAL_ERROR "metrics.prom missing positive sample line:\n${prom}")
endif()
if(NOT prom MATCHES "\nregcluster_truncated 0\n")
  message(FATAL_ERROR "metrics.prom missing truncated=0 gauge:\n${prom}")
endif()

# --- --collect-stats is an unknown flag ------------------------------------
file(REMOVE ${WORKDIR}/nostats.txt)
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/nostats.txt
           --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05 --collect-stats=false)
if(EXISTS ${WORKDIR}/nostats.txt)
  message(FATAL_ERROR "--collect-stats usage error must not mine")
endif()

# --- exit-code contract (PR3) stays intact ---------------------------------
# Unknown metrics format is a usage error before any mining starts.
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/x.txt
           --metrics-out=${WORKDIR}/x.prom --metrics-format=yaml)
if(EXISTS ${WORKDIR}/x.prom)
  message(FATAL_ERROR "usage error must not write a metrics file")
endif()
# ... even when no --metrics-out would consume it: a malformed flag value is
# never silently ignored.
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/x2.txt
           --metrics-format=yaml)
if(EXISTS ${WORKDIR}/x2.txt)
  message(FATAL_ERROR "usage error must not mine")
endif()
# A truncated mine still exits 3 and still writes the metrics file, with the
# truncated gauge set.
run_expect(3 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --out=${WORKDIR}/trunc.txt --ming=6 --minc=5 --gamma=0.1
           --epsilon=0.05 --remove-dominated=false --max-nodes=40
           --metrics-out=${WORKDIR}/trunc.prom --metrics-format=prom)
if(NOT EXISTS ${WORKDIR}/trunc.prom)
  message(FATAL_ERROR "truncated mine did not write metrics")
endif()
file(READ ${WORKDIR}/trunc.prom trunc_prom)
if(NOT trunc_prom MATCHES "\nregcluster_truncated 1\n")
  message(FATAL_ERROR "truncated run must export regcluster_truncated 1:\n${trunc_prom}")
endif()
