# End-to-end CLI smoke test: generate -> mine -> evaluate -> summarize.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

run(${CLI} generate --out-matrix=${WORKDIR}/m.tsv --out-truth=${WORKDIR}/t.txt
    --genes=200 --conditions=16 --clusters=3 --gene-fraction=0.05 --seed=9)
run(${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/found.txt
    --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05
    --report=${WORKDIR}/found.report --json=${WORKDIR}/found.json --threads=2)
run(${CLI} evaluate --found=${WORKDIR}/found.txt --truth=${WORKDIR}/t.txt
    --matrix=${WORKDIR}/m.tsv --gamma=0.1 --epsilon=0.05)
run(${CLI} summarize --clusters=${WORKDIR}/found.txt --matrix=${WORKDIR}/m.tsv)
run(${CLI} enrich --matrix=${WORKDIR}/m.tsv --clusters=${WORKDIR}/found.txt)

foreach(f m.tsv t.txt found.txt found.report found.json)
  if(NOT EXISTS ${WORKDIR}/${f})
    message(FATAL_ERROR "missing expected output ${f}")
  endif()
endforeach()

# Round 2: the analysis subcommands on the mined output.
run(${CLI} significance --matrix=${WORKDIR}/m.tsv --clusters=${WORKDIR}/found.txt
    --gamma=0.1 --epsilon=0.05 --permutations=300)
run(${CLI} rwave --matrix=${WORKDIR}/m.tsv --gene=0 --gamma=0.1)
run(${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/targeted.txt
    --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05 --require-gene=0
    --merge-overlap=0.5 --impute=knn --knn-k=4)
if(NOT EXISTS ${WORKDIR}/targeted.txt)
  message(FATAL_ERROR "missing targeted.txt")
endif()
run(${CLI} stats --matrix=${WORKDIR}/m.tsv --worst=3)
run(${CLI} convert --in=${WORKDIR}/m.tsv --out=${WORKDIR}/m.csv
    --out-delimiter=comma --transform=zscore)
if(NOT EXISTS ${WORKDIR}/m.csv)
  message(FATAL_ERROR "missing m.csv")
endif()
