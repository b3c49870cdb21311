# CLI matrix-input contract:
#   * every subcommand that reads a matrix accepts the binary format that
#     `convert --out-format=bin` writes: stats, summarize, evaluate,
#     significance, rwave and enrich print byte-identical stdout for the
#     .tsv and the .rgx copy of one matrix;
#   * a binary file forced through the text reader is a data error (exit 1)
#     whose message quotes the bad field escaped and capped, never raw bytes;
#   * a malformed numeric flag value or an unknown delimiter, --impute or
#     --normalize name is a usage error (exit 2) naming the flag, not a
#     silent 0 / prefix / tab / default -- also on a complete matrix, where
#     --impute has nothing to do;
#   * `mine` reports the whole gamma-model build time, non-zero on a
#     3000 x 40 matrix, on the resident and on the mapped binary matrix;
#   * a binary matrix with a cell patched to +inf (RGCXMAT1 carries no
#     checksum over its cells, so the file still opens) is rejected by
#     `rwave` as it is by `mine`: exit 1 naming the cell, no model printed.
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
           --out-truth=${WORKDIR}/truth.txt --genes=120 --conditions=10
           --clusters=3 --gene-fraction=0.08 --seed=5)
run_expect(0 ${CLI} convert --in=${WORKDIR}/m.tsv --out=${WORKDIR}/m.rgx
           --out-format=bin)
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv
           --out=${WORKDIR}/clusters.txt
           --ming=5 --minc=4 --gamma=0.1 --epsilon=0.1)

# --- read-only subcommands: .bin stdout == .tsv stdout ---------------------
# Each entry is one subcommand's arguments joined by '|', with @M@ standing
# for the matrix path.
set(commands
    "stats|--matrix=@M@"
    "summarize|--clusters=${WORKDIR}/clusters.txt|--matrix=@M@"
    "evaluate|--found=${WORKDIR}/clusters.txt|--truth=${WORKDIR}/truth.txt|--matrix=@M@|--gamma=0.1|--epsilon=0.1"
    "significance|--matrix=@M@|--clusters=${WORKDIR}/clusters.txt|--gamma=0.1|--epsilon=0.1|--permutations=50"
    "rwave|--matrix=@M@|--gene=3|--gamma=0.1"
    "enrich|--matrix=@M@|--clusters=${WORKDIR}/clusters.txt")
foreach(entry ${commands})
  string(REPLACE "|" ";" parts "${entry}")
  list(GET parts 0 name)
  foreach(ext tsv rgx)
    string(REPLACE "@M@" "${WORKDIR}/m.${ext}" args "${parts}")
    run_expect(0 ${CLI} ${args})
    set(out_${ext} "${last_out}")
  endforeach()
  if(out_tsv STREQUAL "")
    message(FATAL_ERROR "${name}: no output on the text matrix")
  endif()
  if(NOT out_tsv STREQUAL out_rgx)
    message(FATAL_ERROR "${name}: binary-matrix stdout differs from text:\n"
                        "--- tsv\n${out_tsv}\n--- rgx\n${out_rgx}")
  endif()
endforeach()

# --- a binary file read as text: escaped, capped error ---------------------
run_expect(1 ${CLI} convert --in=${WORKDIR}/m.rgx --in-format=text
           --out=${WORKDIR}/x.tsv)
if(NOT last_err MATCHES "not a number: '[^']*\\\\x[0-9a-f][0-9a-f]")
  message(FATAL_ERROR "binary bytes not escaped in: ${last_err}")
endif()
string(LENGTH "${last_err}" err_len)
if(err_len GREATER 300)
  message(FATAL_ERROR "error quotes too much of the field: ${last_err}")
endif()

# --- malformed flag values are usage errors naming the flag ----------------
set(mine_base mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/bad.txt)
foreach(bad --threads=abc --ming=5x --gamma=0.1zz --max-nodes=1e3
        --epsilon=0.1.2 --threads=99999999999)
  run_expect(2 ${CLI} ${mine_base} ${bad})
  string(REGEX REPLACE "=.*" "" flag "${bad}")
  if(NOT last_err MATCHES "malformed ${flag}=")
    message(FATAL_ERROR "${bad}: error does not name the flag: ${last_err}")
  endif()
endforeach()
if(EXISTS ${WORKDIR}/bad.txt)
  message(FATAL_ERROR "a usage error must not mine")
endif()
run_expect(2 ${CLI} convert --in=${WORKDIR}/m.tsv --out=${WORKDIR}/x.tsv
           --in-delimiter=semicolon)
if(NOT last_err MATCHES "--in-delimiter=semicolon")
  message(FATAL_ERROR "delimiter error does not name the flag: ${last_err}")
endif()
run_expect(2 ${CLI} convert --in=${WORKDIR}/m.tsv --out=${WORKDIR}/x.tsv
           --out-delimiter=pipe)
run_expect(2 ${CLI} stats --matrix=${WORKDIR}/m.tsv --worst=three)
foreach(bad --impute=bogus --normalize=bogus)
  run_expect(2 ${CLI} ${mine_base} ${bad})
  if(NOT last_err MATCHES "malformed ${bad}: want ")
    message(FATAL_ERROR "${bad}: error does not name the flag: ${last_err}")
  endif()
endforeach()
if(EXISTS ${WORKDIR}/bad.txt)
  message(FATAL_ERROR "a usage error must not mine")
endif()
run_expect(2 ${CLI} mine --matrix=${WORKDIR}/m.rgx --out=${WORKDIR}/bad.txt
           --normalize=quantile)
if(NOT last_err MATCHES "--normalize applies at convert time")
  message(FATAL_ERROR "binary + --normalize: unexpected error: ${last_err}")
endif()
# Well-formed values still work, including a leading '+' on a double.
run_expect(0 ${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/ok.txt
           --ming=5 --minc=4 --gamma=+0.1 --epsilon=0.1 --threads=2)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/clusters.txt ${WORKDIR}/ok.txt
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "well-formed flags changed the mined output")
endif()

# --- the reported model build time covers the whole build ------------------
# MinG = every gene prunes the search at the roots, so the run is the load
# plus the gamma-model build.
run_expect(0 ${CLI} generate --out-matrix=${WORKDIR}/big.tsv --genes=3000
           --conditions=40 --clusters=5 --seed=3)
run_expect(0 ${CLI} convert --in=${WORKDIR}/big.tsv --out=${WORKDIR}/big.rgx
           --out-format=bin)
foreach(variant "big.tsv" "big.rgx")
  run_expect(0 ${CLI} mine --matrix=${WORKDIR}/${variant}
             --out=${WORKDIR}/big_out.txt --ming=3000 --minc=40 --gamma=0.1
             --epsilon=0.1)
  if(NOT last_out MATCHES "model build ([0-9]+\\.[0-9]+) s")
    message(FATAL_ERROR "${variant}: no model build time in: ${last_out}")
  endif()
  if(CMAKE_MATCH_1 STREQUAL "0.000")
    message(FATAL_ERROR "${variant}: model build reported as 0: ${last_out}")
  endif()
endforeach()

# --- a +inf cell in a binary matrix -----------------------------------------
# Every cell of the 3 x 4 matrix is 1.0 (0x3ff0000000000000, stored little
# endian), so setting the top byte of g0's first cell to 0x7f makes it
# 0x7ff0000000000000, +inf.  The payload offset is the header's u64 at 24.
find_program(SH_PROGRAM sh)
if(SH_PROGRAM)
  file(WRITE ${WORKDIR}/ones.tsv
       "gene\tc0\tc1\tc2\tc3\ng0\t1\t1\t1\t1\ng1\t1\t1\t1\t1\n"
       "g2\t1\t1\t1\t1\n")
  run_expect(0 ${CLI} convert --in=${WORKDIR}/ones.tsv
             --out=${WORKDIR}/inf.rgx --out-format=bin)
  file(READ ${WORKDIR}/inf.rgx payload_hex OFFSET 24 LIMIT 4 HEX)
  string(REGEX REPLACE "(..)(..)(..)(..)" "\\4\\3\\2\\1" payload_hex
         "${payload_hex}")
  math(EXPR top_byte "0x${payload_hex} + 7")
  file(READ ${WORKDIR}/inf.rgx before OFFSET ${top_byte} LIMIT 1 HEX)
  if(NOT before STREQUAL "3f")
    message(FATAL_ERROR "cell (g0, c0) is not 1.0: top byte ${before}")
  endif()
  execute_process(
      COMMAND ${SH_PROGRAM} -c
      "printf '\\177' | dd of=${WORKDIR}/inf.rgx bs=1 seek=${top_byte} \
       conv=notrunc 2>/dev/null"
      RESULT_VARIABLE rc)
  file(READ ${WORKDIR}/inf.rgx after OFFSET ${top_byte} LIMIT 1 HEX)
  if(NOT rc EQUAL 0 OR NOT after STREQUAL "7f")
    message(FATAL_ERROR "could not patch the cell to +inf (rc ${rc})")
  endif()
  foreach(sub "rwave;--gene=g0"
              "mine;--out=${WORKDIR}/inf_out.txt;--ming=2;--minc=2")
    run_expect(1 ${CLI} ${sub} --matrix=${WORKDIR}/inf.rgx)
    if(NOT last_err MATCHES
       "FailedPrecondition.*gene 'g0' at condition 'c0' is \\+inf")
      message(FATAL_ERROR "${sub}: +inf cell not named: ${last_err}")
    endif()
    if(last_out MATCHES "gamma_i")
      message(FATAL_ERROR "${sub}: printed a model of a +inf row")
    endif()
  endforeach()
endif()
