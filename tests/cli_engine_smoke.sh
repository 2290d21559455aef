#!/bin/sh
# Stream-engine end-to-end checks (the cli_engine_smoke_identical ctest):
#   1. edge2bin round trip: text -> bin -> text reproduces the generator's
#      file byte for byte, and a corrupt or truncated .bin is rejected.
#   2. A 16-query mixed edge-stream sweep gives a byte-identical
#      deterministic manifest at --threads 1 and 4, and the same
#      label-invariant manifest from binary as from text ingest.
#   3. An adjacency-family sweep (adj-f2, adj-diamond) gives a
#      byte-identical deterministic manifest at --threads 1 and 4.
#
# Usage: cli_engine_smoke.sh CLI EDGE2BIN PYTHON3 WORKDIR
set -eu
CLI=$1
EDGE2BIN=$2
PY=$3
D=$4
rm -rf "$D"
mkdir -p "$D"
cd "$D"

"$CLI" generate --model ba --n 20000 --deg 5 --seed 3 --out graph.txt
"$EDGE2BIN" graph.txt graph.bin
"$EDGE2BIN" --to-text graph.bin back.txt
diff graph.txt back.txt
cp graph.bin corrupt.bin
printf 'x' | dd of=corrupt.bin bs=1 seek=100 conv=notrunc 2> /dev/null
if "$EDGE2BIN" --to-text corrupt.bin /dev/null; then
  echo "corrupt .bin was accepted"
  exit 1
fi
cp graph.bin trunc.bin
truncate -s -5 trunc.bin
if "$EDGE2BIN" --to-text trunc.bin /dev/null; then
  echo "truncated .bin was accepted"
  exit 1
fi

S="sweep --algorithms random-order,triest,cormode-jowhari,arb-f2,bera-chakrabarti --queries 16 --order file"
"$CLI" $S --graph graph.txt --threads 1 --json_det_out sweep_t1.json
"$CLI" $S --graph graph.txt --threads 4 --json_det_out sweep_t4.json
"$CLI" $S --graph graph.bin --threads 4 --json_det_out sweep_bin.json
cmp sweep_t1.json sweep_t4.json
"$PY" - << 'EOF'
import json
text = json.load(open('sweep_t1.json'))
binary = json.load(open('sweep_bin.json'))
# The text loader densifies ids by first appearance while .bin keeps
# literal ids, so the two ingests see relabeled (isomorphic) streams:
# estimates may differ, but every label-invariant part of the manifest
# must agree exactly. Only the binary ingest reports its format version.
assert 'stream.format_version' not in text['metrics'], text['metrics']
assert binary['metrics'].pop('stream.format_version') == 1, binary['metrics']
assert text['metrics'] == binary['metrics'], (text['metrics'],
                                              binary['metrics'])
assert text['metrics']['engine.physical_passes'] == 2
assert text['metrics']['exact.triangles'] > 0
assert len(text['queries']) == 16, len(text['queries'])
invariant = ('admission', 'wave', 'kind', 'target', 'seed', 'passes',
             'items_delivered', 'budget_words')
for name, q in text['queries'].items():
    b = binary['queries'][name]
    for key in invariant:
        assert q[key] == b[key], (name, key, q[key], b[key])
EOF

"$CLI" generate --model ba --n 1000 --deg 4 --seed 5 --out adj.txt
A="sweep --graph adj.txt --algorithms adj-f2,adj-diamond --queries 4"
"$CLI" $A --threads 1 --json_det_out adj_t1.json
"$CLI" $A --threads 4 --json_det_out adj_t4.json
cmp adj_t1.json adj_t4.json
