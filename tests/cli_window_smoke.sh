#!/bin/sh
# Turnstile and sliding-window end-to-end checks through the real file
# formats (the cli_window_smoke_identical ctest):
#   1. The v2 turnstile format round-trips byte for byte through edge2bin
#      (text -> bin -> text -> bin).
#   2. A corrupted op byte is rejected by name even with the CRC patched to
#      match, so the op-byte rule itself is exercised, not the checksum.
#   3. A stream whose deletes cancel its second half gives the same
#      per-query estimates as an insert-only run of its first half: the
#      linear sketches' states are equal bit for bit.
#   4. A sliding-window sweep's deterministic manifest is byte-identical at
#      --threads 1 and 8.
#   5. A decayed sweep's deterministic manifest, at 2^-1 (the counters
#      stay on integer slots) and at 2^-32 (they go to double at the first
#      epoch), is byte-identical at --threads 1 and 8, and equal at
#      --block-edges 64 and 4096 but for the recorded block-edges flag.
#      Such estimates are a fixed function of the build, not of the
#      paper's C_t layout: there the counter's signed-degree form can
#      round apart from it by up to 2.5e-15 relative (DESIGN.md §8).
# The exhaustive variants (kill points at every bucket boundary, decay
# oracles, the thread x shard cancellation matrix) are in
# tests/turnstile_test.cc.
#
# Usage: cli_window_smoke.sh CLI EDGE2BIN PYTHON3 WORKDIR
set -eu
CLI=$1
EDGE2BIN=$2
PY=$3
D=$4
rm -rf "$D"
mkdir -p "$D"
cd "$D"

# 1. Round trip.
printf '# cyclestream turnstile stream: 6 vertices, 7 updates\n' > t.txt
printf '+ 0 1\n+ 1 2\n+ 0 2\n- 1 2\n+ 2 3\n+ 4 5\n- 4 5\n' >> t.txt
"$EDGE2BIN" --turnstile t.txt t.bin
"$EDGE2BIN" --to-text t.bin t2.txt
diff t.txt t2.txt
"$EDGE2BIN" --turnstile t2.txt t2.bin
cmp t.bin t2.bin

# 2. Op-byte rejection with a matching CRC.
"$PY" - << 'EOF'
import struct, zlib
data = bytearray(open('t.bin', 'rb').read())
data[32] = 7  # First record's op byte; valid ops are 0 and 1.
crc = zlib.crc32(bytes(data[32:])) & 0xFFFFFFFF
struct.pack_into('<I', data, 24, crc)
open('bad_op.bin', 'wb').write(bytes(data))
EOF
if "$EDGE2BIN" --to-text bad_op.bin /dev/null 2> op_err.log; then
  echo "corrupted op byte was accepted"
  exit 1
fi
grep -q "op byte" op_err.log

# 3. Deletes of the second half (in reverse order) against an insert-only
# stream of the first half: the same live graph, so the same states.
"$CLI" generate --model ba --n 2000 --deg 4 --seed 17 --out g.txt
grep -v '^#' g.txt > edges.txt
m=$(wc -l < edges.txt)
half=$((m / 2))
{
  sed "s/^/+ /" edges.txt
  tail -n +"$((half + 1))" edges.txt | tac | sed "s/^/- /"
} > cancel.txt
head -n "$half" edges.txt | sed "s/^/+ /" > insert.txt
"$EDGE2BIN" --turnstile --num_vertices 2000 cancel.txt cancel.bin
"$EDGE2BIN" --turnstile --num_vertices 2000 insert.txt insert.bin
S="sweep --order file --algorithms turnstile-f2-triangle,turnstile-f2-c4 --queries 6 --epsilon 0.4 --t-guess 500 --no-exact"
"$CLI" $S --threads 4 --graph cancel.bin --json_det_out det_cancel.json
"$CLI" $S --threads 4 --graph insert.bin --json_det_out det_insert.json
"$PY" - << 'EOF'
import json
cancel = json.load(open('det_cancel.json'))['queries']
insert = json.load(open('det_insert.json'))['queries']
assert set(cancel) == set(insert) and len(cancel) == 6
for name, q in cancel.items():
    assert q['estimate'] == insert[name]['estimate'], (
        name, q['estimate'], insert[name]['estimate'])
EOF

# 4. Window manifest across thread counts.
W="$S --graph cancel.bin --window 4000 --window-buckets 8"
"$CLI" $W --threads 1 --json_det_out det_w1.json
"$CLI" $W --threads 8 --json_det_out det_w8.json
cmp det_w1.json det_w8.json

# 5. Decay manifests across thread counts and block sizes.
for log2 in 1 32; do
  X="$S --graph cancel.bin --decay-epoch 1000 --decay-log2 $log2"
  "$CLI" $X --threads 1 --json_det_out "det_d${log2}_t1.json"
  "$CLI" $X --threads 8 --json_det_out "det_d${log2}_t8.json"
  "$CLI" $X --threads 4 --block-edges 64 --json_det_out "det_d${log2}_b64.json"
  "$CLI" $X --threads 4 --block-edges 4096 \
    --json_det_out "det_d${log2}_b4096.json"
  cmp "det_d${log2}_t1.json" "det_d${log2}_t8.json"
  "$PY" - "det_d${log2}_t1.json" "det_d${log2}_b64.json" \
    "det_d${log2}_b4096.json" << 'EOF'
import json, sys
runs = [json.load(open(path)) for path in sys.argv[1:]]
for run in runs:
    run['config'].pop('block-edges', None)
assert runs[0] == runs[1] == runs[2], 'decayed manifests differ'
EOF
done
