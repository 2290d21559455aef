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
