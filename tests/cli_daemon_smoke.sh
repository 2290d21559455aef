#!/bin/sh
# Daemon end-to-end legs that need a real fork/exec and signals:
#   crash   A SIGKILLed `serve --daemon` (no drain, no manifest rewrite)
#           is finished with --resume to a deterministic manifest
#           byte-identical to an uninterrupted run's.
#   ladder  Each rung of the failure ladder shows in the log: an injected
#           worker crash (the exit-86 sentinel) is retried, a hung worker is
#           killed by the watchdog; and with --max-retries 1 a crash poisons
#           wave 0 only, exporting `poisoned` for its queries and estimates
#           for the later waves, while the daemon itself exits 0.
# Both run a 3-wave batch (one 300000-word query per 400000-word wave) on
# the n=600 BA graph the other daemon ctests use.
#
# Usage: cli_daemon_smoke.sh crash|ladder CLI EDGE2BIN PYTHON3 WORKDIR
set -eu
LEG=$1
CLI=$2
EDGE2BIN=$3
PY=$4
D=$5
rm -rf "$D"
mkdir -p "$D"

"$CLI" generate --model ba --n 600 --deg 4 --seed 7 --out "$D/g.txt"
"$EDGE2BIN" "$D/g.txt" "$D/g.bin"
B="serve --daemon --graph $D/g.bin --order file --queries 3 --epoch-edges 200 --block-edges 100 --launch subprocess --budget-words 300000 --aggregate-budget 400000"

case "$LEG" in
crash)
  "$CLI" $B --shards 2 --shard-dir "$D/sdg" --json_det_out "$D/det_g.json"
  "$CLI" $B --shards 2 --shard-dir "$D/sdc" --throttle-ms 250 & pid=$!
  sleep 2
  kill -KILL "$pid"
  wait "$pid" || true
  # Workers orphaned by the kill may outlive the daemon briefly. Only this
  # leg's own workers name its shard dir on their command line, so the
  # cleanup never touches another test's processes.
  pkill -KILL -f "$D/sdc" || true
  sleep 1
  test -f "$D/sdc/daemon.manifest"
  "$CLI" $B --shards 2 --shard-dir "$D/sdc" --resume \
      --json_det_out "$D/det_c.json"
  cmp "$D/det_g.json" "$D/det_c.json"
  ;;
ladder)
  "$CLI" $B --shards 3 --shard-dir "$D/sdf" --kill-shard 1 --kill-edges 300 \
      --hang-shard 2 --hang-edges 200 --shard-deadline-ms 3000 \
      2> "$D/faults.log"
  grep -q "fault-injection kill sentinel" "$D/faults.log"
  grep -q "watchdog: worker" "$D/faults.log"
  grep -Eq "daemon: [0-9]+ wave\(s\) completed, [1-9][0-9]* retr" \
      "$D/faults.log"
  "$CLI" $B --shards 2 --shard-dir "$D/sdp" --kill-shard 0 --kill-edges 300 \
      --max-retries 1 --json_det_out "$D/det_p.json" 2> "$D/poison.log"
  grep -q "poisoning the wave" "$D/poison.log"
  grep -q "poisoned (retry budget exhausted)" "$D/poison.log"
  "$PY" - "$D/det_p.json" <<'EOF'
import json
import sys

queries = json.load(open(sys.argv[1]))["queries"]
poisoned = [n for n, q in queries.items() if q.get("poisoned")]
clean = [n for n, q in queries.items()
         if q.get("estimate") is not None and not q.get("poisoned")]
assert poisoned, "no poisoned outcome exported"
assert clean, "every wave died; only wave 0 should be poisoned"
EOF
  ;;
*)
  echo "unknown leg '$LEG'"
  exit 2
  ;;
esac
