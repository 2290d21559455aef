#!/bin/sh
# The CLI front ends build the same estimator from the same spec, so one
# seed gives one estimate whichever front end runs it:
#   - arb-f2 (Thm 5.7): `count`, a 1-query `sweep`, `serve --spec`,
#     `shard --shards 2` and `serve --daemon --shards 2`;
#   - random-order (Thm 2.1) and adj-f2 (Sec 4.2): `count` and `sweep`;
#   - a windowed turnstile-f2-c4: `sweep` and `serve --spec`.
# Each estimate is read from the query's `"estimate"` key in the
# deterministic manifest and compared as text. BA n=400; takes seconds.
#
# Usage: cli_front_ends_agree.sh CLI WORKDIR
set -e
CLI=$1
D=$2
rm -rf "$D"
mkdir -p "$D"
cd "$D"
"$CLI" generate --model ba --n 400 --deg 4 --seed 11 --out g.txt > /dev/null

estimate() { grep -o '"estimate": [^,]*' "$1" | head -n 1 | cut -d' ' -f2; }

# agree LABEL MANIFEST... : every manifest holds the first one's estimate.
agree() {
  label=$1
  shift
  want=$(estimate "$1")
  test -n "$want" || { echo "$label: no estimate in $1"; exit 1; }
  for m in "$@"; do
    got=$(estimate "$m")
    test "$got" = "$want" || {
      echo "$label: $m estimates $got, $1 estimates $want"
      exit 1
    }
  done
  echo "$label: $want from $# front ends"
}

C="--graph g.txt --seed 5 --epsilon 0.5"
run() {
  out=$1
  shift
  "$CLI" "$@" $C --json_det_out "$out" > /dev/null 2> "$out.log"
}

printf 'name=q kind=arb-f2\n' > arb.spec
run arb_count.json count --target c4 --algorithm arb-f2
run arb_sweep.json sweep --algorithms arb-f2 --queries 1
run arb_serve.json serve --spec arb.spec
run arb_shard.json shard --queries 1 --shards 2 --shard-dir sd_shard
run arb_daemon.json serve --daemon --queries 1 --shards 2 --shard-dir sd_daemon
agree arb-f2 arb_count.json arb_sweep.json arb_serve.json arb_shard.json \
  arb_daemon.json

run ro_count.json count --target triangles --algorithm random-order
run ro_sweep.json sweep --algorithms random-order --queries 1
agree random-order ro_count.json ro_sweep.json

run f2_count.json count --target c4 --algorithm f2
run f2_sweep.json sweep --algorithms adj-f2 --queries 1
agree adj-f2 f2_count.json f2_sweep.json

printf 'name=w kind=turnstile-f2-c4 window=400 window_buckets=4\n' > window.spec
run win_sweep.json sweep --algorithms turnstile-f2-c4 --queries 1 \
  --window 400 --window-buckets 4
run win_serve.json serve --spec window.spec
agree turnstile-f2-c4-window win_sweep.json win_serve.json
