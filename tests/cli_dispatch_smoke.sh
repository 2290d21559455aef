#!/bin/sh
# Determinism legs of the exact backend and the sketch queries:
#   exact_threads  `exact --exact_backend dodg` writes the same
#                  deterministic manifest at --threads 1 and 8.
#   exact_oracle   DODG's vertex, edge, triangle and 4-cycle counts equal
#                  the naive backend's, and both cycle counts are positive.
#   sweep_threads  an arb-f2 sweep writes the same deterministic manifest
#                  at --threads 1 and 8.
# The exact legs count BA n=5000 (deg 6) with --hub-range 512, so the
# sparse-tail intersection kernel (AVX2 or scalar, whichever the build
# dispatches to) does most of the work on a graph small enough for the
# sanitizer builds; the sweep runs on BA n=2000. Paths in the manifests
# are relative to WORKDIR, so builds at different paths leave manifests
# that compare equal (exact_threads/exact_dodg.json and
# sweep_threads/sweep_sketch.json, which CI compares across ISA builds).
#
# Usage: cli_dispatch_smoke.sh exact_threads|exact_oracle|sweep_threads \
#            CLI EDGE2BIN WORKDIR
set -eu
LEG=$1
CLI=$2
EDGE2BIN=$3
D=$4
rm -rf "$D"
mkdir -p "$D"
cd "$D"

case "$LEG" in
exact_threads|exact_oracle)
  "$CLI" generate --model ba --n 5000 --deg 6 --seed 7 --out graph.txt
  "$EDGE2BIN" graph.txt graph.bin
  X="exact --graph graph.bin"
  "$CLI" $X --exact_backend dodg --hub-range 512 --threads 1 \
    --json_det_out exact_dodg.json
  if [ "$LEG" = exact_threads ]; then
    "$CLI" $X --exact_backend dodg --hub-range 512 --threads 8 \
      --json_det_out exact_t8.json
    cmp exact_dodg.json exact_t8.json
  else
    "$CLI" $X --exact_backend naive --threads 1 \
      --json_det_out exact_naive.json
    # The metrics section is one "key": value line per metric.
    for f in exact_dodg exact_naive; do
      grep -E '^ *"(graph\.vertices|graph\.edges|exact\.triangles|exact\.c4)":' \
        "$f.json" > "$f.counts"
    done
    test "$(wc -l < exact_dodg.counts)" -eq 4
    cmp exact_dodg.counts exact_naive.counts
    grep -q '"exact.triangles": [1-9]' exact_dodg.counts
    grep -q '"exact.c4": [1-9]' exact_dodg.counts
  fi
  ;;
sweep_threads)
  "$CLI" generate --model ba --n 2000 --deg 6 --seed 11 --out graph.txt
  S="sweep --graph graph.txt --algorithms arb-f2 --queries 4 --epsilon 0.4 --no-exact"
  "$CLI" $S --threads 1 --json_det_out sweep_sketch.json
  "$CLI" $S --threads 8 --json_det_out sweep_t8.json
  cmp sweep_sketch.json sweep_t8.json
  ;;
*)
  echo "unknown leg: $LEG" >&2
  exit 2
  ;;
esac
