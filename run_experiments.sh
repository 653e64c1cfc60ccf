#!/bin/bash
# Regenerates every table and figure of the PLDI'18 reproduction.
# Results land in results/*.txt. A sweep subset can be selected with
#   LOCMAP_APPS="mxm,fft,..." ./run_experiments.sh
set -u
cd "$(dirname "$0")"
mkdir -p results
cargo build --release -q -p locmap-bench --bin figures
FIGURES_FULL="table4 fig02 fig07 fig08 table3 fig12 fig13 fig14 fig15 multiprog ablations"
FIGURES_SWEEP="fig09 fig10 fig11 fig16 fig17"
for f in $FIGURES_FULL; do
  echo "=== $f ==="
  ./target/release/figures "$f" > "results/$f.txt" 2>/dev/null
done
# The sweeps multiply every benchmark by many configurations; run them on
# a representative subset unless LOCMAP_APPS overrides.
SUBSET="${LOCMAP_APPS:-barnes,water,fft,jacobi-3d,swim,mxm,hpccg,moldyn}"
for f in $FIGURES_SWEEP; do
  echo "=== $f (apps: $SUBSET) ==="
  LOCMAP_APPS="$SUBSET" ./target/release/figures "$f" > "results/$f.txt" 2>/dev/null
done
echo done
