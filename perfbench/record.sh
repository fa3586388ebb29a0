#!/usr/bin/env bash
# Re-records the values the benchmark checks outputs against
# (perfbench/expected/<workload>.tsv), one traced pass per seed. Run it from
# the repository root after a change that is meant to alter outputs:
#
#   bash perfbench/record.sh            # seeds 0..63 and 20070625
#   bash perfbench/record.sh 7 8 9      # just these seeds
set -euo pipefail
cd "$(dirname "$0")/.."
seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then
    seeds=($(seq 0 63) 20070625)
fi
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/arpshield-perfbench"
for workload in paper fabric fabric_dai ingest; do
    table="perfbench/expected/$workload.tsv"
    printf '# seed\tkey\tvalue, one traced pass of `--workload %s --record` per seed\n' "$workload" > "$table"
    for seed in "${seeds[@]}"; do
        "$bin" --workload "$workload" --seed "$seed" --record >> "$table"
    done
done
