#!/usr/bin/env bash
# Builds the study binaries and lpperf from source, then runs lpperf with
# the given arguments. Run it from the repository root:
#
#   bash lpperf/run.sh --workload figures --seed 1 --seconds 15 --trace 0
#   bash lpperf/run.sh compare A.json B.json
#
# Build output goes to stderr, so the last line on stdout is lpperf's.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --quiet -p lp-bench \
    --bin fig1 --bin fig2 --bin fig3 --bin fig4 --bin fig5 \
    --bin table1 --bin table2 --bin ablations --bin sweep --bin lpstudy 1>&2
cargo build --release --offline --quiet --manifest-path lpperf/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/lpperf" "$@"
