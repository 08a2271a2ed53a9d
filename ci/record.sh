#!/usr/bin/env bash
# Re-records every deterministic artefact of record: results/*.json
# (`figures all`), ci/*_baseline.json (the --json digests of five
# scenario traces on the simulated timeline) and ci/examples/*.txt (the
# stdout of the five plain examples, which print only simulated-clock
# figures and read the same under any NFC_THREADS). Check: run it, then
# `git status --porcelain -- ci results` must print nothing. The traces
# stay at the repo root for the CI smoke steps; a re-run overwrites them.
set -euo pipefail
cd "$(dirname "$0")/.."
unset NFC_TELEMETRY NFC_SLO NFC_FLOW_TRACE NFC_FLIGHT
cargo build --release -q -p nfc-bench -p nfc-core -p nfc-cluster --bins --examples
bin=${CARGO_TARGET_DIR:-target}/release
nfc() { "$bin/nfc-trace" "$@"; }
rm -f adapt_trace*.json health_trace*.json residency_trace*.json cluster_trace*.json \
  flow_trace*.json flight*.json

"$bin"/figures all
mkdir -p ci/examples
for ex in quickstart sfc_reorganization heterogeneous_scheduling ids_pipeline multi_tenant; do
  "$bin/examples/$ex" > "ci/examples/$ex.txt"
done
NFC_TELEMETRY=adapt_trace.json "$bin"/examples/adaptive_offload
NFC_SLO="p99_ns=200000,epoch=8,drift=0.4" NFC_TELEMETRY=health_trace.json "$bin"/examples/adaptive_offload
NFC_TELEMETRY=residency_trace.json "$bin"/examples/residency_spill
NFC_TELEMETRY=cluster_trace.json "$bin"/examples/cluster_scale
NFC_TELEMETRY=flow_trace.json NFC_FLOW_TRACE=16 NFC_SLO="p99_ns=200000,epoch=8" NFC_FLIGHT=flight \
  "$bin"/examples/cluster_scale --hostile

nfc attribution adapt_trace.json --json > ci/attribution_baseline.json
nfc health health_trace.json --json > ci/health_baseline.json
nfc attribution residency_trace.json --json > ci/residency_baseline.json
nfc attribution cluster_trace.json --json > ci/cluster_baseline.json
nfc flow flow_trace.json --json > ci/flow_baseline.json
