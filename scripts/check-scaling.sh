#!/usr/bin/env bash
# Perf gate: assert the pinned scaling ceilings of ci/scaling-baseline.json.
#
# Zone-exploration configuration counts are deterministic (the driver is one
# sequential breadth-first loop), so these are exact gates, not noisy
# wall-clock thresholds: if a count rises past its ceiling, an abstraction or
# coverage relation regressed. The gates:
#
#   * `transyt zones` (default abstraction: zones over live clocks, LU
#     extrapolation, aLU coverage) on the shipped 1-stage and 2-stage
#     pipelines stays within the pinned configuration ceilings;
#   * the 3-stage pipeline COMPLETES under the defaults within the
#     1,000,000-configuration budget — the headline aLU acceptance gate,
#     ~1.5 min at ~600 MiB peak RSS on a 2-core container (skip with
#     --skip-3stage for a quick local run);
#   * the 4-stage pipeline — too large for full zone closure in CI — runs a
#     BUDGETED determinism gate: `--limit 50000` must abort at exactly the
#     pinned configuration count, and two runs of the same binary must write
#     byte-identical JSON documents (the marking table is keyed with a
#     per-process random hasher, so hash order leaking into the document
#     shows up as a difference), 2.5-2.6 s and ~300 MiB per run on the
#     same container (skip with --skip-4stage);
#   * `transyt verify` on the 4-stage pipeline ends with the pinned verdict,
#     refinement and constraint counts and explored states (the relative-
#     timing engine's one untimed search over all 960,000 states), ~3 s
#     and ~280 MiB (also skipped by --skip-4stage).
#
# The flat (transistor-level) 1-stage count is pinned exactly by the tier-1
# test `tests/engine_vs_zones.rs`, so this script needs only the binary.
#
# Usage: scripts/check-scaling.sh [--binary PATH] [--baseline PATH]
#                                 [--skip-3stage] [--skip-4stage]

set -euo pipefail

cd "$(dirname "$0")/.."

BINARY=target/release/transyt
BASELINE=ci/scaling-baseline.json
RUN_3STAGE=1
RUN_4STAGE=1

while [ $# -gt 0 ]; do
  case "$1" in
    --binary) BINARY=$2; shift 2 ;;
    --baseline) BASELINE=$2; shift 2 ;;
    --skip-3stage) RUN_3STAGE=0; shift ;;
    --skip-4stage) RUN_4STAGE=0; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

[ -x "$BINARY" ] || { echo "transyt binary not found at $BINARY (build with: cargo build --release -p transyt-cli)" >&2; exit 2; }
[ -f "$BASELINE" ] || { echo "baseline file not found at $BASELINE" >&2; exit 2; }

ceiling() { # ceiling <section> <key>
  python3 -c "import json,sys; print(json.load(open('$BASELINE'))['$1']['$2']['max_configurations'])"
}

json_field() { # json_field <file> <field>
  python3 -c "import json,sys; print(json.load(open('$1'))['$2'])"
}

fail=0
gate() { # gate <label> <measured> <ceiling>
  if [ "$2" -le "$3" ]; then
    echo "perf-gate OK:   $1 = $2 (ceiling $3)"
  else
    echo "perf-gate FAIL: $1 = $2 exceeds ceiling $3" >&2
    fail=1
  fi
}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

for model in ipcmos_1stage ipcmos_2stage; do
  "$BINARY" zones "models/$model.stg" --json "$workdir/$model.json" > /dev/null
  [ "$(json_field "$workdir/$model.json" completed)" = "True" ] \
    || { echo "perf-gate FAIL: $model did not complete under the default limit" >&2; fail=1; continue; }
  gate "zones $model (defaults)" \
    "$(json_field "$workdir/$model.json" configurations)" \
    "$(ceiling zones "$model")"
done

if [ "$RUN_3STAGE" = 1 ]; then
  budget=$(python3 -c "import json; print(json.load(open('$BASELINE'))['alu_gate']['max_configurations'])")
  "$BINARY" zones models/ipcmos_3stage.stg --limit "$budget" \
    --json "$workdir/ipcmos_3stage.json" > /dev/null
  if [ "$(json_field "$workdir/ipcmos_3stage.json" completed)" = "True" ]; then
    gate "zones ipcmos_3stage (defaults)" \
      "$(json_field "$workdir/ipcmos_3stage.json" configurations)" "$budget"
  else
    echo "perf-gate FAIL: ipcmos_3stage did not complete within $budget configurations" >&2
    fail=1
  fi
else
  echo "perf-gate SKIP: ipcmos_3stage aLU completion gate (--skip-3stage)"
fi

if [ "$RUN_4STAGE" = 1 ]; then
  limit=$(python3 -c "import json; print(json.load(open('$BASELINE'))['four_stage_gate']['limit'])")
  expected=$(python3 -c "import json; print(json.load(open('$BASELINE'))['four_stage_gate']['expected_configurations'])")
  for run in 1 2; do
    "$BINARY" zones models/ipcmos_4stage.stg --limit "$limit" \
      --json "$workdir/ipcmos_4stage_run$run.json" > /dev/null
  done
  if ! cmp -s "$workdir/ipcmos_4stage_run1.json" "$workdir/ipcmos_4stage_run2.json"; then
    echo "perf-gate FAIL: ipcmos_4stage budgeted documents differ between two runs" >&2
    fail=1
  elif [ "$(json_field "$workdir/ipcmos_4stage_run1.json" completed)" = "True" ]; then
    # The budget is sized to be exceeded today; completing within it would
    # be an improvement worth pinning, not a regression.
    echo "perf-gate OK:   ipcmos_4stage COMPLETED within the $limit budget — tighten the four_stage_gate baseline"
  else
    measured=$(json_field "$workdir/ipcmos_4stage_run1.json" configurations)
    if [ "$measured" = "$expected" ]; then
      echo "perf-gate OK:   ipcmos_4stage budgeted run aborts deterministically at $measured configurations, byte-identical across two runs"
    else
      echo "perf-gate FAIL: ipcmos_4stage budgeted run stopped at $measured configurations (pinned $expected)" >&2
      fail=1
    fi
  fi
  model=$(python3 -c "import json; print(json.load(open('$BASELINE'))['verify_gate']['model'])")
  "$BINARY" verify "models/$model.stg" --json "$workdir/${model}_verify.json" > /dev/null
  mismatch=$(python3 -c "
import json
gate = json.load(open('$BASELINE'))['verify_gate']
doc = json.load(open('$workdir/${model}_verify.json'))
got = dict(doc, constraints=len(doc['constraints']))
keys = ['verdict', 'refinements', 'constraints', 'explored_states']
print(', '.join(f'{k} {got[k]} (pinned {gate[k]})' for k in keys if got[k] != gate[k]))")
  if [ -z "$mismatch" ]; then
    echo "perf-gate OK:   verify $model matches the pinned verdict, refinements, constraints and explored states"
  else
    echo "perf-gate FAIL: verify $model: $mismatch" >&2
    fail=1
  fi
else
  echo "perf-gate SKIP: ipcmos_4stage budgeted determinism and verify gates (--skip-4stage)"
fi

exit "$fail"
