#!/usr/bin/env bash
# Resilience gate: a real `transyt serve --data-dir` process is SIGKILLed
# mid-queue and restarted over the same data dir. The gates:
#
#   * the pre-crash completed job's document is served after the restart
#     byte-identical to the pre-crash bytes;
#   * every interrupted job (running or queued at the kill) is re-enqueued
#     and re-run to completion;
#   * resubmitting each job after the restart yields a document
#     byte-identical to the one-shot CLI's `--json` output, with ZERO new
#     runs (`runs_executed` in /healthz stays flat — everything is answered
#     from the content-addressed store or the memo);
#   * `transyt store ls` reads the crashed dir offline.
#
# Artifacts (server logs, store listings, document diffs) land in the
# report dir for CI upload.
#
# Usage: scripts/check-crash-recovery.sh [--binary PATH] [--report-dir DIR]

set -euo pipefail

cd "$(dirname "$0")/.."

BINARY=target/release/transyt
REPORT_DIR=target/resilience-reports

while [ $# -gt 0 ]; do
  case "$1" in
    --binary) BINARY=$2; shift 2 ;;
    --report-dir) REPORT_DIR=$2; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

[ -x "$BINARY" ] || { echo "transyt binary not found at $BINARY (build with: cargo build --release -p transyt-cli)" >&2; exit 2; }

mkdir -p "$REPORT_DIR"
DATA_DIR=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DATA_DIR"
}
trap cleanup EXIT

ADDR=""
start_server() { # start_server <logfile>
  "$BINARY" serve --addr 127.0.0.1:0 --workers 1 --data-dir "$DATA_DIR" \
    > "$1" 2>&1 &
  SERVER_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^transyt server listening on \([^ ]*\).*/\1/p' "$1")
    [ -n "$ADDR" ] && return 0
    sleep 0.1
  done
  echo "server never printed its listening address (log: $1)" >&2
  cat "$1" >&2
  exit 1
}

http_get() { # http_get <path>
  python3 -c "
import sys, urllib.request
print(urllib.request.urlopen(f'http://{sys.argv[1]}{sys.argv[2]}').read().decode(), end='')
" "$ADDR" "$1"
}

job_field() { # job_field <job-id> <field>  (string fields)
  http_get "/jobs/$1" | python3 -c "import json,sys; print(json.load(sys.stdin)['$2'])"
}

healthz_stat() { # healthz_stat <field>
  http_get /healthz | python3 -c "import json,sys; print(json.load(sys.stdin)['stats']['$1'])"
}

submit_job() { # submit_job <file> [extra submit flags...] -> prints nothing
  local file=$1; shift
  "$BINARY" submit "$file" --server "$ADDR" "$@" > /dev/null
}

fail=0
gate() { # gate <ok?> <label>
  if [ "$1" = 0 ]; then
    echo "resilience OK:   $2"
  else
    echo "resilience FAIL: $2" >&2
    fail=1
  fi
}

VERIFY_MODELS="intro_fig1.tts ipcmos_1stage.stg c_element.stg race_overlap.tts ring_pipeline.stg"

# ---- Phase 1: single worker, durable dir, a mixed queue. ----
start_server "$REPORT_DIR/serve-1.log"
echo "phase 1: server $SERVER_PID on $ADDR, data dir $DATA_DIR"

# Job 0 completes before the crash; capture its served bytes as the oracle.
submit_job models/intro_fig1.tts --wait --json "$REPORT_DIR/pre-crash-intro_fig1.json"

# Job 1 hogs the single worker (the 3-stage zone exploration, capped at
# 50,000 configurations, runs for seconds); jobs 2..5 pile up queued behind
# it.
submit_job models/ipcmos_3stage.stg --command zones --limit 50000
submit_job models/ipcmos_1stage.stg
submit_job models/c_element.stg
submit_job models/race_overlap.tts
submit_job models/ring_pipeline.stg

for _ in $(seq 1 200); do
  [ "$(job_field 1 status)" = running ] && break
  sleep 0.05
done
RUNNING=$(job_field 1 status)
QUEUED=$(http_get /jobs | python3 -c "
import json, sys
print(sum(1 for j in json.load(sys.stdin)['jobs'] if j['status'] == 'queued'))")
echo "at kill time: job 1 is $RUNNING, $QUEUED jobs queued"
[ "$RUNNING" = running ] || { echo "job 1 not running at kill time" >&2; exit 1; }
[ "$QUEUED" -ge 2 ] || { echo "fewer than 2 jobs queued at kill time" >&2; exit 1; }

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "SIGKILLed the server mid-queue"

# The crashed dir is inspectable offline.
"$BINARY" store ls --data-dir "$DATA_DIR" > "$REPORT_DIR/store-ls-post-crash.txt"
grep -q '#0 done verify' "$REPORT_DIR/store-ls-post-crash.txt" \
  || { echo "store ls does not list the completed job" >&2; exit 1; }

# ---- Phase 2: restart over the same dir; everything recovers. ----
start_server "$REPORT_DIR/serve-2.log"
echo "phase 2: server $SERVER_PID on $ADDR"

# Wait for every recovered job to settle.
for _ in $(seq 1 2400); do
  SETTLED=$(http_get /jobs | python3 -c "
import json, sys
jobs = json.load(sys.stdin)['jobs']
terminal = {'done', 'failed', 'cancelled', 'timed_out'}
print(1 if len(jobs) == 6 and all(j['status'] in terminal for j in jobs) else 0)")
  [ "$SETTLED" = 1 ] && break
  sleep 0.25
done
[ "$SETTLED" = 1 ] || { echo "recovered jobs never settled" >&2; http_get /jobs >&2; exit 1; }
NOT_DONE=$(http_get /jobs | python3 -c "
import json, sys
print(sum(1 for j in json.load(sys.stdin)['jobs'] if j['status'] != 'done'))")
gate "$([ "$NOT_DONE" = 0 ]; echo $?)" "all 6 recovered jobs re-ran to done"

# The pre-crash completed document is served byte-identical from the store.
http_get /jobs/0/result > "$REPORT_DIR/post-crash-intro_fig1.json"
if cmp -s "$REPORT_DIR/pre-crash-intro_fig1.json" "$REPORT_DIR/post-crash-intro_fig1.json"; then
  gate 0 "pre-crash completed document survived byte-identical"
else
  diff "$REPORT_DIR/pre-crash-intro_fig1.json" "$REPORT_DIR/post-crash-intro_fig1.json" \
    > "$REPORT_DIR/diff-intro_fig1-recovery.txt" || true
  gate 1 "pre-crash completed document changed across the crash"
fi

RUNS_AFTER_REPLAY=$(healthz_stat runs_executed)
http_get /healthz > "$REPORT_DIR/healthz-post-recovery.json"

# Resubmit everything: answered from the store/memo, byte-identical to the
# one-shot CLI, with zero new runs.
for model in $VERIFY_MODELS; do
  name=${model%.*}
  "$BINARY" verify "models/$model" --json "$REPORT_DIR/oneshot-$name.json" > /dev/null
  submit_job "models/$model" --wait --json "$REPORT_DIR/resubmit-$name.json"
  if cmp -s "$REPORT_DIR/oneshot-$name.json" "$REPORT_DIR/resubmit-$name.json"; then
    gate 0 "resubmitted $model matches the one-shot CLI byte-for-byte"
  else
    diff "$REPORT_DIR/oneshot-$name.json" "$REPORT_DIR/resubmit-$name.json" \
      > "$REPORT_DIR/diff-$name.txt" || true
    gate 1 "resubmitted $model differs from the one-shot CLI"
  fi
done
"$BINARY" zones models/ipcmos_3stage.stg --limit 50000 \
  --json "$REPORT_DIR/oneshot-zones-3stage.json" > /dev/null
submit_job models/ipcmos_3stage.stg --command zones --limit 50000 \
  --wait --json "$REPORT_DIR/resubmit-zones-3stage.json"
if cmp -s "$REPORT_DIR/oneshot-zones-3stage.json" "$REPORT_DIR/resubmit-zones-3stage.json"; then
  gate 0 "resubmitted zones job matches the one-shot CLI byte-for-byte"
else
  diff "$REPORT_DIR/oneshot-zones-3stage.json" "$REPORT_DIR/resubmit-zones-3stage.json" \
    > "$REPORT_DIR/diff-zones-3stage.txt" || true
  gate 1 "resubmitted zones job differs from the one-shot CLI"
fi

RUNS_AFTER_RESUBMIT=$(healthz_stat runs_executed)
gate "$([ "$RUNS_AFTER_REPLAY" = "$RUNS_AFTER_RESUBMIT" ]; echo $?)" \
  "resubmissions executed zero new runs ($RUNS_AFTER_REPLAY before, $RUNS_AFTER_RESUBMIT after)"
STORE_HITS=$(healthz_stat store_hits)
gate "$([ "$STORE_HITS" -ge 1 ]; echo $?)" \
  "at least one resubmission was answered from the on-disk store ($STORE_HITS store hits)"

# Artifacts: the final dir layout and listing.
"$BINARY" store ls --data-dir "$DATA_DIR" > "$REPORT_DIR/store-ls-final.txt"
(cd "$DATA_DIR" && find . -type f -exec ls -l {} + | sort -k 9) \
  > "$REPORT_DIR/data-dir-listing.txt"
http_get /healthz > "$REPORT_DIR/healthz-final.json"

python3 -c "
import sys, urllib.request
req = urllib.request.Request(f'http://{sys.argv[1]}/shutdown', method='POST')
urllib.request.urlopen(req).read()
" "$ADDR"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

exit "$fail"
