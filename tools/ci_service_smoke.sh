#!/usr/bin/env bash
# Service-layer smoke: generate a graph, snapshot it, serve it with
# fairbc_server, replay a canned 20-query trace over the line protocol,
# and assert every response's count + result-set digest matches a
# fairbc_cli run of the same parameters. Also checks the repeated
# queries at the end of the trace were served from the ResultCache, and
# replays the trace once more with stream=1, checking every query's JSON
# chunk lines and end line against the same oracle. Top-k queries (four
# parameter points x three ranks) are compared the same way against
# fairbc_cli --top-k, and fairbc_cli's --top-k --out file against the top
# five of its full --out file, ranked in Python (an oracle that shares no
# pruning code with the engines). A rejection-parity pass checks that both doors
# refuse the same bad values with the same message. A sweep pass runs the
# trace's points as two `sweep` grids, on stdin and over TCP, against the
# same oracle.
# Then restarts the server in TCP mode (--port=0, mmap preload) and
# replays the same trace through TWO PARALLEL TCP clients, diffing both
# response streams against the same CLI oracle — exercising concurrent
# sessions, session ids and single-flight admission end to end.
# Finally replays the trace a third time over the BINARY wire protocol
# (fairbc_wire_client --pipeline, responses verified in request order)
# against the same oracle, while a 256-connection idle soak proves the
# epoll reactor holds and still serves a large fd fleet — then a fourth
# time STREAMED (--stream): every query's kReplyChunk frames are
# reassembled client-side and the recomputed count + digest must equal
# the CLI oracle's, and a budgeted streamed query must see its first
# chunk strictly before the full response (progressive delivery).
#
# Observability coverage: the TCP server runs with --slow-query-ms=0 so
# every executed query is traced; the script scrapes the `metrics`
# command mid-replay (non-zero query counters, monotonic across
# scrapes), captures a retained trace via the `trace` command, validates
# it with tools/validate_trace.py, and leaves it at $TRACE_ARTIFACT
# (default BUILD_DIR/slow_query_trace.json) for CI artifact upload.
#
# Usage: tools/ci_service_smoke.sh [BUILD_DIR]   (default: build)

set -euo pipefail

BUILD=${1:-build}
CLI=$BUILD/fairbc_cli
SERVER=$BUILD/fairbc_server
WIRE=$BUILD/fairbc_wire_client
VALIDATE="$(dirname "$0")/validate_trace.py"
TRACE_ARTIFACT=${TRACE_ARTIFACT:-$BUILD/slow_query_trace.json}
WORK=$(mktemp -d)
SERVER_PID=
# A failed assertion mid-script must not leak the backgrounded TCP
# server: kill it (if any) before removing the workdir.
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

jsonfield() {  # jsonfield FILE_LINE KEY -> value (flat compact JSON)
  sed -n "s/.*\"$2\":\"\{0,1\}\([^,\"}]*\)\"\{0,1\}[,}].*/\1/p" <<<"$1"
}

# scrape_metrics OUT_FILE — one `metrics` command over TCP; unescapes the
# exposition into OUT_FILE as plain Prometheus text.
scrape_metrics() {
  exec 4<>"/dev/tcp/127.0.0.1/$PORT"
  printf 'metrics\nquit\n' >&4
  local line; read -r line <&4
  exec 4<&- 4>&-
  printf '%s' "$line" | python3 -c '
import json, sys
resp = json.loads(sys.stdin.read())
assert resp.get("ok"), resp
sys.stdout.write(resp["text"])
' > "$1"
}

metric() {  # metric FILE SERIES -> value (0 when the series is absent)
  awk -v s="$2" '$1 == s {print $2; found = 1} END {if (!found) print 0}' "$1"
}

echo "== gen + snapshot save"
"$CLI" gen --out="$WORK/g.fbg" --kind=affiliation --nu=400 --nv=400 \
       --communities=20 --seed=7
"$CLI" snapshot save --graph="$WORK/g.fbg" --out="$WORK/g.snap"

echo "== build 20-query trace (16 unique + 4 repeats)"
PARAMS=()
for model in ssfbc bsfbc; do
  for alpha in 2 3; do
    for beta in 2 3; do
      for delta in 1 2; do
        PARAMS+=("$model $alpha $beta $delta")
      done
    done
  done
done
# Repeats of the first four parameter points → must be cache hits.
PARAMS+=("${PARAMS[0]}" "${PARAMS[1]}" "${PARAMS[2]}" "${PARAMS[3]}")
test "${#PARAMS[@]}" -eq 20

TRACE="$WORK/trace.txt"
{
  echo "load name=g path=$WORK/g.snap format=snapshot"
  for p in "${PARAMS[@]}"; do
    read -r model alpha beta delta <<<"$p"
    echo "query graph=g model=$model alpha=$alpha beta=$beta delta=$delta"
  done
  echo "cache"
  echo "quit"
} > "$TRACE"

echo "== replay through fairbc_server"
"$SERVER" < "$TRACE" > "$WORK/responses.txt"
mapfile -t RESPONSES < "$WORK/responses.txt"
# responses: [0]=load, [1..20]=queries, [21]=cache, [22]=quit
test "${#RESPONSES[@]}" -eq 23

grep -q '"ok":true' <<<"${RESPONSES[0]}" || { echo "load failed"; exit 1; }

echo "== build the fairbc_cli oracle (count + digest per parameter point)"
CLI_COUNT=()
CLI_DIGEST=()
for i in "${!PARAMS[@]}"; do
  read -r model alpha beta delta <<<"${PARAMS[$i]}"
  cli_out=$("$CLI" enum --graph="$WORK/g.snap" --format=snapshot \
    --model="$model" --alpha="$alpha" --beta="$beta" --delta="$delta" \
    --count-only --output=json)
  CLI_COUNT[$i]=$(jsonfield "$cli_out" count)
  CLI_DIGEST[$i]=$(jsonfield "$cli_out" digest)
  test -n "${CLI_COUNT[$i]}" || { echo "cli oracle $i failed"; exit 1; }
done

# check_stream LABEL RESP_FILE FIRST_QUERY_LINE — diffs a response
# stream's queries against the oracle; prints the stream's cache-hit
# count to stdout.
check_stream() {
  local label=$1 file=$2 offset=$3 hits=0
  mapfile -t resp < "$file"
  for i in "${!PARAMS[@]}"; do
    read -r model alpha beta delta <<<"${PARAMS[$i]}"
    local r="${resp[$((i + offset))]}"
    grep -q '"ok":true' <<<"$r" \
      || { echo "$label query $i failed: $r" >&2; return 1; }
    local got_count got_digest
    got_count=$(jsonfield "$r" count)
    got_digest=$(jsonfield "$r" digest)
    if [ "$got_count" != "${CLI_COUNT[$i]}" ] \
       || [ "$got_digest" != "${CLI_DIGEST[$i]}" ]; then
      echo "$label MISMATCH query $i ($model a=$alpha b=$beta d=$delta):" >&2
      echo "  server count=$got_count digest=$got_digest" >&2
      echo "  cli    count=${CLI_COUNT[$i]} digest=${CLI_DIGEST[$i]}" >&2
      return 1
    fi
    if [ "$(jsonfield "$r" cache_hit)" = "true" ]; then
      hits=$((hits + 1))
    fi
  done
  echo "$hits"
}

echo "== compare each stdin response against the oracle"
hits=$(check_stream stdin "$WORK/responses.txt" 1) || exit 1

echo "== check cache telemetry"
cache_hits=$(jsonfield "${RESPONSES[21]}" hits)
if [ "$hits" -lt 4 ] || [ "$cache_hits" -lt 4 ]; then
  echo "expected >=4 cache hits from the repeated queries, saw $hits" \
       "(telemetry: $cache_hits)"
  exit 1
fi
echo "stdin OK: 20 responses match fairbc_cli; $hits cache hits"

echo "== rejection parity: line protocol and fairbc_cli refuse alike"
# Each bad value draws ok:false and exit 2 with one message, the CLI's
# --flag spelling in place of the line key. An unknown key is refused by
# the line protocol; fairbc_cli keeps its unknown-flag warning for it.
BAD=("alpha -1" "theta 1.5" "budget nan" "threads 1025"
     "top_k 1000000001" "model bogus" "alpha +2" "alpah 5")
for kv in "${BAD[@]}"; do
  read -r key value <<<"$kv"
  flag=--${key//_/-}
  line=$(echo "query graph=g $key=$value" | "$SERVER" | python3 -c '
import json, sys
reply = json.loads(sys.stdin.readline())
print(reply["error"].split(": ", 1)[1] if not reply["ok"] else "ok")')
  rc=0
  cli=$("$CLI" enum --graph="$WORK/g.snap" --format=snapshot --count-only \
        "$flag=$value" 2>&1 >/dev/null) || rc=$?
  if [ "$key" = alpah ]; then
    want_line='query does not take "alpah"' want_rc=0
    want_cli="warning: unknown flag --alpah ignored"
  else
    want_line=$line want_rc=2 want_cli="error: ${line/$key/$flag}"
  fi
  if [ "$line" = ok ] || [ "$line" != "$want_line" ] \
     || [ "$rc" -ne "$want_rc" ] || [ "$cli" != "$want_cli" ]; then
    echo "rejection parity $key=$value: line \"$line\", cli $rc \"$cli\""
    exit 1
  fi
done
echo "rejection parity OK: ${#BAD[@]} bad requests refused alike"

echo "== top-k: line-protocol top_k=5 vs fairbc_cli --top-k=5, every rank"
# Top-k is the one query kind both front doors run with their own flags;
# four parameter points (both models) x the three ranks, each compared on
# count + digest of the kept set.
TOPK_POINTS=(0 5 10 15)
TOPK_RANKS=(weight size balance)
{
  echo "load name=g path=$WORK/g.snap format=snapshot"
  for i in "${TOPK_POINTS[@]}"; do
    read -r model alpha beta delta <<<"${PARAMS[$i]}"
    for rank in "${TOPK_RANKS[@]}"; do
      echo "query graph=g model=$model alpha=$alpha beta=$beta delta=$delta top_k=5 rank=$rank"
    done
  done
  echo "quit"
} > "$WORK/trace_topk.txt"
"$SERVER" < "$WORK/trace_topk.txt" > "$WORK/responses_topk.txt"
mapfile -t TOPK_RESP < "$WORK/responses_topk.txt"
n=1
for i in "${TOPK_POINTS[@]}"; do
  read -r model alpha beta delta <<<"${PARAMS[$i]}"
  for rank in "${TOPK_RANKS[@]}"; do
    r="${TOPK_RESP[$n]}"
    n=$((n + 1))
    cli_out=$("$CLI" enum --graph="$WORK/g.snap" --format=snapshot \
      --model="$model" --alpha="$alpha" --beta="$beta" --delta="$delta" \
      --top-k=5 --rank="$rank" --count-only --output=json)
    if ! grep -q '"ok":true' <<<"$r" \
       || [ "$(jsonfield "$r" count)" != "$(jsonfield "$cli_out" count)" ] \
       || [ "$(jsonfield "$r" digest)" != "$(jsonfield "$cli_out" digest)" ]; then
      echo "top-k MISMATCH (${PARAMS[$i]} rank=$rank):" >&2
      echo "  server $r" >&2
      echo "  cli    $cli_out" >&2
      exit 1
    fi
  done
done
echo "top-k OK: $((n - 1)) line-protocol top-k queries match fairbc_cli"

echo "== top-k oracle: fairbc_cli --top-k=5 --out vs the top 5 of the full --out"
# Both doors above run the same pruned code; this pass ranks the full
# result file itself, best first by (rank desc, upper asc, lower asc) —
# the keeper's order and tie-break.
for i in "${TOPK_POINTS[@]}"; do
  read -r model alpha beta delta <<<"${PARAMS[$i]}"
  point=(--graph="$WORK/g.snap" --format=snapshot --model="$model"
         --alpha="$alpha" --beta="$beta" --delta="$delta")
  "$CLI" enum "${point[@]}" --out="$WORK/full_$i.txt" > /dev/null
  for rank in "${TOPK_RANKS[@]}"; do
    "$CLI" enum "${point[@]}" --top-k=5 --rank="$rank" \
      --out="$WORK/topk_${i}_$rank.txt" > /dev/null
    python3 - "$WORK/full_$i.txt" "$WORK/topk_${i}_$rank.txt" "$rank" <<'PY' \
      || { echo "top-k oracle MISMATCH (${PARAMS[$i]} rank=$rank)" >&2; exit 1; }
import sys
full_path, topk_path, rank = sys.argv[1:]
def parse(line):
    upper, lower = line.split(";")
    return [int(x) for x in upper.split()[1:]], [int(x) for x in lower.split()[1:]]
value = {"weight": lambda u, v: u * v, "size": lambda u, v: u + v,
         "balance": min}[rank]
full = [parse(line) for line in open(full_path) if line.strip()]
full.sort(key=lambda b: (-value(len(b[0]), len(b[1])), b[0], b[1]))
got = [parse(line) for line in open(topk_path) if line.strip()]
assert len(full) > 5, "full run has %d results" % len(full)
assert got == full[:5], (got, full[:5])
PY
  done
done
echo "top-k oracle OK: ${#TOPK_POINTS[@]} points x ${#TOPK_RANKS[@]} ranks equal the ranked full files"

echo "== reduction cache: one (alpha, beta) at delta 1 and 2, then cache=0"
# A reduction depends on (graph, side model, alpha, beta, pruning) alone,
# so the delta=2 query and the cache=0 repeats, which bypass the result
# cache but not the reduction cache, reuse the delta=1 query's survivor
# graph. Every answer must still match the oracle, the repeats must say
# reduce_cached, and the scraped reduction-cache hit counter must rise.
{
  echo "load name=g path=$WORK/g.snap format=snapshot"
  echo "metrics"
  for cache in 1 0; do
    for i in 0 1; do
      read -r model alpha beta delta <<<"${PARAMS[$i]}"
      echo "query graph=g model=$model alpha=$alpha beta=$beta delta=$delta cache=$cache"
    done
  done
  echo "metrics"
  echo "quit"
} > "$WORK/trace_reduce.txt"
"$SERVER" < "$WORK/trace_reduce.txt" > "$WORK/responses_reduce.txt"
mapfile -t REDUCE_RESP < "$WORK/responses_reduce.txt"
reduction_hits() {  # reduction_hits METRICS_REPLY -> the hit counter
  printf '%s' "$1" | python3 -c '
import json, sys
resp = json.loads(sys.stdin.read())
assert resp.get("ok"), resp
series = [l.split() for l in resp["text"].splitlines()]
print(next((s[1] for s in series
            if s and s[0] == "fairbc_reduction_cache_hits_total"), 0))
'
}
for n in 0 1 2 3; do
  i=$((n % 2))
  r="${REDUCE_RESP[$((n + 2))]}"
  if ! grep -q '"ok":true' <<<"$r" \
     || [ "$(jsonfield "$r" count)" != "${CLI_COUNT[$i]}" ] \
     || [ "$(jsonfield "$r" digest)" != "${CLI_DIGEST[$i]}" ]; then
    echo "reduction-cache MISMATCH (${PARAMS[$i]}, query $n):" >&2
    echo "  server $r" >&2
    echo "  cli    count=${CLI_COUNT[$i]} digest=${CLI_DIGEST[$i]}" >&2
    exit 1
  fi
  if [ "$n" -ge 2 ] && [ "$(jsonfield "$r" reduce_cached)" != "true" ]; then
    echo "cache=0 repeat did not reuse its reduction: $r" >&2
    exit 1
  fi
done
RHITS0=$(reduction_hits "${REDUCE_RESP[1]}")
RHITS1=$(reduction_hits "${REDUCE_RESP[6]}")
if [ "$RHITS1" -le "$RHITS0" ]; then
  echo "fairbc_reduction_cache_hits_total did not rise: $RHITS0 -> $RHITS1"
  exit 1
fi
echo "reduction cache OK: 4 answers match fairbc_cli;" \
     "reduction hits $RHITS0 -> $RHITS1"

echo "== streamed line-protocol replay: JSON chunk lines vs the oracle"
# The same trace with stream=1 on stdin: every query answers with
# {"cmd":"chunk",...} lines (decoded from the compact chunk bodies) and
# then its regular reply line. Per query, the bicliques summed over its
# chunk lines and the end line's count + digest must equal the oracle's.
sed 's/^query .*/& stream=1/' "$TRACE" > "$WORK/trace_stream.txt"
"$SERVER" < "$WORK/trace_stream.txt" > "$WORK/responses_stream.txt"
ORACLE=$(for i in "${!PARAMS[@]}"; do
  echo "${CLI_COUNT[$i]} ${CLI_DIGEST[$i]}"
done)
ORACLE="$ORACLE" python3 - "$WORK/responses_stream.txt" <<'PY' \
  || { echo "streamed line-protocol replay failed"; exit 1; }
import json, os, sys
oracle = [line.split() for line in os.environ["ORACLE"].splitlines()]
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert lines[0].get("ok") and lines[0].get("cmd") == "load", lines[0]
pos, chunks_seen = 1, 0
for i, (count, digest) in enumerate(oracle):
    streamed, seq = 0, 0
    while lines[pos].get("cmd") == "chunk":
        chunk = lines[pos]
        seq += 1
        streamed += len(chunk["bicliques"])
        assert chunk["seq"] == seq, (i, chunk["seq"], seq)
        assert chunk["results_so_far"] == streamed, (i, chunk)
        pos += 1
    end = lines[pos]
    pos += 1
    chunks_seen += seq
    assert end.get("ok"), (i, end)
    if streamed != int(count) or str(end["count"]) != count \
            or end["digest"] != digest:
        sys.exit("stream query %d: chunks carry %d, end line %s/%s, "
                 "oracle %s/%s" % (i, streamed, end["count"],
                                   end["digest"], count, digest))
assert chunks_seen >= len(oracle), chunks_seen
print("line stream OK: %d streamed queries match fairbc_cli (%d chunk lines)"
      % (len(oracle), chunks_seen))
PY

echo "== differential check: v3 (compressed) snapshot vs the v2 oracle"
# Save the served graph as a v3 compressed snapshot through the server's
# own save path, reload THAT file, and replay the full trace: every
# count + digest must match the v2-backed oracle exactly, and the
# catalog graph version (content fingerprint) must be identical across
# formats — the compressed format may never change query results.
{
  echo "load name=g path=$WORK/g.snap format=snapshot"
  echo "save name=g path=$WORK/g_v3.snap compress=1 block=512"
  echo "quit"
} > "$WORK/save_v3.txt"
"$SERVER" < "$WORK/save_v3.txt" > "$WORK/save_v3_resp.txt"
SAVE_LINE=$(sed -n 2p "$WORK/save_v3_resp.txt")
grep -q '"ok":true' <<<"$SAVE_LINE" || { echo "v3 save failed: $SAVE_LINE"; exit 1; }
test "$(jsonfield "$SAVE_LINE" snapshot_version)" = "3" \
  || { echo "expected snapshot_version 3: $SAVE_LINE"; exit 1; }
V3_BYTES=$(jsonfield "$SAVE_LINE" file_bytes)
V2_BYTES=$(stat -c %s "$WORK/g.snap")
if [ $((2 * V3_BYTES)) -gt "$V2_BYTES" ]; then
  echo "v3 snapshot not >=2x smaller: v2=$V2_BYTES v3=$V3_BYTES"
  exit 1
fi

sed "s|path=$WORK/g.snap|path=$WORK/g_v3.snap|" "$TRACE" > "$WORK/trace_v3.txt"
"$SERVER" < "$WORK/trace_v3.txt" > "$WORK/responses_v3.txt"
hits_v3=$(check_stream v3 "$WORK/responses_v3.txt" 1) || exit 1
V2_VERSION=$(jsonfield "${RESPONSES[1]}" version)
V3_VERSION=$(jsonfield "$(sed -n 2p "$WORK/responses_v3.txt")" version)
if [ -z "$V2_VERSION" ] || [ "$V2_VERSION" != "$V3_VERSION" ]; then
  echo "fingerprint drift across formats: v2=$V2_VERSION v3=$V3_VERSION"
  exit 1
fi
# format=mmap on a v3 file takes ReadSnapshotView's decode path
# (compressed sections cannot be viewed in place): same fingerprint.
printf 'load name=g path=%s format=mmap\nquit\n' "$WORK/g_v3.snap" \
  | "$SERVER" > "$WORK/load_v3_mmap.txt"
MMAP_LINE=$(sed -n 1p "$WORK/load_v3_mmap.txt")
grep -q '"ok":true' <<<"$MMAP_LINE" || { echo "v3 mmap load failed: $MMAP_LINE"; exit 1; }
test "$(jsonfield "$MMAP_LINE" snapshot_version)" = "3" \
  || { echo "expected snapshot_version 3: $MMAP_LINE"; exit 1; }
V3_MMAP_VERSION=$(jsonfield "$MMAP_LINE" version)
if [ "$V3_MMAP_VERSION" != "$V2_VERSION" ]; then
  echo "fingerprint drift through format=mmap: v2=$V2_VERSION v3=$V3_MMAP_VERSION"
  exit 1
fi
echo "v3 OK: 20 responses match the v2 oracle; fingerprint $V3_VERSION" \
     "identical (also through format=mmap); ${V2_BYTES}B -> ${V3_BYTES}B"

echo "== sweep: one grid per model on stdin and over TCP vs the oracle"
# A sweep over alphas=2,3 betas=2,3 deltas=1,2 covers the trace's eight
# points of its model, in the trace's order (alphas outer, deltas inner).
# Over TCP the grid runs on a fresh server, so every point executes while
# the reactor keeps serving; each point's count + digest must equal the
# oracle's on both doors.
SWEEPS=$(for model in ssfbc bsfbc; do
  echo "sweep graph=g model=$model alphas=2,3 betas=2,3 deltas=1,2"
done)
check_sweeps() {  # check_sweeps LABEL FILE — the two sweep reply lines
  ORACLE="$ORACLE" python3 - "$@" <<'PY'
import json, os, sys
label, path = sys.argv[1:]
oracle = [line.split() for line in os.environ["ORACLE"].splitlines()]
sweeps = [json.loads(l) for l in open(path)
          if l.strip() and '"cmd":"sweep"' in l]
assert len(sweeps) == 2, (label, len(sweeps))
for m, sweep in enumerate(sweeps):
    assert sweep.get("ok") and sweep["queries"] == 8, (label, sweep)
    for j, point in enumerate(sweep["results"]):
        count, digest = oracle[8 * m + j]
        if str(point["count"]) != count or point["digest"] != digest:
            sys.exit("%s sweep %d point %d: %s/%s, oracle %s/%s" % (
                label, m, j, point["count"], point["digest"], count, digest))
print("%s sweep OK: 16 grid points match fairbc_cli" % label)
PY
}
{ echo "load name=g path=$WORK/g.snap format=snapshot"; echo "$SWEEPS"; } \
  | "$SERVER" > "$WORK/sweep_stdin.txt"
check_sweeps stdin "$WORK/sweep_stdin.txt" || exit 1
"$SERVER" --port=0 --preload=g="$WORK/g.snap" 2> "$WORK/sweep_server.log" &
SERVER_PID=$!
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' \
         "$WORK/sweep_server.log")
  [ -n "$PORT" ] && break
  sleep 0.05
done
[ -n "$PORT" ] || { echo "sweep server did not report its port"; exit 1; }
exec 5<>"/dev/tcp/127.0.0.1/$PORT"
printf '%s\nstop\n' "$SWEEPS" >&5
for _ in 1 2 3; do read -r line <&5 && echo "$line"; done > "$WORK/sweep_tcp.txt"
exec 5<&- 5>&-
wait "$SERVER_PID"
SERVER_PID=
check_sweeps tcp "$WORK/sweep_tcp.txt" || exit 1

echo "== restart in TCP mode (mmap preload) and replay through 2 parallel clients"
# max-sessions covers the 2 line clients + the wire client + its
# 256-connection idle soak fleet below.
# --slow-query-ms=0 retains a phase trace for every executed query so
# the `trace` command below has something to export.
"$SERVER" --port=0 --preload=g="$WORK/g.snap" --mmap --max-sessions=300 \
  --slow-query-ms=0 2> "$WORK/server.log" &
SERVER_PID=$!
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' \
         "$WORK/server.log")
  [ -n "$PORT" ] && break
  sleep 0.05
done
[ -n "$PORT" ] || { echo "server did not report its port"; cat "$WORK/server.log"; exit 1; }

tcp_client() {  # tcp_client OUTFILE — graph preloaded, so queries only
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  {
    for p in "${PARAMS[@]}"; do
      read -r model alpha beta delta <<<"$p"
      echo "query graph=g model=$model alpha=$alpha beta=$beta delta=$delta"
    done
    echo "quit"
  } >&3
  local line n=0
  while [ "$n" -lt $(( ${#PARAMS[@]} + 1 )) ] && read -r line <&3; do
    echo "$line" >> "$1"
    n=$((n + 1))
  done
  exec 3<&- 3>&-
}

tcp_client "$WORK/tcp_a.txt" & CA=$!
tcp_client "$WORK/tcp_b.txt" & CB=$!
wait "$CA" "$CB"

hits_a=$(check_stream tcp-a "$WORK/tcp_a.txt" 0) || exit 1
hits_b=$(check_stream tcp-b "$WORK/tcp_b.txt" 0) || exit 1

# Distinct session ids prove both streams were real concurrent sessions.
sid_a=$(jsonfield "$(head -1 "$WORK/tcp_a.txt")" session)
sid_b=$(jsonfield "$(head -1 "$WORK/tcp_b.txt")" session)
if [ -z "$sid_a" ] || [ "$sid_a" = "$sid_b" ]; then
  echo "expected distinct session ids, got '$sid_a' and '$sid_b'"
  exit 1
fi

echo "== mid-replay metrics scrape (after line clients, before wire)"
scrape_metrics "$WORK/scrape1.txt"
Q1=$(metric "$WORK/scrape1.txt" fairbc_queries_total)
E1=$(metric "$WORK/scrape1.txt" fairbc_query_executions_total)
R1=$(metric "$WORK/scrape1.txt" fairbc_reactor_reads_total)
if [ "$Q1" -lt 40 ] || [ "$E1" -lt 1 ] || [ "$R1" -lt 1 ]; then
  echo "mid-replay scrape not live: queries=$Q1 executions=$E1 reads=$R1"
  exit 1
fi
echo "scrape 1: queries=$Q1 executions=$E1 reactor_reads=$R1"

echo "== binary wire protocol: pipelined replay + 256-idle-connection soak"
WIRE_TRACE="$WORK/wire_trace.txt"
for p in "${PARAMS[@]}"; do
  read -r model alpha beta delta <<<"$p"
  echo "query graph=g model=$model alpha=$alpha beta=$beta delta=$delta"
done > "$WIRE_TRACE"
# --pipeline sends all 20 frames before reading; the client exits
# nonzero if responses come back out of request order or any soak
# connection fails its ping after the replay.
"$WIRE" --port="$PORT" --pipeline --soak=256 \
  < "$WIRE_TRACE" > "$WORK/wire.txt" 2> "$WORK/wire.log" \
  || { echo "wire client failed:"; cat "$WORK/wire.log"; exit 1; }
hits_w=$(check_stream wire "$WORK/wire.txt" 0) || exit 1
grep -q "soak: 256 idle connections verified" "$WORK/wire.log" \
  || { echo "soak verification missing:"; cat "$WORK/wire.log"; exit 1; }
echo "wire OK: 20 pipelined responses match fairbc_cli ($hits_w cache hits);" \
     "256 idle connections verified"

echo "== streamed binary replay: chunk reassembly vs the CLI oracle"
# --stream sets the stream flag on every kQuery frame; for each query the
# client prints the kReplyEnd JSON, then a {"cmd":"stream_client",...}
# line with the count + digest it recomputed from the kReplyChunk frames
# it reassembled (seq-contiguity enforced client-side).
"$WIRE" --port="$PORT" --pipeline --stream \
  < "$WIRE_TRACE" > "$WORK/stream.txt" 2> "$WORK/stream.log" \
  || { echo "streamed wire client failed:"; cat "$WORK/stream.log"; exit 1; }
mapfile -t SLINES < "$WORK/stream.txt"
test "${#SLINES[@]}" -eq $((2 * ${#PARAMS[@]})) \
  || { echo "expected $((2 * ${#PARAMS[@]})) streamed lines, got ${#SLINES[@]}"; exit 1; }
stream_chunks_seen=0
for i in "${!PARAMS[@]}"; do
  reply="${SLINES[$((2 * i))]}"
  summary="${SLINES[$((2 * i + 1))]}"
  grep -q '"cmd":"stream_client"' <<<"$summary" \
    || { echo "stream query $i: missing reassembly line: $summary"; exit 1; }
  s_count=$(jsonfield "$summary" count)
  s_digest=$(jsonfield "$summary" digest)
  s_chunks=$(jsonfield "$summary" chunks)
  if [ "$s_count" != "${CLI_COUNT[$i]}" ] \
     || [ "$s_digest" != "${CLI_DIGEST[$i]}" ]; then
    echo "stream MISMATCH query $i (${PARAMS[$i]}):" >&2
    echo "  reassembled count=$s_count digest=$s_digest" >&2
    echo "  cli         count=${CLI_COUNT[$i]} digest=${CLI_DIGEST[$i]}" >&2
    exit 1
  fi
  # The end-of-stream summary must agree with its own chunk payload.
  r_count=$(jsonfield "$reply" count)
  r_digest=$(jsonfield "$reply" digest)
  if [ "$r_count" != "$s_count" ] || [ "$r_digest" != "$s_digest" ]; then
    echo "stream query $i: end summary ($r_count/$r_digest) disagrees" \
         "with its chunks ($s_count/$s_digest)"
    exit 1
  fi
  stream_chunks_seen=$((stream_chunks_seen + s_chunks))
done
test "$stream_chunks_seen" -ge "${#PARAMS[@]}" \
  || { echo "suspiciously few chunks across 20 streams: $stream_chunks_seen"; exit 1; }
echo "stream OK: 20 reassembled streams match fairbc_cli" \
     "($stream_chunks_seen chunks)"

echo "== budgeted streamed query: first chunk must beat the full response"
# A per-query budget skips cache and single-flight, so this runs the
# engines for real; the first kReplyChunk must land strictly before the
# kReplyEnd frame — the point of progressive delivery.
echo "query graph=g model=ssfbc alpha=2 beta=2 delta=1 budget=30" \
  | "$WIRE" --port="$PORT" --stream > "$WORK/stream_budget.txt" 2>&1 \
  || { echo "budgeted stream failed:"; cat "$WORK/stream_budget.txt"; exit 1; }
BLINE=$(grep '"cmd":"stream_client"' "$WORK/stream_budget.txt")
first_ms=$(jsonfield "$BLINE" first_ms)
total_ms=$(jsonfield "$BLINE" total_ms)
awk -v f="$first_ms" -v t="$total_ms" 'BEGIN { exit !(f >= 0 && f < t) }' \
  || { echo "first chunk not ahead of full response:" \
            "first_ms=$first_ms total_ms=$total_ms"; exit 1; }
echo "budgeted stream OK: first_ms=$first_ms < total_ms=$total_ms"

echo "== second scrape: counters must be monotonic and reflect the wire replay"
scrape_metrics "$WORK/scrape2.txt"
Q2=$(metric "$WORK/scrape2.txt" fairbc_queries_total)
R2=$(metric "$WORK/scrape2.txt" fairbc_reactor_reads_total)
SQ2=$(metric "$WORK/scrape2.txt" fairbc_stream_queries_total)
SC2=$(metric "$WORK/scrape2.txt" fairbc_stream_chunks_total)
if [ "$Q2" -le "$Q1" ] || [ "$R2" -lt "$R1" ]; then
  echo "scrape not monotonic: queries $Q1 -> $Q2, reads $R1 -> $R2"
  exit 1
fi
if [ "$SQ2" -lt 21 ] || [ "$SC2" -lt "$stream_chunks_seen" ]; then
  echo "stream counters not live: stream_queries=$SQ2 stream_chunks=$SC2"
  exit 1
fi
echo "scrape 2: queries=$Q2 reactor_reads=$R2 stream_queries=$SQ2" \
     "stream_chunks=$SC2 (monotonic)"

echo "== capture a retained trace and validate the Perfetto JSON"
exec 4<>"/dev/tcp/127.0.0.1/$PORT"
printf 'trace n=3\nquit\n' >&4
read -r TRACE_LINE <&4
exec 4<&- 4>&-
printf '%s' "$TRACE_LINE" > "$TRACE_ARTIFACT"
RETAINED=$(jsonfield "$TRACE_LINE" retained)
if [ -z "$RETAINED" ] || [ "$RETAINED" -lt 1 ]; then
  echo "trace command retained nothing: $TRACE_LINE"
  exit 1
fi
python3 "$VALIDATE" "$TRACE_ARTIFACT" \
  || { echo "trace validation failed"; exit 1; }
echo "trace OK: $RETAINED retained, artifact at $TRACE_ARTIFACT"

echo "== stop the server (drain) and collect telemetry"
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
echo "cache" >&3
read -r CACHE_LINE <&3
echo "stop" >&3
read -r _ <&3 || true
exec 3<&- 3>&-
wait "$SERVER_PID"
SERVER_PID=

total_hits=$(jsonfield "$CACHE_LINE" hits)
coalesced=$(jsonfield "$CACHE_LINE" coalesced)
executions=$(jsonfield "$CACHE_LINE" executions)
# Three identical batch 20-query traces over 16 unique points cost 16
# real executions (single-flight coalesces concurrent identicals, the
# cache serves the rest). The streamed replay re-executes each unique
# point once more — a summary-only cache entry cannot serve chunks, so
# the first stream of a point runs the engines and retains the payload,
# after which the repeats replay from memory — and the budgeted query
# always runs itself (budgeted runs never join or cache). Budget: 33.
if [ -z "$total_hits" ] || [ -z "$coalesced" ] || [ -z "$executions" ]; then
  echo "TCP telemetry unexpected: $CACHE_LINE"
  exit 1
fi
if [ "$executions" -gt 33 ]; then
  echo "single-flight failed: $executions executions for 16 unique points" \
       "(budget: 16 batch + 16 payload-producing streams + 1 budgeted)"
  exit 1
fi
if [ $((total_hits + coalesced)) -lt 24 ]; then
  echo "expected hits+coalesced >= 24, got $total_hits+$coalesced" \
       "($CACHE_LINE)"
  exit 1
fi

echo "OK: stdin + 2 TCP clients match fairbc_cli" \
     "(tcp hits: $hits_a/$hits_b, executions: $executions," \
     "coalesced: $coalesced)"
