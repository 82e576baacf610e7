#!/usr/bin/env bash
# CI smoke test of the matching service's persistence path: start
# coma-server on a temp unix socket with a file-backed store, drive one
# schema upload + match + store through the coma-cli client, shut the
# server down, start a *fresh* server process over the same store file,
# and verify the schemas and the stored mapping survived the restart
# (fetch + match by name, no re-upload); then store one more schema,
# which stays in the store's log, kill the server with SIGKILL and
# verify a third server replays it; then send one deeply nested frame
# and one 64 MiB flat frame and check the server still answers, its peak
# resident set under 256 MiB. Any nonzero exit fails the job.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
SOCKET="$WORK/coma.sock"
STORE="$WORK/repo.json"
SERVER_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

SERVER=target/release/coma-server
CLI=target/release/coma-cli
[ -x "$SERVER" ] && [ -x "$CLI" ] || cargo build --release --locked

echo "== generation 1: store, match, persist =="
"$SERVER" --socket "$SOCKET" --store "$STORE" &
SERVER_PID=$!

"$CLI" --server "$SOCKET" put crates/eval/assets/cidx.xsd --name cidx
"$CLI" --server "$SOCKET" put crates/eval/assets/excel.xsd --name excel
"$CLI" --server "$SOCKET" match cidx excel --top-k 5 --store > "$WORK/first.tsv"
[ -s "$WORK/first.tsv" ] || { echo "FAIL: first match produced no correspondences"; exit 1; }
"$CLI" --server "$SOCKET" stats
"$CLI" --server "$SOCKET" shutdown
wait "$SERVER_PID"
SERVER_PID=""
[ -s "$STORE" ] || { echo "FAIL: store file $STORE is missing or empty"; exit 1; }

echo "== generation 2: reload the store, match by name =="
"$SERVER" --socket "$SOCKET" --store "$STORE" &
SERVER_PID=$!

"$CLI" --server "$SOCKET" list | grep -qx cidx || { echo "FAIL: cidx not reloaded"; exit 1; }
"$CLI" --server "$SOCKET" fetch excel
"$CLI" --server "$SOCKET" match cidx excel --top-k 5 > "$WORK/second.tsv"
diff "$WORK/first.tsv" "$WORK/second.tsv" \
    || { echo "FAIL: restarted server ranks the pair differently"; exit 1; }

echo "== generation 3: restart after kill -9, replaying the log =="
# A small schema is appended to the log, not compacted into the
# snapshot; a server killed without a shutdown never flushes.
"$CLI" --server "$SOCKET" put crates/eval/assets/noris.xsd --name noris
[ -s "$STORE.log" ] || { echo "FAIL: the put left $STORE.log missing or empty"; exit 1; }
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
"$SERVER" --socket "$SOCKET" --store "$STORE" &
SERVER_PID=$!

"$CLI" --server "$SOCKET" list | grep -qx noris || { echo "FAIL: noris not replayed from the log"; exit 1; }
"$CLI" --server "$SOCKET" match cidx excel --top-k 5 > "$WORK/third.tsv"
diff "$WORK/first.tsv" "$WORK/third.tsv" \
    || { echo "FAIL: the server after kill -9 ranks the pair differently"; exit 1; }

echo "== a hostile frame ends only its own session =="
# One well-framed 64 KiB payload of nested `[`: the server must drop that
# session like any malformed frame and keep serving everyone else.
python3 - "$SOCKET" <<'PY'
import socket, struct, sys

payload = b"[" * (64 * 1024)
with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
    s.connect(sys.argv[1])
    s.sendall(struct.pack(">I", len(payload)) + payload)
    if s.recv(1):
        sys.exit("FAIL: the server answered a malformed frame")
PY

echo "== a 64 MiB flat frame is rejected at its first token =="
# The request type rejects a flat array at its first token, so the
# frame's own 64 MiB buffer is the whole cost of the session: the
# server's peak resident set stays well under 256 MiB.
python3 - "$SOCKET" <<'PY'
import socket, struct, sys

payload = b"[" + b"0," * ((64 * 1024 * 1024 - 4) // 2) + b"0]"
with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
    s.connect(sys.argv[1])
    s.sendall(struct.pack(">I", len(payload)) + payload)
    if s.recv(1):
        sys.exit("FAIL: the server answered a malformed frame")
PY
HWM_KB=$(awk '/^VmHWM:/ { print $2 }' "/proc/$SERVER_PID/status")
echo "server peak resident set: $HWM_KB kB"
[ "$HWM_KB" -lt $((256 * 1024)) ] \
    || { echo "FAIL: the server peaked at $HWM_KB kB, over 256 MiB"; exit 1; }
"$CLI" --server "$SOCKET" stats
"$CLI" --server "$SOCKET" shutdown
wait "$SERVER_PID"
SERVER_PID=""

echo "server smoke passed: persistence survives a restart and a kill -9, hostile frames do not crash it or exhaust its memory"
