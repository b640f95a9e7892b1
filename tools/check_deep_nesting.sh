#!/usr/bin/env bash
# Hostile nesting regression: a DTS nested 20 000 nodes deep and a cell
# expression with 100 000 nested parentheses must each end in one located
# [dts-parse] error (exit 1), never a crash. Checked two ways:
#   1. the one-shot CLI;
#   2. an in-process llhscd (no forked workers, so a crash would take the
#      daemon down): each check is answered with the same error bytes, and
#      the daemon still answers ping afterwards and drains on SIGTERM.
# Usage: check_deep_nesting.sh <llhsc> <llhscd>
set -eu

LLHSC="$1"
LLHSCD="$2"
TMP="$(mktemp -d)"

DAEMON_PID=""
cleanup() {
    [ -n "${DAEMON_PID:-}" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

python3 - "$TMP" <<'PYEOF'
import sys
out = sys.argv[1]
n = 20000
with open(out + "/deep-nodes.dts", "w") as f:
    f.write("/dts-v1/;\n/ {" + " a {" * n + " };" * n + " };\n")
n = 100000
with open(out + "/deep-expr.dts", "w") as f:
    f.write("/dts-v1/;\n/ { x = <" + "(" * n + "1" + ")" * n + ">; };\n")
PYEOF

# -- 1. one-shot CLI --
for input in deep-nodes deep-expr; do
    status=0
    "$LLHSC" check "$TMP/$input.dts" > "$TMP/$input.out" 2> "$TMP/$input.err" \
        || status=$?
    if [ "$status" -ne 1 ]; then
        echo "$input: llhsc check exited $status, want 1" >&2
        cat "$TMP/$input.err" >&2
        exit 1
    fi
    located="^$TMP/$input.dts:[0-9]+:[0-9]+: error: \[dts-parse\] "
    if ! grep -qE "$located.*nests deeper than" "$TMP/$input.err"; then
        echo "$input: no located [dts-parse] error" >&2
        cat "$TMP/$input.err" >&2
        exit 1
    fi
done

# -- 2. in-process daemon --
SOCK="$TMP/d.sock"
"$LLHSCD" --socket "$SOCK" --jobs 2 --log-file "$TMP/d.log" &
DAEMON_PID=$!
for _ in $(seq 1 200); do
    [ -S "$SOCK" ] && break
    sleep 0.05
done
[ -S "$SOCK" ] || { echo "daemon never bound $SOCK" >&2; exit 1; }

for input in deep-nodes deep-expr; do
    status=0
    "$LLHSC" check "$TMP/$input.dts" --socket "$SOCK" \
        > "$TMP/$input.sock.out" 2> "$TMP/$input.sock.err" || status=$?
    [ "$status" -eq 1 ] \
        || { echo "$input: daemon check exited $status, want 1" >&2; exit 1; }
    cmp "$TMP/$input.err" "$TMP/$input.sock.err"
    cmp "$TMP/$input.out" "$TMP/$input.sock.out"
done

python3 - "$SOCK" <<'PYEOF'
import json, socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.settimeout(10.0)
s.connect(sys.argv[1])
s.sendall(b'{"id": 7, "method": "ping"}\n')
data = b""
while b"\n" not in data:
    chunk = s.recv(65536)
    if not chunk:
        sys.exit("daemon closed the connection instead of answering ping")
    data += chunk
reply = json.loads(data.split(b"\n", 1)[0])
if not (reply.get("ok") and reply["result"].get("pong")):
    sys.exit("bad ping reply: %r" % reply)
PYEOF

kill -TERM "$DAEMON_PID"
status=0
wait "$DAEMON_PID" || status=$?
DAEMON_PID=""
[ "$status" -eq 0 ] || { echo "daemon exited $status on SIGTERM" >&2; exit 1; }
echo "deep nesting: CLI and daemon report one located error each"
