#!/usr/bin/env bash
# Hostile nesting regression. Each input must end in one located parse
# error (exit 1), never a crash:
#   * a DTS nested 20 000 nodes deep and a cell expression with 100 000
#     nested parentheses ([dts-parse], `llhsc check`);
#   * a delta `when` condition with 100 000 nested parentheses and one with
#     100 000 chained '!' ([delta-parse], `llhsc check --lifted`);
#   * a feature model 20 000 levels deep ([fm-parse], `llhsc check
#     --lifted` and `llhsc products --model`).
# A schema stream whose blocks nest 5 000 levels deep ([yaml-parse], `llhsc
# check --schemas`) is a usage error instead: exit 2, one located error. It
# runs with a 1 MiB stack, as does the daemon: unbounded, 20 000 levels of
# YAML recursion still fit in the default 8 MiB, but 5 000 do not in 1 MiB.
# Checked two ways:
#   1. the one-shot CLI;
#   2. an in-process llhscd (no forked workers, so a crash would take the
#      daemon down): each DTS and schema check is answered with the same
#      error bytes, each delta and model text sent in a lifted `session`
#      request is answered with the CLI's error line and exit code 1, and
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
body = " {\n    modifies / { x = <1>; }\n}\n"
with open(out + "/deep-paren.deltas", "w") as f:
    f.write("delta d when " + "(" * n + "a" + ")" * n + body)
with open(out + "/deep-not.deltas", "w") as f:
    f.write("delta d when " + "!" * n + "a" + body)
with open(out + "/flat.deltas", "w") as f:
    f.write("delta d when a" + body)
with open(out + "/flat.fm", "w") as f:
    f.write("model M {\n    a;\n}\n")
n = 20000
with open(out + "/deep.fm", "w") as f:
    f.write("model M {\n" + "".join(" f%d {" % i for i in range(n)) +
            " a;" + " }" * n + "\n}\n")
with open(out + "/core.dts", "w") as f:
    f.write("/dts-v1/;\n/ { #address-cells = <1>; #size-cells = <1>; };\n")
n = 5000
with open(out + "/deep.yaml", "w") as f:
    f.write("$id: deep\n" + "".join(" " * i + "a:\n" for i in range(n)) +
            " " * n + "a: 1\n")
PYEOF

# expect_parse_error <name> <code> <file> <command...>: the command exits 1
# with one located [<code>] "nests deeper than" error on stderr, saved as
# $TMP/<name>.err.
expect_parse_error() {
    name="$1"; code="$2"; file="$3"; shift 3
    status=0
    "$@" > "$TMP/$name.out" 2> "$TMP/$name.err" || status=$?
    if [ "$status" -ne 1 ]; then
        echo "$name: exited $status, want 1" >&2
        cat "$TMP/$name.err" >&2
        exit 1
    fi
    located="^$TMP/$file:[0-9]+:[0-9]+: error: \[$code\] .*nests deeper than"
    if [ "$(grep -cE "$located" "$TMP/$name.err")" -ne 1 ]; then
        echo "$name: want one located [$code] error" >&2
        cat "$TMP/$name.err" >&2
        exit 1
    fi
}

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

expect_parse_error deep-paren delta-parse deep-paren.deltas \
    "$LLHSC" check "$TMP/core.dts" --lifted \
    --deltas "$TMP/deep-paren.deltas" --model "$TMP/flat.fm"
expect_parse_error deep-not delta-parse deep-not.deltas \
    "$LLHSC" check "$TMP/core.dts" --lifted \
    --deltas "$TMP/deep-not.deltas" --model "$TMP/flat.fm"
expect_parse_error deep-model fm-parse deep.fm \
    "$LLHSC" check "$TMP/core.dts" --lifted \
    --deltas "$TMP/flat.deltas" --model "$TMP/deep.fm"
expect_parse_error deep-model-products fm-parse deep.fm \
    "$LLHSC" products --model "$TMP/deep.fm"

# run_small_stack <command...>: runs the command with a 1 MiB stack.
run_small_stack() { (ulimit -s 1024 && exec "$@"); }

status=0
run_small_stack "$LLHSC" check "$TMP/core.dts" --schemas "$TMP/deep.yaml" \
    > "$TMP/deep-yaml.out" 2> "$TMP/deep-yaml.err" || status=$?
if [ "$status" -ne 2 ]; then
    echo "deep-yaml: llhsc check --schemas exited $status, want 2" >&2
    cat "$TMP/deep-yaml.err" >&2
    exit 1
fi
if [ "$(grep -cE "^$TMP/deep\.yaml:[0-9]+: error: \[yaml-parse\] .*nests deeper than" \
        "$TMP/deep-yaml.err")" -ne 1 ]; then
    echo "deep-yaml: want one located [yaml-parse] error" >&2
    cat "$TMP/deep-yaml.err" >&2
    exit 1
fi

# -- 2. in-process daemon --
SOCK="$TMP/d.sock"
# One subshell that execs the daemon, so $! is the daemon's pid.
(ulimit -s 1024 && exec "$LLHSCD" --socket "$SOCK" --jobs 2 \
    --log-file "$TMP/d.log") &
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

status=0
"$LLHSC" check "$TMP/core.dts" --schemas "$TMP/deep.yaml" --socket "$SOCK" \
    > "$TMP/deep-yaml.sock.out" 2> "$TMP/deep-yaml.sock.err" || status=$?
[ "$status" -eq 2 ] \
    || { echo "deep-yaml: daemon check exited $status, want 2" >&2; exit 1; }
cmp "$TMP/deep-yaml.err" "$TMP/deep-yaml.sock.err"
cmp "$TMP/deep-yaml.out" "$TMP/deep-yaml.sock.out"

python3 - "$SOCK" "$TMP" <<'PYEOF'
import json, socket, sys
sock, tmp = sys.argv[1], sys.argv[2]


def request(obj):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(30.0)
    s.connect(sock)
    s.sendall((json.dumps(obj) + "\n").encode())
    data = b""
    while b"\n" not in data:
        chunk = s.recv(1 << 20)
        if not chunk:
            sys.exit("daemon closed the connection on %s" % obj["method"])
        data += chunk
    return json.loads(data.split(b"\n", 1)[0])


def text(name):
    with open(tmp + "/" + name) as f:
        return f.read()


# Lifted sessions carry the delta and model texts on the wire; the reply
# must hold the CLI's error line and exit code 1.
for name, deltas, model in [("deep-paren", "deep-paren.deltas", "flat.fm"),
                            ("deep-not", "deep-not.deltas", "flat.fm"),
                            ("deep-model", "flat.deltas", "deep.fm")]:
    reply = request({"id": 1, "method": "session", "params": {
        "core_source": text("core.dts"), "core_name": tmp + "/core.dts",
        "deltas_source": text(deltas), "deltas_name": tmp + "/" + deltas,
        "model_source": text(model), "model_name": tmp + "/" + model,
        "check_lifted": True,
        "products": [{"name": "vm1", "features": ["a"]}]}})
    if not reply.get("ok"):
        sys.exit("%s: session failed: %r" % (name, reply))
    result = reply["result"]
    cli_line = text(name + ".err").splitlines()[0]
    if result["exit_code"] != 1 or cli_line not in result["stderr"]:
        sys.exit("%s: session reply %r lacks %r" % (name, result, cli_line))

reply = request({"id": 7, "method": "ping"})
if not (reply.get("ok") and reply["result"].get("pong")):
    sys.exit("bad ping reply: %r" % reply)
PYEOF

kill -TERM "$DAEMON_PID"
status=0
wait "$DAEMON_PID" || status=$?
DAEMON_PID=""
[ "$status" -eq 0 ] || { echo "daemon exited $status on SIGTERM" >&2; exit 1; }
echo "deep nesting: CLI and daemon report one located error per input"
