#!/usr/bin/env bash
# The span and counter names are a documented contract: every name a real
# run emits must appear, in backticks, in docs/observability.md. Runs
# `llhsc check --profile` on every examples/data/*.dts, `check --lifted`
# on the custom-sbc running example and `llhsc demo`, collects the "X"
# (span) and "C" (counter) event names of the Chrome-trace exports, and
# fails listing each name the doc omits.
# Usage: check_telemetry_names.sh <llhsc> <examples-data-dir> <observability.md>
set -eu

LLHSC="$1"
DATA="$2"
DOC="$3"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Findings make `check` exit 1; only a crash or a usage error is fatal.
run() {
    status=0
    "$@" > /dev/null 2> "$TMP/stderr" || status=$?
    if [ "$status" -gt 1 ]; then
        echo "exit $status: $*" >&2
        cat "$TMP/stderr" >&2
        exit 1
    fi
}

for dts in "$DATA"/*.dts; do
    run "$LLHSC" check "$dts" --profile "$TMP/check-$(basename "$dts").json"
done
run "$LLHSC" check "$DATA/custom-sbc.dts" --lifted \
    --deltas "$DATA/custom-sbc.deltas" --model "$DATA/custom-sbc.fm" \
    --profile "$TMP/lifted.json"
mkdir "$TMP/demo"
run "$LLHSC" demo --out "$TMP/demo" --profile "$TMP/demo.json"

python3 - "$DOC" "$TMP"/*.json <<'PYEOF'
import json, re, sys
with open(sys.argv[1]) as f:
    documented = set(re.findall(r"`([^`\s]+)`", f.read()))
emitted = {}
for path in sys.argv[2:]:
    with open(path) as f:
        for event in json.load(f)["traceEvents"]:
            if event["ph"] in ("X", "C"):
                emitted.setdefault((event["ph"], event["name"]), path)
missing = sorted(k for k in emitted if k[1] not in documented)
for ph, name in missing:
    kind = "span" if ph == "X" else "counter"
    print("undocumented %s '%s' (emitted in %s)" % (kind, name,
          emitted[(ph, name)].rsplit("/", 1)[-1]), file=sys.stderr)
if missing:
    sys.exit(1)
print("telemetry names: %d emitted, all documented" % len(emitted))
PYEOF
