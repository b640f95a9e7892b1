#!/usr/bin/env bash
# Asserts that `llhsc check --lifted --profile` exports the family check's
# trace: the Chrome-trace file carries the lift.check_family and
# lift.obligations spans, and the --stats family line of the running
# example (custom-sbc) keeps its engine shape.
# Usage: check_lifted_profile.sh <llhsc-binary> <examples-data-dir>
set -eu

LLHSC="$1"
DATA="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$LLHSC" check "$DATA/custom-sbc.dts" --lifted \
    --deltas "$DATA/custom-sbc.deltas" --model "$DATA/custom-sbc.fm" \
    --stats --profile "$TMP/profile.json" > "$TMP/out" 2> "$TMP/err"

want='family: 1 components, 12 patterns, 12 slices, 0 obligations, 14 solver checks'
if ! grep -qxF "$want" "$TMP/err"; then
    echo "family line changed; want: $want" >&2
    cat "$TMP/err" >&2
    exit 1
fi
grep -q '"traceEvents"' "$TMP/profile.json"
for span in lift.check_family lift.obligations; do
    if ! grep -qE "\"name\": ?\"$span\"" "$TMP/profile.json"; then
        echo "profile has no $span span" >&2
        exit 1
    fi
done
