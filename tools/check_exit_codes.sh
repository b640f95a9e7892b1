#!/usr/bin/env bash
# Asserts the llhsc CLI exit-code contract (see README):
#   0 - success, warnings allowed
#   1 - error findings, or input rejected by a parser/checker
#   2 - usage or I/O errors
# Usage: check_exit_codes.sh <llhsc-binary> <examples-data-dir>
set -u

LLHSC="$1"
DATA="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fail=0

expect() {
  local want="$1"
  shift
  "$@" >/dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: exit $got, want $want: $*"
    fail=1
  fi
}

# A clean run produces checker-approved artifacts to reuse below.
expect 0 "$LLHSC" demo --out "$TMP"

# Success (the generated product is clean modulo warnings) -> 0.
expect 0 "$LLHSC" check "$TMP/vm1.dts"

# Error findings -> 1 (the d3 truncation regression input).
expect 1 "$LLHSC" check "$DATA/d3-truncation.dts"

# Unparseable input -> 1.
printf 'not a device tree' > "$TMP/junk.dts"
expect 1 "$LLHSC" check "$TMP/junk.dts"

# Missing file -> 2.
expect 2 "$LLHSC" check "$TMP/does-not-exist.dts"

# Missing required argument -> 2.
expect 2 "$LLHSC" check

# Unknown --format -> 2.
expect 2 "$LLHSC" check "$TMP/vm1.dts" --format yaml

# Unknown command -> 2.
expect 2 "$LLHSC" frobnicate

# Malformed numeric option -> 2.
expect 2 "$LLHSC" demo --jobs banana --out "$TMP"
expect 2 "$LLHSC" check "$TMP/vm1.dts" --solver-timeout-ms banana

# The retired --serve spelling (now --socket) is an unknown flag -> 2.
expect 2 "$LLHSC" check "$TMP/vm1.dts" --serve "$TMP/llhsc.sock"

exit $fail
