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

# As expect, and stderr must contain the message too.
expect_stderr() {
  local want="$1" message="$2"
  shift 2
  "$@" >/dev/null 2>"$TMP/stderr"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: exit $got, want $want: $*"
    fail=1
  fi
  if ! grep -qF "$message" "$TMP/stderr"; then
    echo "FAIL: stderr lacks '$message': $*"
    cat "$TMP/stderr"
    fail=1
  fi
}

# As expect_stderr, and stderr must not contain `absent` either.
expect_stderr_without() {
  local absent="$1"
  shift
  expect_stderr "$@"
  if grep -qF "$absent" "$TMP/stderr"; then
    echo "FAIL: stderr names '$absent': ${*:3}"
    cat "$TMP/stderr"
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

# check --lifted refuses the flags it cannot honour -> 2: it prints text
# only, and it always runs locally.
LIFTED=("$DATA/custom-sbc.dts" --lifted --deltas "$DATA/custom-sbc.deltas"
        --model "$DATA/custom-sbc.fm")
expect 2 "$LLHSC" check "${LIFTED[@]}" --format json
expect 2 "$LLHSC" check "${LIFTED[@]}" --socket "$TMP/llhsc.sock"
expect 2 "$LLHSC" check "${LIFTED[@]}" --tcp 127.0.0.1:1
# ...while the plain lifted check of the clean running example -> 0.
expect 0 "$LLHSC" check "${LIFTED[@]}"

# A plain check's --tcp endpoint: a malformed or zero port is a usage
# error, named as such, and a refused connection says so -> 2 either way.
for endpoint in 127.0.0.1:1x 127.0.0.1: 127.0.0.1:0; do
  expect_stderr 2 "bad --tcp endpoint" "$LLHSC" check "$TMP/vm1.dts" \
      --tcp "$endpoint"
done
expect_stderr 2 "cannot connect to" "$LLHSC" check "$TMP/vm1.dts" \
    --tcp 127.0.0.1:1

# generate: a product that fdt emission rejects (a delta adds a reference
# no node resolves; generate runs no cross-reference stage) -> 1, with the
# emit diagnostic on stderr in the user's terms (the missing label, no
# internal function name), no "wrote" line and nothing written. A .dtb
# that cannot be written -> 2.
printf '/dts-v1/;\n/ { };\n' > "$TMP/gen-core.dts"
printf 'delta link {\n  modifies / { link = <&nowhere>; }\n}\n' \
    > "$TMP/gen-link.deltas"
printf 'delta plain {\n  modifies / { model = "plain"; }\n}\n' \
    > "$TMP/gen-plain.deltas"
mkdir -p "$TMP/gen"
GEN=(generate --core "$TMP/gen-core.dts" --features link,plain --out "$TMP/gen"
     --name p)
expect_stderr_without "resolve_references" 1 "fdt-emit" "$LLHSC" "${GEN[@]}" \
    --deltas "$TMP/gen-link.deltas"
if "$LLHSC" "${GEN[@]}" --deltas "$TMP/gen-link.deltas" 2>/dev/null \
    | grep -q '^wrote'; then
  echo "FAIL: generate printed a wrote line for a product emission rejected"
  fail=1
fi
if [ -e "$TMP/gen/p.dts" ] || [ -e "$TMP/gen/p.dtb" ]; then
  echo "FAIL: generate wrote output for a product emission rejected"
  fail=1
fi
mkdir -p "$TMP/gen/p.dtb"
expect_stderr 2 "cannot write $TMP/gen/p.dtb" "$LLHSC" "${GEN[@]}" \
    --deltas "$TMP/gen-plain.deltas"
rmdir "$TMP/gen/p.dtb"
expect 0 "$LLHSC" "${GEN[@]}" --deltas "$TMP/gen-plain.deltas"

# Unknown command -> 2.
expect 2 "$LLHSC" frobnicate

# Malformed numeric option -> 2.
expect 2 "$LLHSC" demo --jobs banana --out "$TMP"
expect 2 "$LLHSC" check "$TMP/vm1.dts" --solver-timeout-ms banana

# The retired --serve spelling (now --socket) is an unknown flag -> 2.
expect 2 "$LLHSC" check "$TMP/vm1.dts" --serve "$TMP/llhsc.sock"

exit $fail
