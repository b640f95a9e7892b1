#!/usr/bin/env bash
# Asserts that a product line with two unordered deltas writing one
# property reports exactly one `delta-order` warning on stderr, and still
# succeeds, both when `llhsc generate` derives a product and when
# `llhsc check --lifted` checks the family (docs/rules.md).
# Usage: check_delta_order.sh <llhsc-binary>
set -u

LLHSC="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fail=0

cat > "$TMP/core.dts" <<'DTS'
/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    dev@1000 { reg = <0x1000 0x100>; };
};
DTS
cat > "$TMP/line.deltas" <<'DELTAS'
delta first {
  modifies /dev@1000 { status = "okay"; }
}
delta second {
  modifies /dev@1000 { status = "disabled"; }
}
DELTAS
printf 'model T {\n    fa;\n}\n' > "$TMP/t.fm"

expect_one_warning() {
  local what="$1"
  shift
  "$@" > "$TMP/out" 2> "$TMP/err"
  local got=$?
  if [ "$got" -ne 0 ]; then
    echo "FAIL: $what exited $got, want 0"
    cat "$TMP/err"
    fail=1
  fi
  local n
  n=$(grep -c '\[delta-order\]' "$TMP/err")
  if [ "$n" -ne 1 ]; then
    echo "FAIL: $what printed $n delta-order warnings, want 1"
    cat "$TMP/err"
    fail=1
  fi
}

expect_one_warning generate "$LLHSC" generate --core "$TMP/core.dts" \
    --deltas "$TMP/line.deltas" --features fa --out "$TMP" --name p
expect_one_warning "check --lifted" "$LLHSC" check "$TMP/core.dts" --lifted \
    --deltas "$TMP/line.deltas" --model "$TMP/t.fm"

exit $fail
