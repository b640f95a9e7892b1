#!/usr/bin/env bash
# Asserts the persistent query cache's warm-run guarantee at the CLI level:
# a second run against the same --cache-dir issues zero solver queries and
# produces byte-identical output — findings, witnesses and artifacts.
#
# Four scenarios:
#   1. `demo` twice into the same cache: the warm trace reports zero issued
#      queries, its syntactic rows zero solver checks (schema constraints
#      are cached like semantic obligations), and the artifact directories
#      diff clean.
#   2. `check` on the d3-truncation regression input (finding-rich, so real
#      queries are issued and cached cold): the warm --stats line shows
#      zero issued / nonzero cache hits, and the reports diff clean.
#   3. `check` on every .dts of the examples directory, cold then warm
#      against one cache: every warm --stats line shows zero issued.
#   4. scenario 2's cache with every entry's witness rewritten (non-hex,
#      overlong, empty): each entry is a miss, so the run's output, --stats
#      line and exit code equal the cold run's.
# Usage: check_warm_cache.sh <llhsc-binary> <examples-data-dir>
set -eu

LLHSC="$1"
DATA="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/cold" "$TMP/warm"

# -- scenario 1: demo rerun --
"$LLHSC" demo --out "$TMP/cold" --cache-dir "$TMP/qc-demo" \
    --trace-json "$TMP/cold-trace.json" > "$TMP/cold.out"
"$LLHSC" demo --out "$TMP/warm" --cache-dir "$TMP/qc-demo" \
    --trace-json "$TMP/warm-trace.json" > "$TMP/warm.out"

diff -r "$TMP/cold" "$TMP/warm"
sed "s|$TMP/cold|OUT|" "$TMP/cold.out" > "$TMP/cold.norm"
sed "s|$TMP/warm|OUT|" "$TMP/warm.out" > "$TMP/warm.norm"
diff "$TMP/cold.norm" "$TMP/warm.norm"
# No stage of the warm run issued a solver query.
if grep -E '"queries_issued": [1-9]' "$TMP/warm-trace.json"; then
    echo "warm demo rerun still issued solver queries" >&2
    exit 1
fi
# Every warm syntactic row was answered without the solver.
python3 - "$TMP/warm-trace.json" <<'PYEOF'
import json, sys
rows = [r for r in json.load(open(sys.argv[1]))["stages"]
        if r["stage"] == "syntactic"]
if not rows:
    sys.exit("warm demo trace has no syntactic rows")
busy = [r["unit"] for r in rows if r["solver_checks"] != 0]
if busy:
    sys.exit("warm syntactic rows still ran solver checks: %s" % busy)
PYEOF

# -- scenario 2: faulty input, so the cache actually carries verdicts --
run_check() {
    local out="$1" err="$2" status=0
    "$LLHSC" check "$DATA/d3-truncation.dts" --cache-dir "$TMP/qc-check" \
        --stats > "$out" 2> "$err" || status=$?
    # Error findings are expected: the exit contract says 1.
    [ "$status" -eq 1 ]
}
run_check "$TMP/check-cold.out" "$TMP/check-cold.err"
run_check "$TMP/check-warm.out" "$TMP/check-warm.err"

# Byte-identical findings (witness addresses included).
diff "$TMP/check-cold.out" "$TMP/check-warm.out"
# The cold run consulted the solver; the warm run was pure cache replay.
grep -q 'queries issued: 0,' "$TMP/check-warm.err"
! grep -q 'queries issued: 0,' "$TMP/check-cold.err"
grep -qE 'cache hits: [1-9]' "$TMP/check-warm.err"

# -- scenario 3: the whole example corpus --
for pass in cold warm; do
    for f in "$DATA"/*.dts; do
        status=0
        "$LLHSC" check "$f" --cache-dir "$TMP/qc-corpus" --stats \
            > /dev/null 2> "$TMP/corpus.err" || status=$?
        # Clean files exit 0, files with error findings 1.
        [ "$status" -le 1 ]
        if [ "$pass" = warm ] && ! grep -q 'queries issued: 0,' "$TMP/corpus.err"; then
            echo "warm check of $f still issued solver queries:" >&2
            cat "$TMP/corpus.err" >&2
            exit 1
        fi
    done
done

# -- scenario 4: corrupted entries are misses, never a crash --
for witness in zz 11111111111111111 ''; do
    rm -rf "$TMP/qc-bad"
    cp -r "$TMP/qc-check" "$TMP/qc-bad"
    for entry in "$TMP"/qc-bad/*/*.qc; do
        sed -i "1s/^\(llhsc-qc [0-9]* [a-z]*\) .*\$/\1 $witness/" "$entry"
    done
    status=0
    "$LLHSC" check "$DATA/d3-truncation.dts" --cache-dir "$TMP/qc-bad" \
        --stats > "$TMP/check-bad.out" 2> "$TMP/check-bad.err" || status=$?
    if [ "$status" -ne 1 ] ||
        ! cmp -s "$TMP/check-cold.out" "$TMP/check-bad.out" ||
        ! cmp -s "$TMP/check-cold.err" "$TMP/check-bad.err"; then
        echo "witness '$witness': exit $status, output differs from cold:" >&2
        cat "$TMP/check-bad.err" >&2
        exit 1
    fi
done
