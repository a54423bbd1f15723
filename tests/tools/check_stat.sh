#!/usr/bin/env bash
# Acceptance gate for vespera-stat (ISSUE PR 4): identical documents
# exit 0; a seeded 20% regression exits nonzero and names the
# offending counter; v1 attrib.* counters compare against v2
# attribution sections; thresholds and malformed input behave.
#
#   check_stat.sh <path-to-vespera-stat>
set -u

stat_bin="${1:?usage: check_stat.sh <vespera-stat>}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

cat > "$tmp/base.json" <<'EOF'
{
  "schema": "vespera-metrics/v2",
  "tool": "check_stat_fixture",
  "counters": {
    "hbm.stream_bytes": { "value": 6526600000 },
    "mme.ops": { "value": 2700 }
  },
  "rates": {
    "engine.tokens": { "count": 4096, "rate": 1850.5 }
  },
  "attribution": {
    "mme": { "compute": 0.6189, "memory_bw": 0.1182, "ops": 2700 }
  },
  "histograms": {
    "engine.ttft_seconds": { "count": 64, "mean": 0.21, "p50": 0.2,
                             "p90": 0.31, "p99": 0.42, "p999": 0.5 }
  }
}
EOF

# 1. Identical documents compare clean.
out="$("$stat_bin" --threshold=0.10 "$tmp/base.json" "$tmp/base.json")"
rc=$?
[ "$rc" -eq 0 ] || fail "identical docs exited $rc: $out"
echo "$out" | grep -q "^OK" || fail "identical docs not OK: $out"

# 2. Seeded 20% regression on one counter: nonzero exit, offender named.
sed 's/6526600000/7831920000/' "$tmp/base.json" > "$tmp/regressed.json"
out="$("$stat_bin" --threshold=0.10 "$tmp/base.json" "$tmp/regressed.json")"
rc=$?
[ "$rc" -eq 1 ] || fail "20% regression exited $rc (want 1): $out"
echo "$out" | grep -q "REGRESSION counters.hbm.stream_bytes" \
    || fail "offending counter not named: $out"

# 3. The same drift passes under a looser gate.
"$stat_bin" --threshold=0.30 "$tmp/base.json" "$tmp/regressed.json" \
    > /dev/null || fail "30% gate rejected a 20% change"

# 4. A per-prefix override tightens just that subsystem.
out="$("$stat_bin" --threshold=0.30 \
        --threshold=counters.hbm=0.05 \
        "$tmp/base.json" "$tmp/regressed.json")"
[ $? -eq 1 ] || fail "prefix override did not gate: $out"

# 5. --ignore excludes the offender entirely.
"$stat_bin" --threshold=0.10 --ignore=counters.hbm \
    "$tmp/base.json" "$tmp/regressed.json" > /dev/null \
    || fail "--ignore did not exclude the regression"

# 6. Regressions in either direction fail: a dropped counter is lost
#    coverage, not a win.
sed 's/6526600000/5221280000/' "$tmp/base.json" > "$tmp/dropped.json"
"$stat_bin" --threshold=0.10 "$tmp/base.json" "$tmp/dropped.json" \
    > /dev/null && fail "-20% drift passed the 10% gate"

# 7. A v1 document's attrib.* counters line up with the v2 attribution
#    section (baselines survive the schema bump).
cat > "$tmp/v1.json" <<'EOF'
{
  "schema": "vespera-metrics/v1",
  "tool": "check_stat_fixture",
  "counters": {
    "hbm.stream_bytes": { "value": 6526600000 },
    "mme.ops": { "value": 2700 },
    "attrib.mme.compute": { "value": 0.6189 },
    "attrib.mme.memory_bw": { "value": 0.1182 },
    "attrib.mme.ops": { "value": 2700 }
  },
  "rates": {
    "engine.tokens": { "count": 4096, "rate": 1850.5 }
  }
}
EOF
out="$("$stat_bin" --threshold=0.10 "$tmp/v1.json" "$tmp/base.json")"
rc=$?
[ "$rc" -eq 0 ] || fail "v1 vs v2 exited $rc: $out"
echo "$out" | grep -q "added .*histograms" \
    || fail "new v2 histograms should be informational: $out"

# 8. A missing metric in the candidate is a failure (REMOVED).
"$stat_bin" "$tmp/base.json" "$tmp/v1.json" > "$tmp/removed.out"
[ $? -eq 1 ] || fail "removed histograms section did not fail"
grep -q "REMOVED" "$tmp/removed.out" || fail "no REMOVED line"

# 9. --json report round-trips the verdict.
out="$("$stat_bin" --json "$tmp/base.json" "$tmp/regressed.json")"
echo "$out" | grep -q '"schema": "vespera-stat/v1"' || fail "json schema"
echo "$out" | grep -q '"pass": false' || fail "json pass flag"
echo "$out" | grep -q '"metric":"counters.hbm.stream_bytes"' \
    || fail "json offender"

# 10. Non-metrics input is a usage/document error (exit 2).
echo '{"schema": "something-else/v9"}' > "$tmp/alien.json"
"$stat_bin" "$tmp/alien.json" "$tmp/base.json" 2> /dev/null
[ $? -eq 2 ] || fail "alien schema not rejected with exit 2"
"$stat_bin" "$tmp/base.json" 2> /dev/null
[ $? -eq 2 ] || fail "missing operand not rejected with exit 2"

# 11. Documents of different schema families are a document error
#     (exit 2) naming both schemas, not a list of REMOVED keys.
cat > "$tmp/tune.json" <<'EOF'
{
  "schema": "vespera-lint-tune/v1",
  "kernels": [],
  "totals": { "kernels": 0 }
}
EOF
out="$("$stat_bin" "$tmp/base.json" "$tmp/tune.json" 2>&1)"
[ $? -eq 2 ] || fail "metrics vs lint-tune not rejected with exit 2: $out"
echo "$out" | grep -q "vespera-metrics/v2.*vespera-lint-tune/v1" \
    || fail "schema mismatch does not name both schemas: $out"

echo "STAT_OK"
