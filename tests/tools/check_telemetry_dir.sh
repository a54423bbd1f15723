#!/usr/bin/env bash
# The bench harness's flag contract (bench/bench_common.h):
# --telemetry-dir derives <dir>/<bench>.{trace,metrics}.json,
# --selfprof adds the "host" section, an unwritable --metrics path is
# a nonzero exit, and an unknown flag, a non-integer --threads or a
# non-numeric --timeline-interval is a usage error (exit 2). Takes any
# bench binary.
#
#   check_telemetry_dir.sh <path-to-bench-binary>
set -u

bench="${1:?usage: check_telemetry_dir.sh <bench-binary>}"
name="$(basename "$bench")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# 1. Derived telemetry paths.
"$bench" --quiet --telemetry-dir="$tmp" 2> /dev/null \
    || fail "$name exited nonzero with --telemetry-dir"
[ -s "$tmp/$name.metrics.json" ] || fail "derived metrics file missing"
[ -s "$tmp/$name.trace.json" ] || fail "derived trace file missing"
grep -q "vespera-metrics/v2" "$tmp/$name.metrics.json" \
    || fail "metrics doc is not vespera-metrics/v2"
grep -q '"traceEvents"' "$tmp/$name.trace.json" \
    || fail "trace doc has no traceEvents"

# 2. Explicit flags win over the derived paths.
"$bench" --quiet --telemetry-dir="$tmp" \
    --metrics="$tmp/explicit.json" 2> /dev/null \
    || fail "$name exited nonzero with explicit --metrics"
[ -s "$tmp/explicit.json" ] || fail "explicit metrics path ignored"

# 3. Export failure is a bench failure.
if "$bench" --quiet \
    --metrics="$tmp/no-such-dir/metrics.json" 2> /dev/null; then
    fail "unwritable --metrics path exited 0"
fi

# 4. --selfprof adds the "host" section to a derived metrics export.
mkdir "$tmp/selfprof"
"$bench" --quiet --selfprof --telemetry-dir="$tmp/selfprof" 2> /dev/null \
    || fail "$name exited nonzero with --selfprof --telemetry-dir"
grep -q '"host"' "$tmp/selfprof/$name.metrics.json" \
    || fail "missing host section under --selfprof"

# 5. Bad flags are usage errors that name the offending argument.
expect_usage_error() {
    local want="$1"
    shift
    local err rc
    err="$("$bench" --quiet "$@" 2>&1 > /dev/null)"
    rc=$?
    [ "$rc" -eq 2 ] || fail "$name $* exited $rc, want 2"
    [ "$err" = "$name: unknown flag '$want' (see --help)" ] \
        || fail "$name $* printed '$err'"
}
expect_usage_error --no-such-flag --no-such-flag
expect_usage_error --threads=many --threads=many
expect_usage_error "--threads 2x" --threads 2x
# A timeline interval must be a whole finite number >= 0: anything else
# would otherwise silently turn timelines off.
expect_usage_error --timeline-interval=abc --timeline-interval=abc
expect_usage_error --timeline-interval=0.5s --timeline-interval=0.5s
expect_usage_error --timeline-interval=-1 --timeline-interval=-1
expect_usage_error --timeline-interval= --timeline-interval=

echo "TELEMETRY_OK"
