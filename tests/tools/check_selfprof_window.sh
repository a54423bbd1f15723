#!/usr/bin/env bash
# At one thread the host self-profile's categories partition its wall
# window exactly: host.total_ns == host.window_ns in the --metrics
# document (docs/observability.md, "Host self-profile"). A memo hit
# that re-charged a stored miss's host time would break the equality.
#
#   check_selfprof_window.sh <path-to-bench-binary>
set -u

bench="${1:?usage: check_selfprof_window.sh <bench-binary>}"
name="$(basename "$bench")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

"$bench" --quiet --selfprof --threads 1 --metrics="$tmp/m.json" \
    > /dev/null 2>&1 || fail "$name exited nonzero"
total="$(grep -o '"total_ns":[0-9]*' "$tmp/m.json" | cut -d: -f2)"
window="$(grep -o '"window_ns":[0-9]*' "$tmp/m.json" | cut -d: -f2)"
[ -n "$total" ] && [ -n "$window" ] || fail "no host section in $name"
[ "$total" -gt 0 ] || fail "$name charged no host time"
[ "$total" = "$window" ] \
    || fail "$name host.total_ns $total != host.window_ns $window"

echo "SELFPROF_WINDOW_OK $total ns"
