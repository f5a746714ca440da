#!/usr/bin/env bash
# "One clock" guard (ROADMAP item 2): the STM runtime takes time from
# tcp_core::clock only, and that module holds the workspace's single raw
# counter read. Fails if
#   * `Instant::now` or `.elapsed()` appears in the non-test code of
#     crates/stm/src/runtime.rs (clock_gettime crept back into a
#     transaction), or
#   * `rdtsc` is called anywhere but once, in crates/core/src/clock.rs
#     (a second tick source).
# Comment lines are ignored. Run from anywhere:
#
#   ./scripts/check_one_clock.sh
set -euo pipefail
cd "$(dirname "$0")/.."

runtime=crates/stm/src/runtime.rs
clock=crates/core/src/clock.rs
fail=0

# Everything above the unit-test module, comments stripped.
wall_clock=$(awk '
    /^#\[cfg\(test\)\]$/ { held = $0; next }
    held != "" && /^mod tests/ { exit }
    held != "" { held = "" }
    !/^[[:space:]]*\/\// && /Instant::now|\.elapsed\(\)/ { print FILENAME ":" FNR ": " $0 }
' "$runtime")
if [[ -n "$wall_clock" ]]; then
    echo "check_one_clock: wall-clock reads in the STM runtime (use tcp_core::clock):"
    echo "$wall_clock"
    fail=1
fi

tick_reads=$(find crates src tests examples benchmark/src -name '*.rs' -print0 |
    xargs -0 awk '!/^[[:space:]]*\/\// && /rdtsc/ { print FILENAME ":" FNR ": " $0 }')
if [[ $(grep -c . <<<"$tick_reads") -ne 1 || "$tick_reads" != "$clock":* ]]; then
    echo "check_one_clock: expected exactly one rdtsc call site, in $clock; found:"
    echo "${tick_reads:-  (none)}"
    fail=1
fi

if [[ $fail -eq 0 ]]; then
    echo "check_one_clock: ok (runtime.rs reads no wall clock; one rdtsc call site)"
fi
exit $fail
