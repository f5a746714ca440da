#!/usr/bin/env bash
# "One clock" guard (ROADMAP item 2): the STM runtime and the executor's
# per-envelope bookkeeping take time from tcp_core::clock only, and that
# module holds the workspace's single raw counter read. Fails if
#   * `Instant::now` or `.elapsed()` appears in the non-test code of
#     crates/stm/src/runtime.rs (clock_gettime crept back into a
#     transaction), or
#   * `Instant::now` or `saturating_duration_since` appears in the non-test
#     code of crates/server/src/executor.rs or in `Envelope::new`
#     (crates/server/src/queue.rs) — queue wait, service, sojourn and the
#     interval bucket are tick differences of `clock::Stamp`s, or
#   * `rdtsc` is called anywhere but once, in crates/core/src/clock.rs
#     (a second tick source).
# Comment lines are ignored. Run from anywhere:
#
#   ./scripts/check_one_clock.sh
set -euo pipefail
cd "$(dirname "$0")/.."

runtime=crates/stm/src/runtime.rs
executor=crates/server/src/executor.rs
queue=crates/server/src/queue.rs
clock=crates/core/src/clock.rs
fail=0

# Lines of the file(s) above the unit-test module matching the regex $1,
# comments stripped.
non_test() {
    local pattern=$1
    shift
    awk -v pattern="$pattern" '
        FNR == 1 { held = ""; done = 0 }
        done { next }
        /^#\[cfg\(test\)\]$/ { held = $0; next }
        held != "" && /^mod tests/ { done = 1; next }
        held != "" { held = "" }
        !/^[[:space:]]*\/\// && $0 ~ pattern { print FILENAME ":" FNR ": " $0 }
    ' "$@"
}

wall_clock=$(non_test 'Instant::now|\.elapsed\(\)' "$runtime")
if [[ -n "$wall_clock" ]]; then
    echo "check_one_clock: wall-clock reads in the STM runtime (use tcp_core::clock):"
    echo "$wall_clock"
    fail=1
fi

envelope_clock=$(
    non_test 'Instant::now|saturating_duration_since' "$executor"
    # The body of `impl Envelope`, up to its closing brace.
    awk '
        /^impl Envelope \{/ { inside = 1 }
        inside && !/^[[:space:]]*\/\// && /Instant::now|saturating_duration_since/ {
            print FILENAME ":" FNR ": " $0
        }
        inside && /^\}/ { inside = 0 }
    ' "$queue"
)
if [[ -n "$envelope_clock" ]]; then
    echo "check_one_clock: Instant math on the per-envelope path (use tcp_core::clock::Stamp):"
    echo "$envelope_clock"
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
    echo "check_one_clock: ok (runtime.rs reads no wall clock; executor.rs and Envelope::new do no Instant math; one rdtsc call site)"
fi
exit $fail
