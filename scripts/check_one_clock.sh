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
#     (a second tick source), or
#   * `Instant` appears in the body of the server's `spin_ns`
#     (crates/server/src/client.rs: in-transaction work and think time
#     spin on `clock::Stamp`), or
#   * `core::arch` / `std::arch` appears outside crates/core/src/clock.rs
#     and crates/core/src/pad.rs (hardware intrinsics live behind the tick
#     clock and `pad::prefetch`), or `_mm_prefetch` is called anywhere but
#     once, in pad.rs (a second prefetch site).
# Comment lines are ignored. Run from anywhere:
#
#   ./scripts/check_one_clock.sh
set -euo pipefail
cd "$(dirname "$0")/.."

runtime=crates/stm/src/runtime.rs
executor=crates/server/src/executor.rs
queue=crates/server/src/queue.rs
client=crates/server/src/client.rs
clock=crates/core/src/clock.rs
pad=crates/core/src/pad.rs
sources=(crates src tests examples benchmark/src)
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

tick_reads=$(find "${sources[@]}" -name '*.rs' -print0 |
    xargs -0 awk '!/^[[:space:]]*\/\// && /rdtsc/ { print FILENAME ":" FNR ": " $0 }')
if [[ $(grep -c . <<<"$tick_reads") -ne 1 || "$tick_reads" != "$clock":* ]]; then
    echo "check_one_clock: expected exactly one rdtsc call site, in $clock; found:"
    echo "${tick_reads:-  (none)}"
    fail=1
fi

spin_clock=$(awk '
    /^pub\(crate\) fn spin_ns\(/ { inside = 1 }
    inside && !/^[[:space:]]*\/\// && /Instant/ { print FILENAME ":" FNR ": " $0 }
    inside && /^\}/ { inside = 0 }
' "$client")
if ! grep -q '^pub(crate) fn spin_ns(' "$client" || [[ -n "$spin_clock" ]]; then
    echo "check_one_clock: spin_ns missing from $client, or spinning on Instant (use tcp_core::clock::Stamp):"
    echo "${spin_clock:-  (no spin_ns)}"
    fail=1
fi

arch=$(find "${sources[@]}" -name '*.rs' -not -path "$clock" -not -path "$pad" -print0 |
    xargs -0 awk '!/^[[:space:]]*\/\// && /(core|std)::arch/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$arch" ]]; then
    echo "check_one_clock: hardware intrinsics outside $clock and $pad:"
    echo "$arch"
    fail=1
fi

prefetches=$(find "${sources[@]}" -name '*.rs' -print0 |
    xargs -0 awk '!/^[[:space:]]*\/\// && /_mm_prefetch(::<[^>]*>)?\(/ { print FILENAME ":" FNR ": " $0 }')
if [[ $(grep -c . <<<"$prefetches") -ne 1 || "$prefetches" != "$pad":* ]]; then
    echo "check_one_clock: expected exactly one _mm_prefetch call site, in $pad; found:"
    echo "${prefetches:-  (none)}"
    fail=1
fi

if [[ $fail -eq 0 ]]; then
    echo "check_one_clock: ok (runtime.rs reads no wall clock; executor.rs, Envelope::new and spin_ns do no Instant math; one rdtsc and one _mm_prefetch call site; no arch intrinsics outside clock.rs and pad.rs)"
fi
exit $fail
