#!/usr/bin/env bash
# "One ring" guard (ROADMAP aim 2): the bounded lock-free ring exists once,
# in crates/core/src/ring.rs, and the shard queues and the trace only use
# it. Fails if
#   * a slot cell (`UnsafeCell<MaybeUninit`) or any `unsafe` appears in
#     crates/server/src or crates/core/src/trace.rs — a second copy of the
#     slot protocol starts with one of those, or
#   * ring.rs has other than exactly one `head` claim CAS, or no
#     `try_pop_batch` — a batch claims its whole run with that one CAS, and
#     `try_pop` is the run of one, or
#   * crates/server/src builds a batch out of single pops (`from_fn` over
#     `try_pop`) instead of claiming it.
# Comment lines are ignored. Run from anywhere:
#
#   ./scripts/check_one_ring.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ring=crates/core/src/ring.rs
fail=0

copies=$(find crates/server/src crates/core/src/trace.rs -name '*.rs' -print0 |
    xargs -0 awk '!/^[[:space:]]*\/\// && /UnsafeCell<MaybeUninit|(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$copies" ]]; then
    echo "check_one_ring: slot cells or unsafe code outside tcp_core::ring:"
    echo "$copies"
    fail=1
fi

claims=$(awk '!/^[[:space:]]*\/\// && /head\.compare_exchange/ { print FILENAME ":" FNR ": " $0 }' "$ring")
if [[ $(grep -c . <<<"$claims") -ne 1 ]] || ! grep -q 'pub fn try_pop_batch' "$ring"; then
    echo "check_one_ring: expected one head claim CAS in $ring, behind try_pop_batch; found:"
    echo "${claims:-  (none)}"
    fail=1
fi

single_pops=$(find crates/server/src -name '*.rs' -print0 |
    xargs -0 awk '!/^[[:space:]]*\/\// && /from_fn/ && /try_pop/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$single_pops" ]]; then
    echo "check_one_ring: a batch built from single pops (use Ring::try_pop_batch):"
    echo "$single_pops"
    fail=1
fi

if [[ $fail -eq 0 ]]; then
    echo "check_one_ring: ok (no slot cell and no unsafe in crates/server/src or core/src/trace.rs; one head claim CAS, shared by try_pop and try_pop_batch)"
fi
exit $fail
