#!/usr/bin/env bash
# "One ring" guard (ROADMAP aim 2): the bounded lock-free ring exists once,
# in crates/core/src/ring.rs, and the shard queues and the trace only use
# it. Fails if a slot cell (`UnsafeCell<MaybeUninit`) or any `unsafe`
# appears in crates/server/src or crates/core/src/trace.rs — a second copy
# of the slot protocol starts with one of those. Comment lines are ignored.
# Run from anywhere:
#
#   ./scripts/check_one_ring.sh
set -euo pipefail
cd "$(dirname "$0")/.."

copies=$(find crates/server/src crates/core/src/trace.rs -name '*.rs' -print0 |
    xargs -0 awk '!/^[[:space:]]*\/\// && /UnsafeCell<MaybeUninit|(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$copies" ]]; then
    echo "check_one_ring: slot cells or unsafe code outside tcp_core::ring:"
    echo "$copies"
    exit 1
fi
echo "check_one_ring: ok (no slot cell and no unsafe in crates/server/src or core/src/trace.rs)"
