#!/usr/bin/env bash
# "No allocation per simulated event" guard (ROADMAP aim 1): the HTM
# simulator's event loop and memory system run on dense ids, `u64` core
# masks and caller-owned buffers. Fails if the non-test code of
# crates/htm-sim/src/{sim,mem}.rs names a tree or SipHash map (`HashMap`,
# `BTreeMap`) or builds a fresh collection (`vec![`, `Vec::new()`,
# `.collect()`, `.clone()`) — a per-access, per-conflict or per-sweep
# allocation starts with one of those. Non-test code is everything above a
# file's first `#[cfg(test)]`; comment lines are ignored. What the patterns
# cannot see, crates/htm-sim/tests/alloc.rs counts. Run from anywhere:
#
#   ./scripts/check_sim_hot_path.sh
set -euo pipefail
cd "$(dirname "$0")/.."

hits=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*\/\// &&
        /HashMap|BTreeMap|vec!\[|Vec::new\(\)|\.collect\(\)|\.collect::<|\.clone\(\)/ {
        print FILENAME ":" FNR ": " $0
    }' crates/htm-sim/src/sim.rs crates/htm-sim/src/mem.rs)
if [[ -n "$hits" ]]; then
    echo "check_sim_hot_path: map types or fresh collections in the simulator's hot path:"
    echo "$hits"
    exit 1
fi
echo "check_sim_hot_path: ok (no map type and no fresh collection in htm-sim's sim.rs / mem.rs outside tests)"
