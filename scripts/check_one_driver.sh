#!/usr/bin/env bash
# "One driver" guard (ROADMAP aim 2): every paper claim runs through one
# policy family (tcp-core), one single-conflict kernel (run_synthetic), one
# consultation (`ConflictArbiter`), one cost-vs-OPT tally (`RegretTally`)
# and one experiment table (`tcp <name>`, the serving sweeps included).
# Non-test code is everything above a file's first `#[cfg(test)]`, outside
# tests/, comment lines ignored. Fails if
#   - crates/skirental exists, or crates/bench/src/bin holds anything but
#     tcp.rs;
#   - non-test code calls `conflict_cost(` beyond core/src/conflict.rs,
#     workloads/src/synthetic.rs and analysis/src/{global_model,game_solver}.rs;
#   - non-test code in crates/*/src calls `.grace(` beyond
#     core/src/{engine,policy,randomized,profiler}.rs (the arbiter, the
#     trait's forwarding impls, and the policies that delegate);
#   - `WithBackoff`, `sweep_threads` or `SweepPoint` appears in any .rs file
#     or the README (a second §7 inflation, a second simulator sweep);
#   - `EngineStats` (its struct or an `impl EngineStats` block) declares
#     `total_cost` or `record_trial` (cost vs OPT is RegretTally's);
#   - `SimConfig` declares a `mode` or `mesh` field, the word `noc` or
#     `Mesh` appears under crates/, or crates/stm/src/throughput.rs calls
#     `Stm::new(` (the policy alone names the side that aborts, on every
#     substrate, and the simulator has one flat latency model).
# Run from anywhere:
#
#   ./scripts/check_one_driver.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

if [[ -e crates/skirental ]]; then
    echo "check_one_driver: crates/skirental exists (its strategies are tcp-core's RA policies)"
    fail=1
fi

bins=$(ls crates/bench/src/bin | LC_ALL=C sort | tr '\n' ' ')
if [[ "$bins" != "tcp.rs " ]]; then
    echo "check_one_driver: crates/bench/src/bin holds more than tcp.rs: $bins"
    fail=1
fi

kernels=$(find crates src examples -name '*.rs' -not -path '*/tests/*' |
    grep -vxE 'crates/(core/src/conflict|workloads/src/synthetic|analysis/src/(global_model|game_solver))\.rs' |
    xargs awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// && /conflict_cost\(/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$kernels" ]]; then
    echo "check_one_driver: a single-conflict cost loop beside run_synthetic:"
    echo "$kernels"
    fail=1
fi

consults=$(find crates/*/src -name '*.rs' |
    grep -vxE 'crates/core/src/(engine|policy|randomized|profiler)\.rs' |
    xargs awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// && /\.grace\(/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$consults" ]]; then
    echo "check_one_driver: a policy consulted beside ConflictArbiter:"
    echo "$consults"
    fail=1
fi

gone=$(grep -rnwE 'WithBackoff|sweep_threads|SweepPoint' --include='*.rs' \
    crates src examples tests README.md || true)
if [[ -n "$gone" ]]; then
    echo "check_one_driver: a second backoff wrapper or simulator sweep:"
    echo "$gone"
    fail=1
fi

tally=$(awk '
    /^pub struct EngineStats \{|^impl EngineStats \{/ { inside = 1 }
    inside && /total_cost|record_trial/ { print FILENAME ":" FNR ": " $0 }
    inside && /^\}/ { inside = 0 }' crates/core/src/engine.rs)
if [[ -n "$tally" ]]; then
    echo "check_one_driver: EngineStats keeps a cost-vs-OPT tally beside RegretTally:"
    echo "$tally"
    fail=1
fi

modes=$(awk '
    /^pub struct SimConfig \{/ { inside = 1 }
    inside && /^[[:space:]]*pub (mode|mesh):/ { print FILENAME ":" FNR ": " $0 }
    inside && /^\}/ { inside = 0 }' crates/htm-sim/src/config.rs
    grep -rnwE 'noc|Mesh' crates || true
    grep -nF 'Stm::new(' crates/stm/src/throughput.rs || true)
if [[ -n "$modes" ]]; then
    echo "check_one_driver: a resolution mode beside the policy's, or a second latency model:"
    echo "$modes"
    fail=1
fi

if [[ $fail -eq 0 ]]; then
    echo "check_one_driver: ok (no crates/skirental, one bin, conflict_cost only in the kernel's homes," \
        ".grace( only in the arbiter and the policies, no WithBackoff / sweep_threads / SweepPoint," \
        "no cost tally in EngineStats, the policy's mode on every substrate, one latency model)"
fi
exit $fail
