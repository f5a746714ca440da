#!/usr/bin/env bash
# "One driver" guard (ROADMAP aim 2): every paper claim runs through one
# policy family (tcp-core), one single-conflict kernel (run_synthetic) and
# one experiment table (`tcp <name>`, the serving sweeps included). Fails
# if crates/skirental exists, if crates/bench/src/bin holds anything but
# tcp.rs, or if `conflict_cost(` appears in non-test code (above a
# file's first `#[cfg(test)]`, outside tests/, comment lines ignored)
# beyond core/src/conflict.rs, workloads/src/synthetic.rs and
# analysis/src/{global_model,game_solver}.rs. Run from anywhere:
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

if [[ $fail -eq 0 ]]; then
    echo "check_one_driver: ok (no crates/skirental, one bin, conflict_cost only in the kernel's homes)"
fi
exit $fail
