#!/usr/bin/env bash
# "One yardstick" guard (ROADMAP aim 2): benchmark/ + BENCHMARK.json is the
# only thing in the repository that records or compares performance
# numbers; tcp-bench prints experiment tables to stdout and writes nothing
# but the Perfetto export behind --trace. Fails if
#   * a BENCH_*.json file is tracked (a committed single-run baseline),
#   * crates/*/benches or vendor/criterion exists (a third measurement path),
#   * `write_report(` or `bench_report(` appears in any tracked Rust, shell
#     or workflow file (the report-file writer crept back), or
#   * crates/bench/src creates a file anywhere but Json::write_file
#     (`File::create` / `fs::write` outside the one site in report.rs).
# Run from anywhere:
#
#   ./scripts/check_one_yardstick.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

baselines=$(git ls-files 'BENCH_*.json' '*/BENCH_*.json')
if [[ -n "$baselines" ]]; then
    echo "check_one_yardstick: committed single-run baselines (numbers over time live in benchmark/):"
    echo "$baselines"
    fail=1
fi

extra_paths=$(ls -d crates/*/benches vendor/criterion 2>/dev/null || true)
if [[ -n "$extra_paths" ]]; then
    echo "check_one_yardstick: a measurement path beside benchmark/:"
    echo "$extra_paths"
    fail=1
fi

report_writers=$(git ls-files '*.rs' '*.sh' '*.yml' | grep -v '^scripts/check_one_yardstick\.sh$' |
    xargs grep -nE '(write_report|bench_report)\(' || true)
if [[ -n "$report_writers" ]]; then
    echo "check_one_yardstick: report-file writers:"
    echo "$report_writers"
    fail=1
fi

file_writes=$(grep -rnE 'File::create|fs::write' crates/bench/src || true)
if [[ $(grep -c . <<<"$file_writes") -ne 1 || "$file_writes" != crates/bench/src/report.rs:* ]]; then
    echo "check_one_yardstick: expected exactly one file-creating call in crates/bench/src, in Json::write_file (report.rs); found:"
    echo "${file_writes:-  (none)}"
    fail=1
fi

if [[ $fail -eq 0 ]]; then
    echo "check_one_yardstick: ok (no BENCH_*.json, no benches/ or criterion, no report writer, one file-creating call)"
fi
exit $fail
