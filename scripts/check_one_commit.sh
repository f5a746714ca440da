#!/usr/bin/env bash
# "One commit" guard (ROADMAP aim 2, one commit pipeline): the per-tx
# commit and the group commit publish and release through the same code,
# and every request kind has one transaction body. Fails if, in the
# non-test code,
#   * crates/stm/src/runtime.rs has more than one `clock.fetch_add` (a
#     second clock bump), more than one `| PUBLISH_BIT` store (a second
#     publish loop) or more than one `.store(prev, ` (a second lock-restore
#     loop), or
#   * crates/server/src/executor.rs defines `speculate_request`,
#     `RespKind` or `finish_response` (a second copy of the request
#     bodies, for group members).
# Comment lines are ignored. Run from anywhere:
#
#   ./scripts/check_one_commit.sh
set -euo pipefail
cd "$(dirname "$0")/.."

runtime=crates/stm/src/runtime.rs
executor=crates/server/src/executor.rs
fail=0

# Lines of `$2` above its unit-test module matching `$1`, comments
# stripped, as `file:line: text`.
non_test() {
    awk -v pat="$1" '
        /^#\[cfg\(test\)\]$/ { held = $0; next }
        held != "" && /^mod tests/ { exit }
        held != "" { held = "" }
        !/^[[:space:]]*\/\// && $0 ~ pat { print FILENAME ":" FNR ": " $0 }
    ' "$2"
}

for pat in 'clock\.fetch_add' '\| PUBLISH_BIT' '\.store\(prev, '; do
    hits=$(non_test "$pat" "$runtime")
    if [[ $(grep -c . <<<"$hits") -gt 1 ]]; then
        echo "check_one_commit: more than one '$pat' in $runtime (one publish and one release for both commit paths):"
        echo "$hits"
        fail=1
    fi
done

copies=$(non_test '(fn speculate_request|enum RespKind|fn finish_response)[^A-Za-z0-9_]' "$executor")
if [[ -n "$copies" ]]; then
    echo "check_one_commit: a second request body for group members in $executor:"
    echo "$copies"
    fail=1
fi

if [[ $fail -eq 0 ]]; then
    echo "check_one_commit: ok (one clock bump, publish-flag store and lock restore; one body per request kind)"
fi
exit $fail
