#!/bin/sh
# netlines.sh — net Go line delta between a base ref and the working tree.
#
# Usage: scripts/netlines.sh [BASE]    (BASE defaults to HEAD~1)
#
# Prints added, removed and net lines of Go source, with non-test files
# and _test.go files apart, from `git diff --numstat BASE` over the
# working tree. Untracked .go files that git does not ignore count as
# wholly added. This is a report for change descriptions, not a gate.

set -eu

cd "$(dirname "$0")/.."

base="${1:-HEAD~1}"
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
	echo "netlines: $base is not a commit" >&2
	exit 2
fi

{
	git diff --numstat --no-renames "$base" -- '*.go'
	git ls-files --others --exclude-standard -- '*.go' | while IFS= read -r f; do
		printf '%d\t0\t%s\n' "$(wc -l <"$f")" "$f"
	done
} | awk -F '\t' -v base="$base" '
	$1 != "-" {
		k = ($3 ~ /_test\.go$/) ? "test" : "non-test"
		add[k] += $1
		del[k] += $2
	}
	END {
		printf "Go lines, %s -> working tree\n", base
		printf "%-9s %8s %8s %8s\n", "", "added", "removed", "net"
		split("non-test test", kinds, " ")
		for (i = 1; i <= 2; i++) {
			k = kinds[i]
			printf "%-9s %8d %8d %8d\n", k, add[k], del[k], add[k] - del[k]
		}
	}'
