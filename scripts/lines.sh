#!/usr/bin/env bash
# Line ratchet. Prints the non-test Go lines of every package in the
# module, one "<lines> <dir>" per line: the count of
#   ls <dir>/*.go | grep -v _test.go | xargs cat | wc -l
# (benchmark/ is a module of its own and is not counted).
#
#   bash scripts/lines.sh          print the table (regenerate LINES)
#   bash scripts/lines.sh -check   fail if a package has more lines than
#                                  its LINES entry, or has no entry, or
#                                  DESIGN.md has more lines than the
#                                  "<lines> DESIGN.md" entry
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
	go list -f '{{.Dir}}' ./... | while read -r dir; do
		rel=$(realpath --relative-to=. "$dir")
		n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
		echo "$n $rel"
	done
}

if [ "${1:-}" != -check ]; then
	count
	exit 0
fi
status=0
while read -r n dir; do
	max=$(awk -v d="$dir" '$1 !~ /^#/ && $2 == d { print $1 }' LINES)
	if [ -z "$max" ]; then
		echo "$dir: $n non-test Go lines and no LINES entry" >&2
		status=1
	elif [ "$n" -gt "$max" ]; then
		echo "$dir: $n non-test Go lines, LINES allows $max" >&2
		status=1
	fi
done < <(count)
n=$(wc -l < DESIGN.md)
max=$(awk '$1 !~ /^#/ && $2 == "DESIGN.md" { print $1 }' LINES)
if [ -z "$max" ] || [ "$n" -gt "$max" ]; then
	echo "DESIGN.md: $n lines, LINES allows ${max:-none}" >&2
	status=1
fi
exit $status
