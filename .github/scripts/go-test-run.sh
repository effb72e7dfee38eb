#!/usr/bin/env bash
# go-test-run.sh ARGS... runs `go test ARGS...` and fails when a -run
# pattern matched no test in one of the packages. go test then prints
# "no tests to run" for that package and still exits 0, so a renamed or
# deleted test would silently drop out of the step.
set -o pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test "$@" 2>&1 | tee "$out" || exit $?
if grep -q 'no tests to run' "$out"; then
	echo "go-test-run.sh: the -run pattern matched no test in a package above" >&2
	exit 1
fi
