#!/usr/bin/env bash
# Fails when a test pattern in the CI workflow names no test.
#
# `go test -run 'TestA|TestB'` passes when TestB matches nothing, so a
# renamed or deleted test would leave its CI step green without running it.
# For every `go test` line of the workflow, this splits each -run and -fuzz
# pattern into its alternatives and checks each one against
# `go test -list '.*'` over that line's packages. `^$` (run nothing) is
# skipped.
#
# Usage: bash .github/check-test-names.sh [workflow.yml]
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
status=0

while IFS= read -r line; do
	line=${line#*run:}
	read -ra words <<<"$line"
	patterns=()
	pkgs=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		case ${words[i]} in
		-run | -fuzz)
			i=$((i + 1))
			patterns+=("${words[i]//\'/}")
			;;
		. | ./*) pkgs+=("${words[i]}") ;;
		esac
	done
	[ ${#patterns[@]} -gt 0 ] || continue
	names=$(go test -list '.*' "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
	for pattern in "${patterns[@]}"; do
		IFS='|' read -ra alts <<<"$pattern"
		for alt in "${alts[@]}"; do
			[ "$alt" = '^$' ] && continue
			if ! grep -qE -- "$alt" <<<"$names"; then
				echo "$workflow: '$alt' matches no test in ${pkgs[*]}"
				status=1
			fi
		done
	done
done < <(grep -E '^[[:space:]]*(run:)?[[:space:]]*go test ' "$workflow")

exit $status
