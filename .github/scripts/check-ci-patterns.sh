#!/usr/bin/env bash
# Every `go test` step in ci.yml that selects tests with -run / -fuzz / -bench
# must still select something: a rename or a deletion otherwise leaves the
# step reporting `ok` while running nothing. Each `|` alternative of each
# regex is checked on its own against the step's packages' `go test -list`,
# listed once per package set and matched with grep -E: the same unanchored
# match -run makes against top-level names.
set -euo pipefail
cd "$(dirname "$0")/../.."
status=0
declare -A lists
while IFS= read -r line; do
  eval "set -- $line" # shell word splitting, so quoted regexes stay whole
  pkgs=() patterns=()
  while [ $# -gt 0 ]; do
    case "$1" in
      -run|-fuzz|-bench) [ "$2" = '^$' ] || patterns+=("$2"); shift ;;
      ./*) pkgs+=("$1") ;;
    esac
    shift
  done
  key="${pkgs[*]}"
  if [ -z "${lists[$key]+set}" ]; then
    # captured: grep -q on a pipe would SIGPIPE go test
    listed=$(go test -list '.*' "${pkgs[@]}")
    lists[$key]=$(grep -E '^(Test|Benchmark|Fuzz|Example)' <<<"$listed" || true)
  fi
  for pattern in "${patterns[@]}"; do
    IFS='|' read -ra alternatives <<<"$pattern"
    for alt in "${alternatives[@]}"; do
      if ! grep -qE -- "$alt" <<<"${lists[$key]}"; then
        echo "ci.yml: pattern '$alt' matches nothing in ${pkgs[*]}" >&2
        status=1
      fi
    done
  done
done < <(grep -E '^\s*(run: )?go test .*-(run|fuzz|bench) ' .github/workflows/ci.yml | sed -E 's/^\s*(run: )?//; s/ \| .*//')
exit $status
