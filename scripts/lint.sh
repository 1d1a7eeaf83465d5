#!/usr/bin/env bash
# Repo determinism lint — greppable invariants behind the bitwise-digest
# contract (see README "Correctness tooling").
#
# Checks (patterns in tools/lint/, allowlist in tools/lint/allowlist.txt):
#   nondet-seed   no std::random_device / srand / rand() / time(NULL)
#                 seeding anywhere — all randomness flows through the
#                 counter-based RNG streams (common/rng, fab::realization_rng)
#   raw-thread    no std::thread / std::jthread / std::async in src/ outside
#                 the allowlisted pool / serve / http owners — ad-hoc threads
#                 bypass the nesting-aware budget discipline of common/parallel
#   raw-print     no printf / cout / cerr logging in src/ — emission goes
#                 through common/log (line-atomic, level-gated); bench/cli
#                 JSON emitters live outside src/ by design
#   percentile    no nth_element / percentile reimplementations outside the
#                 owners — quantiles go through odonn::nearest_rank /
#                 percentile_nearest_rank so every subsystem agrees on
#                 boundary ranks to the bit
#   thread-count  no thread_count() in src/ outside the scheduler owners —
#                 slice layouts derived from the worker count break bitwise
#                 independence from ODONN_THREADS (use fixed-slice layouts
#                 like the trainer's kGradientSlices)
#   isa-target    no __attribute__((target...)), target_clones,
#                 #pragma GCC target|optimize, __builtin_cpu_supports or
#                 <immintrin.h> in src/ outside the one lane-kernel dispatch
#                 owner — ISA-specific code must live where tests run every
#                 variant against the scalar reference, and a stray target
#                 (FMA above all) would silently change result bits
#   lane-pack     no .execute_lanes( / ->execute_lanes( call in src/
#                 outside the fft::Frame owner — fields travel in row-lane
#                 frames, so a second lane-packed forward pass (samples side
#                 by side, its own propagation and readout) would be one more
#                 engine to keep bitwise equal to the frame runner
#
# Usage:
#   scripts/lint.sh              lint the tree (exit 1 on any violation)
#   scripts/lint.sh --self-test  prove each check still fires on the
#                                known-bad corpus (tools/lint/known-bad/),
#                                then lint the tree
#
# Line-level escape: a line ending in a `// lint:allow <check>` comment is
# skipped for that check (comments are stripped before matching, so the
# marker itself can never trip a pattern). File-level escape: one
# "<check> <path>" line in tools/lint/allowlist.txt WITH a justification
# comment above it.
set -u
cd "$(dirname "$0")/.."

ALLOWLIST=tools/lint/allowlist.txt
CORPUS=tools/lint/known-bad

CHECKS=(nondet-seed raw-thread raw-print percentile thread-count isa-target
        lane-pack)

pattern_for() {
  case "$1" in
    nondet-seed)
      echo 'std::random_device|(^|[^A-Za-z0-9_])srand[ \t]*\(|(^|[^A-Za-z0-9_])rand[ \t]*\([ \t]*\)|(^|[^A-Za-z0-9_:.>]|std::)time[ \t]*\([ \t]*(NULL|nullptr|0)[ \t]*\)' ;;
    raw-thread)
      echo 'std::thread([^A-Za-z0-9_]|$)|std::jthread|std::async[ \t]*\(' ;;
    raw-print)
      echo 'std::cout|std::cerr|(^|[^A-Za-z0-9_])(printf|fprintf|puts|putchar)[ \t]*\(' ;;
    percentile)
      echo 'nth_element|double[ \t]+percentile[ \t]*\(' ;;
    thread-count)
      echo '(^|[^A-Za-z0-9_:])thread_count[ \t]*\(' ;;
    isa-target)
      echo '__attribute__[ \t]*\(\([^)]*target|target_clones|#[ \t]*pragma[ \t]+GCC[ \t]+(target|optimize)|__builtin_cpu_supports|<immintrin\.h>' ;;
    lane-pack)
      echo '([.]|->)[ \t]*execute_lanes[ \t]*[(]' ;;
    *) echo "lint.sh: unknown check '$1'" >&2; exit 2 ;;
  esac
}

# Directories each check patrols. src/ is always in; seeding is banned
# everywhere (benches and tests must be deterministic too); the other
# checks stop at the src/ boundary where the allowlisted owners live
# (tests legitimately spawn raw threads, benches legitimately report
# thread_count() in their JSON records).
scope_for() {
  case "$1" in
    nondet-seed) echo "src bench cli tools examples tests" ;;
    *) echo "src" ;;
  esac
}

files_in_scope() {
  # shellcheck disable=SC2086
  find $1 \( -name '*.cpp' -o -name '*.hpp' -o -name '*.h' \) \
       -not -path 'tools/lint/*' | sort
}

allowlisted() {
  local check="$1" file="$2"
  [ -f "$ALLOWLIST" ] || return 1
  grep -Ev '^[ \t]*(#|$)' "$ALLOWLIST" |
    grep -Eq "^${check}[ \t]+${file}\$"
}

# scan_file <check> <file> — prints one line per violation, returns 1 if any.
scan_file() {
  local check="$1" file="$2"
  local pattern
  pattern="$(pattern_for "$check")"
  awk -v pat="$pattern" -v f="$file" -v chk="$check" '
    {
      line = $0
      # Drop line comments (incl. the lint:allow marker) and the contents
      # of string literals so documentation can mention banned names.
      if (line ~ ("// *lint:allow +" chk)) next
      sub(/\/\/.*/, "", line)
      gsub(/"[^"]*"/, "\"\"", line)
      if (line ~ pat) {
        printf "%s: %s:%d: %s\n", chk, f, FNR, $0
        bad = 1
      }
    }
    END { exit bad ? 1 : 0 }
  ' "$file"
}

lint_tree() {
  local failed=0 check file
  for check in "${CHECKS[@]}"; do
    while IFS= read -r file; do
      allowlisted "$check" "$file" && continue
      scan_file "$check" "$file" || failed=1
    done < <(files_in_scope "$(scope_for "$check")")
  done
  return "$failed"
}

# Every allowlist entry must name an existing file and a known check, so
# the list can never silently rot.
check_allowlist() {
  local failed=0 check file known
  while read -r check file; do
    [ -z "$check" ] && continue
    known=0
    for c in "${CHECKS[@]}"; do [ "$c" = "$check" ] && known=1; done
    if [ "$known" -eq 0 ]; then
      echo "allowlist: unknown check '$check'" >&2
      failed=1
    fi
    if [ ! -f "$file" ]; then
      echo "allowlist: stale entry, no such file: $file" >&2
      failed=1
    fi
  done < <(grep -Ev '^[ \t]*(#|$)' "$ALLOWLIST")
  return "$failed"
}

self_test() {
  # Each corpus file is named <check>__<slug>.cpp and MUST trip exactly the
  # check it is named for — proving the patterns still catch the failure
  # modes they were written against.
  local failed=0 path base check
  local found_any=0
  for path in "$CORPUS"/*.cpp; do
    [ -e "$path" ] || continue
    found_any=1
    base="$(basename "$path")"
    check="${base%%__*}"
    if scan_file "$check" "$path" > /dev/null; then
      echo "self-test: $path was NOT flagged by check '$check'" >&2
      failed=1
    else
      echo "self-test: $check correctly flags $base"
    fi
  done
  if [ "$found_any" -eq 0 ]; then
    echo "self-test: no corpus files under $CORPUS" >&2
    failed=1
  fi
  return "$failed"
}

status=0
if [ "${1:-}" = "--self-test" ]; then
  self_test || status=1
fi
check_allowlist || status=1
if lint_tree; then
  echo "lint: tree clean"
else
  status=1
fi
exit "$status"
