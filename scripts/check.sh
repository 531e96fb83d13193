#!/usr/bin/env bash
# One-command tier-1 verify: configure + build + ctest.
#
#   scripts/check.sh                 # plain build + full test suite
#   scripts/check.sh --tsan          # same, under ThreadSanitizer
#   scripts/check.sh --asan          # same, under Address+UndefinedBehavior
#                                    # Sanitizer; any UBSan report fails
#   PGASNB_BUILD_DIR=out scripts/check.sh   # custom build directory
#
# Extra arguments after the flags are forwarded to ctest, e.g.
#   scripts/check.sh -R epoch        # only the epoch-related tests
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${PGASNB_BUILD_DIR:-build}"
SANITIZE=""
SUFFIX=""
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --tsan) SANITIZE="thread" SUFFIX="thread" ;;
    --asan) SANITIZE="address,undefined" SUFFIX="asan" ;;
    *) ARGS+=("$arg") ;;
  esac
done

if [[ -n "$SUFFIX" ]]; then
  BUILD_DIR="${BUILD_DIR}-${SUFFIX}"
fi
# UBSan only logs by default; halting turns every report into a test failure.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

cmake -B "$BUILD_DIR" -S . -DPGASNB_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "${ARGS[@]+"${ARGS[@]}"}"
