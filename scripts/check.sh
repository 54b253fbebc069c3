#!/usr/bin/env bash
# Repo verification: the tier-1 build+test pass, then a sanitizer
# pass of the test suite.
#
# Usage: scripts/check.sh [--with-tsan]
#
#   tier-1:  cmake + build + ctest in build/        (the seed gate),
#            no file under tests/ may be git-ignored, and every
#            VIRTSIM_* variable src/ reads is in README's knob list
#            (scripts/check_knobs.sh)
#   asan:    AddressSanitizer+UBSan ctest in build-asan/
#   ubsan:   standalone UndefinedBehaviorSanitizer in build-ubsan/ —
#            runs the trace/attribution tests (test_probe,
#            test_attrib), which shift and cast raw 24-byte records;
#            standalone UBSan catches what ASan's interceptors mask.
#   tsan:    (--with-tsan) ThreadSanitizer in build-tsan/ — runs the
#            suites that drive parallel sweeps, each a fork/join of
#            helper threads (test_sweep, test_testbed, test_figure,
#            test_attrib, test_microbench). Metrics counters are plain
#            integers, so this pass is what shows no world is shared
#            by threads.
set -euo pipefail
cd "$(dirname "$0")/.."

with_tsan=0
for arg in "$@"; do
    case "$arg" in
      --with-tsan) with_tsan=1 ;;
      *) echo "usage: scripts/check.sh [--with-tsan]" >&2; exit 2 ;;
    esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"
# A git-ignored file under tests/ never reaches a clone: a golden
# there passes here and is missing everywhere else.
ignored="$(git ls-files --others --ignored --exclude-standard -- tests/)"
if [[ -n "$ignored" ]]; then
    echo "check.sh: git ignores these test files:" >&2
    echo "$ignored" >&2
    exit 1
fi
scripts/check_knobs.sh

echo "== asan+ubsan: build + ctest =="
cmake -B build-asan -S . \
      -DVIRTSIM_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "$jobs"
# halt_on_error makes a UBSan report fail its test instead of
# scrolling past in the log (ASan reports are fatal by default).
UBSAN_OPTIONS=halt_on_error=1 ctest --test-dir build-asan \
    --output-on-failure -j "$jobs"

echo "== ubsan: build + trace/attribution tests =="
cmake -B build-ubsan -S . \
      -DVIRTSIM_SANITIZE=undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-ubsan -j "$jobs" \
      --target test_probe test_attrib
UBSAN_OPTIONS=halt_on_error=1 ctest --test-dir build-ubsan \
    --output-on-failure -j "$jobs" -R 'test_(probe|attrib)'

if [[ "$with_tsan" == 1 ]]; then
    echo "== tsan: build + ctest =="
    cmake -B build-tsan -S . \
          -DVIRTSIM_SANITIZE=thread \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build build-tsan -j "$jobs" \
          --target test_sweep test_testbed test_figure \
                   test_attrib test_microbench
    # Parallel sweeps are the one multithreaded part of the simulator;
    # force four jobs so the suites exercise them even on a single-core
    # host (TSan interleaves threads regardless of core count).
    VIRTSIM_JOBS=4 TSAN_OPTIONS=halt_on_error=1 \
        ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
        -R 'test_(sweep|testbed|figure|attrib|microbench)$'
fi

echo "check.sh: all passes OK"
