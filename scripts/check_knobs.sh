#!/usr/bin/env bash
# Knob-creep guard: every VIRTSIM_* environment variable src/ reads
# (a "VIRTSIM_..." literal passed to getenv, envPositiveCount or
# core/observe's envPath) must have a "* `VIRTSIM_<NAME>=" bullet in
# README.md's knob list. Prints each undocumented name and fails.
#
# Usage: scripts/check_knobs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# -z reads each file as one record, so a call split over two lines
# still matches.
knobs="$(grep -rhoPz \
             '(getenv|envPositiveCount|envPath)\(\s*"VIRTSIM_[A-Z0-9_]+"' \
             src | tr '\0' '\n' | grep -o 'VIRTSIM_[A-Z0-9_]*' |
             sort -u || true)"
if [[ -z "$knobs" ]]; then
    echo "check_knobs.sh: found no VIRTSIM_* read in src/" >&2
    exit 1
fi
missing=0
for knob in $knobs; do
    if ! grep -q "^\* \`$knob=" README.md; then
        echo "check_knobs.sh: $knob is read in src/ but has no" \
             "README.md knob-list entry" >&2
        missing=1
    fi
done
exit "$missing"
