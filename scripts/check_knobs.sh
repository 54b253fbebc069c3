#!/usr/bin/env bash
# Knob-creep guard, both ways: every VIRTSIM_* environment variable
# src/ reads (a "VIRTSIM_..." literal passed to getenv,
# envPositiveCount or core/observe's envPath) must have a
# "* `VIRTSIM_<NAME>=" bullet in README.md's knob list, and every such
# bullet must name a variable src/ still reads. Prints each
# undocumented or stale name and fails.
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
documented="$(grep -o '^\* `VIRTSIM_[A-Z0-9_]*=' README.md |
                  grep -o 'VIRTSIM_[A-Z0-9_]*' | sort -u || true)"
status=0
for knob in $knobs; do
    if ! grep -qx "$knob" <<<"$documented"; then
        echo "check_knobs.sh: $knob is read in src/ but has no" \
             "README.md knob-list entry" >&2
        status=1
    fi
done
for knob in $documented; do
    if ! grep -qx "$knob" <<<"$knobs"; then
        echo "check_knobs.sh: README.md lists $knob, which src/" \
             "no longer reads" >&2
        status=1
    fi
done
exit "$status"
