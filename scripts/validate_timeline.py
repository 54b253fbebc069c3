#!/usr/bin/env python3
"""Validate exported VIRTSIM_TIMELINE JSON files.

Usage: scripts/validate_timeline.py FILE [FILE...]

Checks each file against the "virtsim-timeline-1" schema (required
keys, well-formed series and anomaly records, sample timestamps that
are non-negative multiples of period_cycles and strictly increase
within a series, so no series holds two samples at one instant) and —
unless --allow-anomalies is given — fails when
the watchdog recorded any anomaly. CI runs this over the paper-bench
timeline artifacts so a saturated LR file or a wedged VCPU in a
Table II / Table V configuration fails the build.

Exit status: 0 when every file validates, 1 otherwise.
"""

import argparse
import json
import sys

REQUIRED_TOP = [
    "schema", "period_cycles", "frequency_ghz", "ticks",
    "dropped_samples", "series", "anomaly_count", "anomalies",
    "anomalies_dropped",
]
REQUIRED_SERIES = ["name", "track", "kind", "samples"]
REQUIRED_ANOMALY = ["rule", "begin_cycles", "end_cycles", "peak"]


def validate(path, allow_anomalies):
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    for key in REQUIRED_TOP:
        if key not in doc:
            errors.append(f"{path}: missing top-level key '{key}'")
    if errors:
        return errors

    if doc["schema"] != "virtsim-timeline-1":
        errors.append(f"{path}: unknown schema '{doc['schema']}'")
    if doc["period_cycles"] < 1:
        errors.append(f"{path}: non-positive period_cycles")

    period = doc["period_cycles"]
    names = set()
    for s in doc["series"]:
        for key in REQUIRED_SERIES:
            if key not in s:
                errors.append(f"{path}: series missing '{key}'")
                break
        else:
            name = s["name"]
            if name in names:
                errors.append(f"{path}: duplicate series '{name}'")
            names.add(name)
            if s["kind"] not in ("gauge", "rate"):
                errors.append(
                    f"{path}: series '{name}' has bad kind "
                    f"'{s['kind']}'")
            prev = -1
            for sample in s["samples"]:
                if (not isinstance(sample, list) or
                        len(sample) != 2):
                    errors.append(
                        f"{path}: series '{name}' has a malformed "
                        "sample")
                    break
                when = sample[0]
                if when < 0 or when < prev:
                    errors.append(
                        f"{path}: series '{name}' timestamps not "
                        "monotone non-negative")
                    break
                if when == prev:
                    errors.append(
                        f"{path}: series '{name}' holds two samples "
                        f"at cycle {when}")
                    break
                if period >= 1 and when % period != 0:
                    errors.append(
                        f"{path}: series '{name}' sample at cycle "
                        f"{when} is off the {period}-cycle period")
                    break
                prev = when

    if doc["anomaly_count"] != len(doc["anomalies"]):
        errors.append(
            f"{path}: anomaly_count {doc['anomaly_count']} != "
            f"{len(doc['anomalies'])} records")
    for a in doc["anomalies"]:
        for key in REQUIRED_ANOMALY:
            if key not in a:
                errors.append(f"{path}: anomaly missing '{key}'")
                break

    if not allow_anomalies and doc["anomaly_count"] > 0:
        rules = sorted({a.get("rule", "?") for a in doc["anomalies"]})
        errors.append(
            f"{path}: watchdog recorded {doc['anomaly_count']} "
            f"anomalies (rules: {', '.join(rules)})")

    if not errors:
        nsamples = sum(len(s["samples"]) for s in doc["series"])
        print(f"{path}: OK ({len(doc['series'])} series, "
              f"{nsamples} samples, 0 anomalies)"
              if doc["anomaly_count"] == 0 else
              f"{path}: OK ({len(doc['series'])} series, "
              f"{nsamples} samples, "
              f"{doc['anomaly_count']} anomalies allowed)")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="+")
    ap.add_argument("--allow-anomalies", action="store_true",
                    help="validate the schema only; do not fail on "
                         "recorded watchdog anomalies")
    args = ap.parse_args()

    all_errors = []
    for path in args.files:
        all_errors.extend(validate(path, args.allow_anomalies))
    for e in all_errors:
        print(f"validate_timeline: {e}", file=sys.stderr)
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main())
