#!/usr/bin/env python3
"""Prometheus exposition lint for the urm metrics registry.

Validates a text-exposition dump (urm_server's `metrics` command or
--metrics-file output) against the format and the repo's naming
conventions (docs/OBSERVABILITY.md):

  * every series belongs to a family announced by # HELP and # TYPE;
  * family names start with `urm_` and use the Prometheus identifier
    charset; counter families end in `_total`;
  * no duplicate series (same name + label set twice);
  * histogram children are well-formed: cumulative non-decreasing
    `_bucket` counts with strictly increasing `le` bounds ending in
    `+Inf`, plus `_sum` and `_count` with count == the +Inf bucket;
  * sample values parse as finite numbers (counters non-negative).

With --require-request-kinds, additionally requires the per-kind
latency histogram urm_request_latency_seconds to carry a series for
every request kind (evaluate, top-k, set-op, threshold) — the CI smoke
run drives one request of each kind and then checks the dump covers
them.

With --require-storage, additionally requires every urm_storage_*
family of the columnar storage layer (docs/STORAGE.md) to expose at
least one series — catalog encoding footprint, per-codec column
counts, and the bytes-scanned / selection-scan counters — and every
urm_operator_store_* family of the o-sharing operator store, which
every QueryService owns.

With --require-ingest, additionally requires every urm_ingest_*
family of the live-update subsystem (docs/LIVE.md) to expose at least
one series — batch/row counters, the re-encode latency histogram, and
the fenced-entry counters. The CI smoke runs drive one ingest batch
before scraping.

Usage:
  metrics_lint.py <exposition-file> [--require-request-kinds]
                  [--require-storage] [--require-ingest]
  ... | metrics_lint.py -          # read stdin

Exit code 0 = clean, 1 = at least one violation (each printed as
`line N: message`).
"""

import math
import re
import sys

NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# One sample line: name{labels} value  (labels optional).
SERIES = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

REQUEST_KINDS = ("evaluate", "top-k", "set-op", "threshold")
LATENCY_FAMILY = "urm_request_latency_seconds"
STORAGE_FAMILIES = (
    "urm_storage_encoded_bytes",
    "urm_storage_logical_bytes",
    "urm_storage_encoded_relations",
    "urm_storage_columns",
    "urm_storage_bytes_scanned_total",
    "urm_storage_logical_bytes_scanned_total",
    "urm_storage_selection_scans_total",
    "urm_operator_store_hits_total",
    "urm_operator_store_misses_total",
    "urm_operator_store_evictions_total",
    "urm_operator_store_single_flight_waits_total",
    "urm_operator_store_bytes_reused_total",
    "urm_operator_store_epoch_fences_total",
    "urm_operator_store_entries",
    "urm_operator_store_bytes",
)
INGEST_FAMILIES = (
    "urm_ingest_batches_total",
    "urm_ingest_rows_total",
    "urm_ingest_reencode_seconds",
    "urm_ingest_fenced_entries_total",
)


def parse_value(text):
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        return None


def parse_labels(text):
    """`{a="x",b="y"}` -> dict; None on malformed label syntax."""
    if not text:
        return {}
    body = text[1:-1]
    labels = {}
    consumed = 0
    for match in LABEL.finditer(body):
        labels[match.group(1)] = match.group(2)
        consumed += len(match.group(0))
    # Account for separating commas between pairs.
    consumed += max(0, len(labels) - 1)
    if consumed != len(body):
        return None
    return labels


def base_family(name, families):
    """Maps histogram series suffixes back to their family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            candidate = name[: -len(suffix)]
            if families.get(candidate) == "histogram":
                return candidate
    return name


def lint(lines, require_request_kinds=False, require_storage=False,
         require_ingest=False):
    errors = []
    families = {}  # name -> type
    helped = set()
    seen_series = set()
    sampled_families = set()  # families with at least one series
    # histogram family -> label-set-key -> list of (le, cumulative)
    hist_buckets = {}
    hist_sum = {}
    hist_count = {}
    latency_kinds = set()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3].strip():
                errors.append(f"line {lineno}: HELP without text")
            elif parts[2] in helped:
                errors.append(f"line {lineno}: duplicate HELP for "
                              f"'{parts[2]}'")
            else:
                helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "untyped"):
                errors.append(f"line {lineno}: malformed TYPE line")
                continue
            name, mtype = parts[2], parts[3]
            if name in families:
                errors.append(f"line {lineno}: duplicate TYPE for "
                              f"'{name}'")
            if not NAME.match(name) or not name.startswith("urm_"):
                errors.append(f"line {lineno}: family '{name}' must "
                              "match the identifier charset and start "
                              "with 'urm_'")
            if mtype == "counter" and not name.endswith("_total"):
                errors.append(f"line {lineno}: counter family '{name}' "
                              "must end in '_total'")
            if name not in helped:
                errors.append(f"line {lineno}: TYPE for '{name}' "
                              "without a preceding HELP")
            families[name] = mtype
            continue
        if line.startswith("#"):
            continue

        match = SERIES.match(line)
        if not match:
            errors.append(f"line {lineno}: unparseable series line "
                          f"'{line}'")
            continue
        name, label_text, value_text = match.groups()
        labels = parse_labels(label_text or "")
        if labels is None:
            errors.append(f"line {lineno}: malformed labels in '{line}'")
            continue
        value = parse_value(value_text)
        if value is None or math.isnan(value):
            errors.append(f"line {lineno}: bad sample value "
                          f"'{value_text}'")
            continue

        family = base_family(name, families)
        if family not in families:
            errors.append(f"line {lineno}: series '{name}' has no "
                          "TYPE header")
            continue
        mtype = families[family]
        sampled_families.add(family)
        series_key = (name, tuple(sorted(labels.items())))
        if series_key in seen_series:
            errors.append(f"line {lineno}: duplicate series '{line}'")
        seen_series.add(series_key)

        if mtype == "counter" and value < 0:
            errors.append(f"line {lineno}: counter '{name}' is "
                          "negative")
        if mtype == "histogram":
            child_key = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"))
            if name.endswith("_bucket"):
                if "le" not in labels:
                    errors.append(f"line {lineno}: _bucket without an "
                                  "'le' label")
                    continue
                le = parse_value(labels["le"])
                if le is None:
                    errors.append(f"line {lineno}: bad le bound "
                                  f"'{labels['le']}'")
                    continue
                hist_buckets.setdefault(family, {}).setdefault(
                    child_key, []).append((lineno, le, value))
            elif name.endswith("_sum"):
                hist_sum.setdefault(family, {})[child_key] = value
            elif name.endswith("_count"):
                hist_count.setdefault(family, {})[child_key] = value
            else:
                errors.append(f"line {lineno}: histogram family "
                              f"'{family}' has a bare series '{name}'")
            if family == LATENCY_FAMILY and "kind" in labels:
                latency_kinds.add(labels["kind"])

    for family, children in hist_buckets.items():
        for child_key, buckets in children.items():
            label_str = "{" + ",".join(
                f'{k}="{v}"' for k, v in child_key) + "}"
            bounds = [b[1] for b in buckets]
            counts = [b[2] for b in buckets]
            first_line = buckets[0][0]
            if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
                errors.append(f"line {first_line}: {family}{label_str} "
                              "le bounds are not strictly increasing")
            if not bounds or not math.isinf(bounds[-1]):
                errors.append(f"line {first_line}: {family}{label_str} "
                              "buckets do not end in le=\"+Inf\"")
            if counts != sorted(counts):
                errors.append(f"line {first_line}: {family}{label_str} "
                              "cumulative bucket counts decrease")
            count = hist_count.get(family, {}).get(child_key)
            if count is None:
                errors.append(f"line {first_line}: {family}{label_str} "
                              "has no _count series")
            elif counts and counts[-1] != count:
                errors.append(f"line {first_line}: {family}{label_str} "
                              f"_count {count} != +Inf bucket "
                              f"{counts[-1]}")
            if hist_sum.get(family, {}).get(child_key) is None:
                errors.append(f"line {first_line}: {family}{label_str} "
                              "has no _sum series")

    if require_request_kinds:
        missing = [k for k in REQUEST_KINDS if k not in latency_kinds]
        if missing:
            errors.append(f"{LATENCY_FAMILY} is missing request "
                          f"kind(s): {', '.join(missing)}")

    if require_storage:
        missing = [f for f in STORAGE_FAMILIES if f not in sampled_families]
        if missing:
            errors.append("storage families missing from the scrape: "
                          f"{', '.join(missing)}")

    if require_ingest:
        missing = [f for f in INGEST_FAMILIES if f not in sampled_families]
        if missing:
            errors.append("ingest families missing from the scrape: "
                          f"{', '.join(missing)}")

    return errors


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    flags = set(argv[1:]) - set(args)
    unknown = flags - {"--require-request-kinds", "--require-storage",
                       "--require-ingest"}
    if unknown or len(args) != 1:
        print(__doc__)
        return 2
    if args[0] == "-":
        lines = sys.stdin.readlines()
    else:
        with open(args[0], encoding="utf-8") as f:
            lines = f.readlines()
    errors = lint(lines, "--require-request-kinds" in flags,
                  "--require-storage" in flags,
                  "--require-ingest" in flags)
    for error in errors:
        print(error)
    print(f"metrics-lint: {len(lines)} lines checked, "
          f"{len(errors)} violations")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
