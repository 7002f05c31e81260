#!/usr/bin/env python3
"""Compare BENCH_<name>.json artifacts against checked-in baselines.

Throughput keys (anything ending in ``_per_sec``) must stay within a
relative tolerance of the baseline: a current value below
``baseline * (1 - tolerance)`` is a regression and fails the run. Values
above baseline never fail (faster is fine; use --update to ratchet).

Checksum keys (anything ending in ``_checksum``) pin bit-exact result
fronts. They are compared too, but a mismatch only warns by default:
checksums legitimately change when an algorithm's result stream changes
(e.g. an RNG scheme migration), and the determinism tests — not this
script — are the authority on reproducibility. Pass --strict-checksums to
turn mismatches into failures (useful on a fixed CI image where any drift
is suspicious).

Byte-count keys (anything ending in ``_bytes``) pin the size of an encoded
format, such as a snapshot file. A mismatch always warns, never fails: the
size legitimately changes with the format, and then the baseline needs the
new value.

Metadata keys (``meta_*``) are informational: a mismatch (different
compiler, ISA, build type...) prints a warning because throughput numbers
from different configurations are not comparable, but does not fail.

An artifact with no checked-in baseline is reported as "new bench, no
baseline" and skipped with exit 0 — baselines are only ever written under
an explicit --update, never as a side effect of a comparison run.

Usage:
  python3 bench/compare_bench.py [--baseline-dir bench/baselines]
      [--tolerance 0.15] [--strict-checksums] [--update] BENCH_foo.json ...

Exit status: 0 = all within tolerance, 1 = at least one regression (or
checksum mismatch under --strict-checksums), 2 = usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def compare_one(current_path: str, baseline_dir: str, tolerance: float,
                strict_checksums: bool, update: bool) -> int:
    """Returns the number of failures for one artifact."""
    current = load(current_path)
    name = current.get("bench", os.path.basename(current_path))
    baseline_path = os.path.join(baseline_dir, os.path.basename(current_path))

    if update:
        action = "updated" if os.path.exists(baseline_path) else "created"
        os.makedirs(baseline_dir, exist_ok=True)
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"[{name}] baseline {action}: {baseline_path}")
        return 0

    if not os.path.exists(baseline_path):
        # A bench with no checked-in baseline is new, not regressed: a CI
        # run on a branch that adds a bench must not invent a machine-local
        # baseline (or fail). Record one explicitly with --update.
        print(f"[{name}] warn: new bench, no baseline at {baseline_path} — "
              f"skipping (run with --update to record one)")
        return 0

    baseline = load(baseline_path)
    failures = 0

    for key in sorted(set(baseline) | set(current)):
        base_v = baseline.get(key)
        cur_v = current.get(key)
        if key.endswith("_per_sec"):
            if base_v is None or cur_v is None:
                print(f"[{name}] WARN {key}: missing on "
                      f"{'baseline' if base_v is None else 'current'} side")
                continue
            # Per-thread-count sweeps store lists; gate each entry against
            # its positional counterpart.
            base_list = base_v if isinstance(base_v, list) else [base_v]
            cur_list = cur_v if isinstance(cur_v, list) else [cur_v]
            if len(base_list) != len(cur_list):
                print(f"[{name}] WARN {key}: length changed "
                      f"({len(cur_list)} vs baseline {len(base_list)}) — skipping")
                continue
            for idx, (base_e, cur_e) in enumerate(zip(base_list, cur_list)):
                label = key if len(base_list) == 1 else f"{key}[{idx}]"
                floor = base_e * (1.0 - tolerance)
                ratio = cur_e / base_e if base_e > 0 else float("inf")
                verdict = "ok" if cur_e >= floor else "REGRESSION"
                print(f"[{name}] {verdict:>10} {label}: {cur_e:,.0f} vs baseline "
                      f"{base_e:,.0f} ({ratio:.2f}x, floor {floor:,.0f})")
                if cur_e < floor:
                    failures += 1
        elif key.endswith("_checksum"):
            if base_v != cur_v:
                tag = "CHECKSUM MISMATCH" if strict_checksums else "warn: checksum changed"
                print(f"[{name}] {tag} {key}: {cur_v} vs baseline {base_v}")
                if strict_checksums:
                    failures += 1
        elif key.endswith("_bytes"):
            if base_v != cur_v:
                print(f"[{name}] warn: byte count changed {key}: {cur_v} vs baseline {base_v}")
        elif key.startswith("meta_"):
            if base_v != cur_v:
                print(f"[{name}] warn: {key} differs (current {cur_v!r}, "
                      f"baseline {base_v!r}) — throughputs may not be comparable")
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", nargs="+", help="BENCH_<name>.json files to check")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative throughput drop (default 0.15)")
    parser.add_argument("--strict-checksums", action="store_true",
                        help="fail (not warn) on checksum mismatches")
    parser.add_argument("--update", action="store_true",
                        help="rewrite baselines from the current artifacts")
    args = parser.parse_args(argv)

    if not 0.0 <= args.tolerance < 1.0:
        print(f"tolerance must be in [0, 1), got {args.tolerance}", file=sys.stderr)
        return 2

    failures = 0
    for path in args.artifacts:
        try:
            failures += compare_one(path, args.baseline_dir, args.tolerance,
                                    args.strict_checksums, args.update)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error reading {path}: {err}", file=sys.stderr)
            return 2
    if failures:
        print(f"{failures} throughput regression(s) beyond "
              f"{args.tolerance:.0%} tolerance", file=sys.stderr)
        return 1
    print("all benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
