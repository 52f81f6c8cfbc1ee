#!/usr/bin/env python3
"""Regression gate for the pool bench JSONs (CI bench-smoke).

Usage: bench_gate.py <fresh_dir> <baseline_dir>

Reads the freshly generated BENCH_*.json records from <fresh_dir> and the
checked-in reference copies from <baseline_dir>, then enforces:

  * no record anywhere reports counters_match == false;
  * every `pool_scaling` record keeps sim_speedup >= p — the dense-matmul
    strip deal is embarrassingly parallel in the model, so anything below
    p is a scheduling regression, not noise;
  * every fresh file equals its checked-in copy: the same files, the same
    records in the same order, each with the same fields in the same
    order and the same values. Every field is a deterministic model
    quantity (simulated costs, counters, recovery tallies), so any
    difference is a behaviour change — regenerate the checked-in copies
    at TCU_BENCH_SCALE=tiny when the change is intended.

Exits nonzero with a ::error:: line per violation, each naming the file
and record that failed. The model costs are exact integers, so float
comparisons use a 1e-6 slack only to absorb the JSON's decimal
formatting.
"""

import json
import sys
from pathlib import Path

SLACK = 1e-6

# Fields every record must carry for the gate to reason about it.
REQUIRED_FIELDS = ("name", "p", "sim_speedup", "counters_match")


def load(path: Path):
    with open(path) as f:
        return json.load(f)


def describe(path: Path, rec) -> str:
    """Human-readable identity of one record for failure messages."""
    name = rec.get("name", "<unnamed>")
    p = rec.get("p", "?")
    return f"{path.name}: record name={name} p={p}"


def validated_records(path: Path, failures):
    """Return the records that carry every gated field; report the rest."""
    try:
        records = load(path)
    except (OSError, json.JSONDecodeError) as err:
        failures.append(f"{path.name}: unreadable ({err})")
        return []
    if not isinstance(records, list):
        failures.append(f"{path.name}: expected a JSON array of records")
        return []
    valid = []
    for rec in records:
        missing = [f for f in REQUIRED_FIELDS if f not in rec]
        if missing:
            failures.append(
                f"{describe(path, rec)} is missing required field(s) "
                f"{', '.join(missing)}")
            continue
        valid.append(rec)
    return valid


def values_equal(got, want) -> bool:
    """Exact equality, except numbers compare within SLACK (bools exact)."""
    if isinstance(got, bool) or isinstance(want, bool):
        return got is want
    if isinstance(got, (int, float)) and isinstance(want, (int, float)):
        return abs(got - want) <= SLACK
    return got == want


def compare_file(path: Path, fresh, baseline, failures):
    """Record-by-record, field-by-field equality with the checked-in copy."""
    if len(fresh) != len(baseline):
        failures.append(f"{path.name}: {len(fresh)} records, checked-in "
                        f"copy has {len(baseline)}")
    for got, want in zip(fresh, baseline):
        if (got["name"], got["p"]) != (want["name"], want["p"]):
            failures.append(f"{describe(path, got)}: checked-in copy has "
                            f"name={want['name']} p={want['p']} here")
            continue
        if list(got) != list(want):
            failures.append(f"{describe(path, got)}: fields {list(got)} "
                            f"differ from checked-in {list(want)}")
            continue
        for key, value in got.items():
            if not values_equal(value, want[key]):
                failures.append(f"{describe(path, got)}: {key} {value} "
                                f"differs from checked-in {want[key]}")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh_dir, base_dir = Path(sys.argv[1]), Path(sys.argv[2])
    failures = []

    fresh_files = {p.name: p for p in fresh_dir.glob("BENCH_*.json")}
    base_files = {p.name: p for p in base_dir.glob("BENCH_*.json")}
    if not fresh_files:
        failures.append(f"no BENCH_*.json found in {fresh_dir}")
    for name in sorted(base_files.keys() - fresh_files.keys()):
        failures.append(f"{name} missing from fresh run")
    for name in sorted(fresh_files.keys() - base_files.keys()):
        failures.append(f"{name} has no checked-in copy in {base_dir}")

    for name, path in sorted(fresh_files.items()):
        fresh = validated_records(path, failures)
        for rec in fresh:
            if rec["counters_match"] is False:
                failures.append(
                    f"{describe(path, rec)} reports counters_match == false")
        # Floor: pooled matmul must scale at least linearly in the model.
        if name == "BENCH_pool_scaling.json":
            for rec in fresh:
                if (rec["name"] == "pool_scaling" and
                        rec["sim_speedup"] < rec["p"] - SLACK):
                    failures.append(
                        f"{describe(path, rec)}: sim_speedup "
                        f"{rec['sim_speedup']} < p={rec['p']}")
        if name in base_files:
            compare_file(path, fresh,
                         validated_records(base_files[name], failures),
                         failures)

    for msg in failures:
        print(f"::error::{msg}")
    if not failures:
        print("bench gate: speedup floor holds, records match the "
              "checked-in copies")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
