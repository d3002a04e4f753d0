#!/usr/bin/env python3
"""In-repo perf-regression gate.

Compares freshly produced BENCH_*.json files against the committed
baselines in bench/history/ using the per-metric gates declared in
bench/history/gates.json, and exits non-zero when a gate fails — CI wires
this into the bench-smoke job so a perf regression fails the build.

Gate kinds (all declared in gates.json, nothing hard-coded here):

  equals            fresh value must equal the baseline value exactly
                    (machine-independent invariants: identical-output
                    flags, schema fields, counts)
  max_abs           fresh value must be <= the given absolute ceiling
  min_abs           fresh value must be >= the given absolute floor
  max_increase_pct  fresh <= baseline * (1 + pct/100)   (lower is better)
  max_decrease_pct  fresh >= baseline * (1 - pct/100)   (higher is better)

Metric paths are dotted, with [*] fanning out over a list; a wildcard
match is reduced with the gate's "aggregate" (mean, max, min; default
mean) before comparison, so runner-to-runner list-length drift cannot
break the gate.

Usage:
  python3 bench/check_regression.py --history bench/history --fresh .
  python3 bench/check_regression.py --self-test
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile


def resolve(data, path):
    """Returns the list of values matched by a dotted/[*] path."""
    values = [data]
    for part in path.split("."):
        next_values = []
        fan_out = part.endswith("[*]")
        key = part[:-3] if fan_out else part
        for value in values:
            if not isinstance(value, dict) or key not in value:
                raise KeyError(f"path {path!r}: missing key {key!r}")
            child = value[key]
            if fan_out:
                if not isinstance(child, list):
                    raise KeyError(f"path {path!r}: {key!r} is not a list")
                next_values.extend(child)
            else:
                next_values.append(child)
        values = next_values
    return values


def aggregate(values, how):
    if len(values) == 1:
        return values[0]
    numeric = [float(v) for v in values]
    if how == "max":
        return max(numeric)
    if how == "min":
        return min(numeric)
    return sum(numeric) / len(numeric)


def check_gate(gate, fresh_doc, baseline_doc):
    """Returns (ok, message) for one gate."""
    path = gate["path"]
    how = gate.get("aggregate", "mean")
    fresh = aggregate(resolve(fresh_doc, path), how)

    if "equals" in gate or gate.get("kind") == "equals":
        expected = gate.get("equals", None)
        if expected is None:
            expected = aggregate(resolve(baseline_doc, path), how)
        ok = fresh == expected
        return ok, f"{path}: {fresh!r} {'==' if ok else '!='} {expected!r}"

    fresh = float(fresh)
    if "max_abs" in gate:
        limit = float(gate["max_abs"])
        return fresh <= limit, f"{path}: {fresh:g} <= {limit:g} (absolute)"
    if "min_abs" in gate:
        limit = float(gate["min_abs"])
        return fresh >= limit, f"{path}: {fresh:g} >= {limit:g} (absolute)"

    base = float(aggregate(resolve(baseline_doc, path), how))
    if "max_increase_pct" in gate:
        pct = float(gate["max_increase_pct"])
        limit = base * (1.0 + pct / 100.0)
        return (
            fresh <= limit,
            f"{path}: {fresh:g} <= {limit:g} (baseline {base:g} +{pct:g}%)",
        )
    if "max_decrease_pct" in gate:
        pct = float(gate["max_decrease_pct"])
        limit = base * (1.0 - pct / 100.0)
        return (
            fresh >= limit,
            f"{path}: {fresh:g} >= {limit:g} (baseline {base:g} -{pct:g}%)",
        )
    raise ValueError(f"gate for {path!r} declares no known check")


def run(history_dir, fresh_dir, gates_path=None, require_fresh=True):
    """Returns (failures, checked).  Prints one line per gate."""
    if gates_path is None:
        gates_path = os.path.join(history_dir, "gates.json")
    with open(gates_path) as f:
        config = json.load(f)

    failures = 0
    checked = 0
    for entry in config["files"]:
        name = entry["name"]
        fresh_path = os.path.join(fresh_dir, name)
        baseline_path = os.path.join(history_dir, name)
        if not os.path.exists(fresh_path):
            if require_fresh:
                print(f"FAIL {name}: fresh file missing at {fresh_path}")
                failures += 1
            else:
                print(f"skip {name}: not produced by this run")
            continue
        if not os.path.exists(baseline_path):
            print(f"FAIL {name}: baseline missing at {baseline_path}")
            failures += 1
            continue
        with open(fresh_path) as f:
            fresh_doc = json.load(f)
        with open(baseline_path) as f:
            baseline_doc = json.load(f)
        for gate in entry["gates"]:
            try:
                ok, message = check_gate(gate, fresh_doc, baseline_doc)
            except (KeyError, ValueError, TypeError) as error:
                ok, message = False, f"{gate.get('path')}: {error}"
            checked += 1
            print(f"{'ok  ' if ok else 'FAIL'} {name} {message}")
            if not ok:
                failures += 1
    return failures, checked


def self_test():
    """Exercises every gate kind against synthetic documents."""
    baseline = {
        "scalar": 100.0,
        "flag": True,
        "runs": [{"t": 10.0}, {"t": 20.0}],
        "speedup": 2.0,
    }
    cases = [
        # (gate, fresh, expect_ok)
        ({"path": "scalar", "max_increase_pct": 50}, {"scalar": 149.0}, True),
        ({"path": "scalar", "max_increase_pct": 50}, {"scalar": 151.0}, False),
        ({"path": "speedup", "max_decrease_pct": 25}, {"speedup": 1.6}, True),
        ({"path": "speedup", "max_decrease_pct": 25}, {"speedup": 1.4}, False),
        ({"path": "flag", "equals": True}, {"flag": True}, True),
        ({"path": "flag", "equals": True}, {"flag": False}, False),
        ({"path": "scalar", "max_abs": 120}, {"scalar": 119.0}, True),
        ({"path": "scalar", "max_abs": 120}, {"scalar": 121.0}, False),
        ({"path": "speedup", "min_abs": 1.0}, {"speedup": 1.1}, True),
        ({"path": "speedup", "min_abs": 1.0}, {"speedup": 0.9}, False),
        (
            {"path": "runs[*].t", "max_increase_pct": 10},
            {"runs": [{"t": 11.0}, {"t": 21.0}]},
            True,
        ),
        (
            {"path": "runs[*].t", "max_increase_pct": 10, "aggregate": "max"},
            {"runs": [{"t": 5.0}, {"t": 23.0}]},
            False,
        ),
    ]
    for gate, fresh, expect_ok in cases:
        ok, message = check_gate(gate, fresh, baseline)
        status = "ok  " if ok == expect_ok else "FAIL"
        print(f"{status} self-test {message} (expected {expect_ok})")
        if ok != expect_ok:
            return 1
    # A missing path must report, not crash.
    ok, message = False, ""
    try:
        check_gate({"path": "absent", "max_abs": 1}, {"x": 1}, baseline)
    except KeyError as error:
        ok, message = True, str(error)
    print(f"{'ok  ' if ok else 'FAIL'} self-test missing path -> {message}")
    if not ok:
        return 1
    return self_test_missing_baseline()


def self_test_missing_baseline():
    """A fresh file without a committed baseline is a FAIL line, not a crash."""
    with tempfile.TemporaryDirectory() as tmp:
        history = os.path.join(tmp, "history")
        fresh = os.path.join(tmp, "fresh")
        os.makedirs(history)
        os.makedirs(fresh)
        with open(os.path.join(history, "gates.json"), "w") as f:
            json.dump({"files": [{"name": "BENCH_x.json",
                                  "gates": [{"path": "v", "max_abs": 1}]}]}, f)
        with open(os.path.join(fresh, "BENCH_x.json"), "w") as f:
            json.dump({"v": 0}, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            failures, _ = run(history, fresh)
    ok = failures == 1 and "FAIL BENCH_x.json: baseline missing" in out.getvalue()
    print(f"{'ok  ' if ok else 'FAIL'} self-test missing baseline -> "
          f"{out.getvalue().strip()}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--history", default="bench/history",
                        help="directory with committed baselines + gates.json")
    parser.add_argument("--fresh", default=".",
                        help="directory with freshly produced BENCH_*.json")
    parser.add_argument("--gates", default=None,
                        help="gates config (default: <history>/gates.json)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="skip files the fresh run did not produce")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in gate-kind tests and exit")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())

    failures, checked = run(args.history, args.fresh, args.gates,
                            require_fresh=not args.allow_missing)
    print(f"\n{checked} gates checked, {failures} failed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
