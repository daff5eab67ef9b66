#!/usr/bin/env python3
"""Compare two machine-readable benchmark result files.

Every bench/ binary writes a BENCH_<name>.json file (schema 1, see
bench/obs_report.h) alongside its console output.  This tool either
validates one such file or diffs two of them:

    bench_compare.py validate BENCH_fig7_compile.json
    bench_compare.py compare baseline/BENCH_fig7_compile.json \
                             candidate/BENCH_fig7_compile.json

`compare` matches runs by name and reports the real-time delta for
each.  It exits non-zero if any shared run regressed by more than the
threshold (default 10%), making it usable as a CI gate:

    bench_compare.py compare --threshold 0.10 old.json new.json

Runs present in only one file are reported but never fail the gate
(benchmarks are added and retired across commits).

`--exact` is the refactoring oracle for virtual-time benches, whose
numbers are a pure function of the timing model: it fails on any
difference in `real_time_s` or in any counter, faster or slower, and on
a baseline run missing from the candidate.  Host CPU (`cpu_time_s`) is
ignored.

    bench_compare.py compare --exact old.json new.json
"""

import argparse
import json
import sys


def validate_timeline(path, name, tl):
    """Structurally validates one embedded telemetry timeline.

    Checks the invariants the C++ side guarantees by construction
    (src/obs/timeline.cc): window edges are monotone and contiguous,
    every utilization share is in [0, 1], and the per-window category
    nanoseconds sum exactly to the window's span.
    """
    where = f"{path}: timelines[{name!r}]"
    if not isinstance(tl, dict):
        raise ValueError(f"{where} must be an object")
    for key in ("window_ns", "start_ns", "end_ns", "tracks", "windows",
                "episodes"):
        if key not in tl:
            raise ValueError(f"{where} missing key {key!r}")
    windows = tl["windows"]
    if not isinstance(windows, list):
        raise ValueError(f"{where}.windows must be a list")
    prev_end = tl["start_ns"]
    for i, w in enumerate(windows):
        if w["begin_ns"] != prev_end:
            raise ValueError(
                f"{where}.windows[{i}]: begin {w['begin_ns']} != previous "
                f"end {prev_end} (windows must be contiguous)")
        if w["end_ns"] <= w["begin_ns"]:
            raise ValueError(
                f"{where}.windows[{i}]: empty or backwards window "
                f"[{w['begin_ns']}, {w['end_ns']})")
        prev_end = w["end_ns"]
        span = w["end_ns"] - w["begin_ns"]
        util_total = sum(w.get("util_ns", {}).values())
        if util_total != span:
            raise ValueError(
                f"{where}.windows[{i}]: util_ns sums to {util_total}, "
                f"span is {span}")
        for cat, share in w.get("util", {}).items():
            if not 0.0 <= share <= 1.0 + 1e-9:
                raise ValueError(
                    f"{where}.windows[{i}]: util share {cat}={share} "
                    f"outside [0, 1]")
    if windows and prev_end != tl["end_ns"]:
        raise ValueError(
            f"{where}: last window ends at {prev_end}, header says "
            f"{tl['end_ns']}")
    for i, ep in enumerate(tl["episodes"]):
        for key in ("kind", "begin_ns", "end_ns", "windows", "cause"):
            if key not in ep:
                raise ValueError(f"{where}.episodes[{i}] missing key {key!r}")
        if ep["end_ns"] <= ep["begin_ns"]:
            raise ValueError(f"{where}.episodes[{i}]: empty or backwards")


def load(path):
    """Parses and structurally validates one results file."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    for key in ("bench", "schema", "runs"):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    if doc["schema"] != 1:
        raise ValueError(f"{path}: unsupported schema {doc['schema']!r}")
    if not isinstance(doc["runs"], list):
        raise ValueError(f"{path}: 'runs' must be a list")
    seen = set()
    for i, run in enumerate(doc["runs"]):
        if not isinstance(run, dict):
            raise ValueError(f"{path}: runs[{i}] must be an object")
        for key, kind in (("name", str), ("real_time_s", (int, float)),
                          ("iterations", int), ("error", bool)):
            if key not in run:
                raise ValueError(f"{path}: runs[{i}] missing key {key!r}")
            if not isinstance(run[key], kind):
                raise ValueError(f"{path}: runs[{i}].{key} has wrong type")
        if run["real_time_s"] < 0:
            raise ValueError(f"{path}: runs[{i}].real_time_s is negative")
        if run["name"] in seen:
            raise ValueError(f"{path}: duplicate run name {run['name']!r}")
        seen.add(run["name"])
    timelines = doc.get("timelines", {})
    if not isinstance(timelines, dict):
        raise ValueError(f"{path}: 'timelines' must be an object")
    for name, tl in timelines.items():
        # Timeline keys are base run names (no /iterations... suffix).
        if not any(r == name or r.startswith(name + "/") for r in seen):
            raise ValueError(f"{path}: timeline {name!r} matches no run")
        validate_timeline(path, name, tl)
    return doc


def cmd_validate(args):
    ok = True
    for path in args.files:
        try:
            doc = load(path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"FAIL {path}: {e}")
            ok = False
            continue
        errored = [r["name"] for r in doc["runs"] if r["error"]]
        if errored:
            print(f"FAIL {path}: runs reported errors: {', '.join(errored)}")
            ok = False
            continue
        print(f"ok   {path}: bench={doc['bench']} runs={len(doc['runs'])}")
    return 0 if ok else 1


def exact_differences(b, c):
    """Every way run `c` differs from run `b`, ignoring cpu_time_s."""
    diffs = []
    if b["real_time_s"] != c["real_time_s"]:
        diffs.append(f"real_time_s {b['real_time_s']!r} -> {c['real_time_s']!r}")
    if b["error"] != c["error"]:
        diffs.append(f"error {b['error']!r} -> {c['error']!r}")
    bc, cc = b.get("counters", {}), c.get("counters", {})
    for key in sorted(bc.keys() | cc.keys()):
        if bc.get(key) != cc.get(key):
            diffs.append(f"counter {key} {bc.get(key)!r} -> {cc.get(key)!r}")
    return diffs


def cmd_compare_exact(base_runs, cand_runs):
    failures = []
    for name in sorted(base_runs.keys() | cand_runs.keys()):
        b, c = base_runs.get(name), cand_runs.get(name)
        if b is None:
            print(f"new      {name}")
            continue
        if c is None:
            print(f"MISSING  {name}")
            failures.append(name)
            continue
        diffs = exact_differences(b, c)
        if diffs:
            print(f"DIFFERS  {name}")
            for diff in diffs:
                print(f"           {diff}")
            failures.append(name)
        else:
            print(f"same     {name}")
    if failures:
        print(f"\n{len(failures)} run(s) differ from the baseline: {', '.join(failures)}")
        return 1
    print(f"\nall {len(base_runs)} baseline run(s) reproduced exactly")
    return 0


def cmd_compare(args):
    try:
        base = load(args.baseline)
        cand = load(args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}")
        return 2
    if base["bench"] != cand["bench"]:
        print(f"warning: comparing different benches "
              f"({base['bench']!r} vs {cand['bench']!r})")

    base_runs = {r["name"]: r for r in base["runs"]}
    cand_runs = {r["name"]: r for r in cand["runs"]}
    if args.exact:
        return cmd_compare_exact(base_runs, cand_runs)
    regressions = []
    width = max((len(n) for n in base_runs.keys() | cand_runs.keys()), default=4)

    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  delta")
    for name in sorted(base_runs.keys() | cand_runs.keys()):
        b, c = base_runs.get(name), cand_runs.get(name)
        if b is None:
            print(f"{name:<{width}}  {'-':>12}  {c['real_time_s']:>12.6g}  (new)")
            continue
        if c is None:
            print(f"{name:<{width}}  {b['real_time_s']:>12.6g}  {'-':>12}  (removed)")
            continue
        if b["error"] or c["error"]:
            print(f"{name:<{width}}  {'-':>12}  {'-':>12}  (errored)")
            continue
        if b["real_time_s"] == 0:
            delta_str = "n/a" if c["real_time_s"] == 0 else "+inf"
            regressed = c["real_time_s"] > 0
        else:
            ratio = c["real_time_s"] / b["real_time_s"] - 1.0
            delta_str = f"{ratio:+.1%}"
            regressed = ratio > args.threshold
        flag = "  REGRESSION" if regressed else ""
        print(f"{name:<{width}}  {b['real_time_s']:>12.6g}  "
              f"{c['real_time_s']:>12.6g}  {delta_str}{flag}")
        if regressed:
            regressions.append(name)

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
        return 1
    print("\nno regressions beyond threshold")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check file structure")
    p_validate.add_argument("files", nargs="+")
    p_validate.set_defaults(func=cmd_validate)

    p_compare = sub.add_parser("compare", help="diff two result files")
    p_compare.add_argument("--threshold", type=float, default=0.10,
                           help="max allowed real-time regression (default 0.10)")
    p_compare.add_argument("--exact", action="store_true",
                           help="fail on any real_time_s or counter difference "
                                "(ignores cpu_time_s and --threshold)")
    p_compare.add_argument("baseline")
    p_compare.add_argument("candidate")
    p_compare.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
