#!/usr/bin/env python3
"""Fleet-simulator smoke gate: run, diff, and check the telemetry timeline.

Runs the BM_FleetSmoke_* and BM_FleetKnee_Smoke rows of the
fleet_scaling benchmark (small, deterministic fleet configurations over
the discrete-event core) into a scratch directory, then applies three
gates:

  1. Baseline diff.  Delegates to `bench_compare.py compare --exact` to
     diff the fresh BENCH_fleet_scaling.json against the committed
     baseline.  The rows report *virtual* time, which is a pure function
     of the timing model, so the comparison is exact: any delta in
     real_time_s or a counter, in either direction, means the event
     core, admission queue, or link model changed behaviour.  A
     deliberately retuned model refreshes the committed baseline.

  2. Timeline integration.  For every run with an embedded timeline
     (bench_compare.py load() already validated edges and utilization
     shares), the windowed ops-rate deltas must integrate back to the
     run's cumulative op counter within 1% — the windows partition the
     run, so any gap means the sampler lost or double-counted a window.

  3. Knee/episode cross-check.  Across the BM_FleetKnee_Smoke client
     sweep, the knee is the first row reaching 80% of the series-max
     throughput.  The overload annotator must agree with the knee it
     was not shown: rows strictly before the knee have no overload
     episodes, and the saturated last row has at least one.

Usage: fleet_smoke.py <fleet_scaling-binary> <baseline.json> <scratch-dir>
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def timeline_for(doc, run_name):
    """The timeline whose key is a prefix (base name) of `run_name`."""
    for key, tl in doc.get("timelines", {}).items():
        if run_name == key or run_name.startswith(key + "/"):
            return tl
    return None


def check_ops_integration(doc):
    """Gate 2: windowed ops deltas must sum to the cumulative counter."""
    failures = []
    checked = 0
    for run in doc["runs"]:
        tl = timeline_for(doc, run["name"])
        if tl is None:
            continue
        counters = dict(run.get("counters", {}))
        if "ops" not in counters:
            continue
        total = counters["ops"]
        windowed = sum(w["rates"].get("ops", {}).get("delta", 0)
                      for w in tl["windows"])
        checked += 1
        if abs(windowed - total) > 0.01 * max(total, 1):
            failures.append(
                f"{run['name']}: windowed ops sum {windowed} vs counter "
                f"{total} (>1% apart)")
        else:
            print(f"ok   ops integration: {run['name']}: "
                  f"{windowed} windowed == {total:g} cumulative")
    if checked == 0:
        failures.append("no run had both a timeline and an 'ops' counter")
    return failures


def check_knee_episodes(doc):
    """Gate 3: overload episodes only at/after the measured knee."""
    series = []  # (clients, run, timeline)
    for run in doc["runs"]:
        name = run["name"]
        if not name.startswith("BM_FleetKnee_Smoke/"):
            continue
        clients = int(name.split("/")[1])
        tl = timeline_for(doc, name)
        if tl is None:
            return [f"{name}: knee row has no timeline"]
        series.append((clients, run, tl))
    if len(series) < 3:
        return [f"knee series too short ({len(series)} rows); "
                "expected the BM_FleetKnee_Smoke client sweep"]
    series.sort()

    throughput = {c: dict(r.get("counters", {})).get("ops_per_sec", 0.0)
                  for c, r, _ in series}
    peak = max(throughput.values())
    knee = next(c for c, r, _ in series if throughput[c] >= 0.8 * peak)
    print(f"knee: clients={knee} "
          f"({throughput[knee]:.0f} of peak {peak:.0f} ops/s)")

    failures = []
    for clients, run, tl in series:
        overloads = [e for e in tl["episodes"] if e["kind"] == "overload"]
        if clients < knee and overloads:
            failures.append(
                f"{run['name']}: {len(overloads)} overload episode(s) "
                f"before the knee (clients={clients} < {knee}): "
                f"{overloads[0]['cause']}")
        else:
            print(f"ok   episodes: clients={clients}: "
                  f"{len(overloads)} overload "
                  f"({'at/after' if clients >= knee else 'before'} knee)")
    saturated_clients, saturated_run, saturated_tl = series[-1]
    if not any(e["kind"] == "overload" for e in saturated_tl["episodes"]):
        failures.append(
            f"{saturated_run['name']}: saturated row (clients="
            f"{saturated_clients}) reported no overload episode")
    return failures


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip().splitlines()[-1])
        return 2
    binary, baseline, scratch = argv[1], argv[2], argv[3]
    os.makedirs(scratch, exist_ok=True)
    run = subprocess.run(
        [
            binary,
            "--benchmark_filter=BM_FleetSmoke|BM_FleetKnee_Smoke",
            f"--bench_json_dir={scratch}",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        print(f"FAIL: {binary} exited {run.returncode}")
        return 1

    candidate = os.path.join(scratch, "BENCH_fleet_scaling.json")
    # Gate 1: exact baseline diff (also schema-validates both files,
    # including every embedded timeline's window/utilization invariants).
    compare = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "bench_compare.py")
    rc = subprocess.call([
        sys.executable, compare, "compare", "--exact", baseline, candidate,
    ])
    if rc != 0:
        return rc

    # Gates 2 and 3 on the fresh results.
    doc = bench_compare.load(candidate)
    failures = check_ops_integration(doc) + check_knee_episodes(doc)
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print("fleet smoke: all timeline gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
