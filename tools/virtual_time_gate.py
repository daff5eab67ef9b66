#!/usr/bin/env python3
"""Exact virtual-time gate: rerun bench rows and diff them to the nanosecond.

`row` reruns one google-benchmark row (--benchmark_filter) with
--bench_json_dir=<scratch> and compares the BENCH_<binary>.json it writes
against that row of the committed file of the same name in
<committed-dir> as `bench_compare.py compare --exact` does: the row must
reproduce its virtual `real_time_s` and every counter exactly, in either
direction (host `cpu_time_s` is ignored).  A refactor that drops or adds
a charge, in any layer, fails here even when it makes a run faster.
Each row is its own ctest entry, so the rows run in parallel.

`coverage` checks that the gated rows (<bench>:<run name> pairs) name
every run of each listed bench's committed file exactly once and nothing
else, so a row dropped from (or added to) either side fails.

Usage: virtual_time_gate.py row <committed-dir> <scratch-dir> <bench-binary> <run-name>
       virtual_time_gate.py coverage <committed-dir> <bench>[,<bench>...] <bench>:<run-name>...
"""

import collections
import os
import re
import subprocess
import sys


sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def committed_runs(committed, bench):
    return bench_compare.load(os.path.join(committed, f"BENCH_{bench}.json"))


def gate_row(committed, scratch, binary, run_name):
    bench = os.path.basename(binary)
    rows = [r for r in committed_runs(committed, bench)["runs"] if r["name"] == run_name]
    if len(rows) != 1:
        print(f"FAIL: BENCH_{bench}.json has {len(rows)} runs named {run_name!r}")
        return 1
    os.makedirs(scratch, exist_ok=True)
    run = subprocess.run([binary, f"--benchmark_filter=^{re.escape(run_name)}$",
                          f"--bench_json_dir={scratch}"],
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        print(f"FAIL: {bench} exited {run.returncode}")
        return 1
    print(f"== BENCH_{bench}.json")
    candidate = bench_compare.load(os.path.join(scratch, f"BENCH_{bench}.json"))
    if bench_compare.cmd_compare_exact({run_name: rows[0]},
                                       {r["name"]: r for r in candidate["runs"]}) != 0:
        print(f"FAIL: virtual time differs from the committed baseline: {run_name}")
        return 1
    return 0


def check_coverage(committed, benches, gated):
    counts = collections.Counter(tuple(row.split(":", 1)) for row in gated)
    problems = []
    for (bench, run_name), n in sorted(counts.items()):
        if bench not in benches:
            problems.append(f"{bench}:{run_name} belongs to no listed bench")
        elif n != 1:
            problems.append(f"{bench}:{run_name} is gated {n} times")
    total = 0
    for bench in benches:
        names = [r["name"] for r in committed_runs(committed, bench)["runs"]]
        total += len(names)
        for run_name in names:
            if counts[(bench, run_name)] == 0:
                problems.append(f"{bench}:{run_name} is committed but not gated")
        for (gated_bench, run_name) in counts:
            if gated_bench == bench and run_name not in names:
                problems.append(f"{bench}:{run_name} is gated but not committed")
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print(f"every committed row of {', '.join(benches)} is gated exactly once "
          f"({total} rows)")
    return 0


def main(argv):
    if len(argv) == 6 and argv[1] == "row":
        return gate_row(*argv[2:])
    if len(argv) >= 5 and argv[1] == "coverage":
        return check_coverage(argv[2], argv[3].split(","), argv[4:])
    print("\n".join(__doc__.strip().splitlines()[-2:]))
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
