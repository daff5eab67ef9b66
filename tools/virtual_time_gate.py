#!/usr/bin/env python3
"""Exact virtual-time gate: rerun benches and diff them to the nanosecond.

Runs each given google-benchmark binary with --bench_json_dir=<scratch>
and compares the BENCH_<binary>.json it writes against the committed
file of the same name in <committed-dir>, with `bench_compare.py compare
--exact`: every baseline run must reproduce its virtual `real_time_s`
and every counter exactly, in either direction (host `cpu_time_s` is
ignored).  A refactor that drops or adds a charge, in any layer, fails
here even when it makes a run faster.

Usage: virtual_time_gate.py <committed-dir> <scratch-dir> <bench-binary>...
"""

import os
import subprocess
import sys


def main(argv):
    if len(argv) < 4:
        print(__doc__.strip().splitlines()[-1])
        return 2
    committed, scratch, binaries = argv[1], argv[2], argv[3:]
    os.makedirs(scratch, exist_ok=True)
    compare = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "bench_compare.py")
    failed = []
    for binary in binaries:
        name = os.path.basename(binary)
        run = subprocess.run([binary, f"--bench_json_dir={scratch}"],
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True)
        if run.returncode != 0:
            sys.stdout.write(run.stdout)
            print(f"FAIL: {name} exited {run.returncode}")
            failed.append(name)
            continue
        json_name = f"BENCH_{name}.json"
        print(f"== {json_name}")
        sys.stdout.flush()
        rc = subprocess.call([sys.executable, compare, "compare", "--exact",
                              os.path.join(committed, json_name),
                              os.path.join(scratch, json_name)])
        if rc != 0:
            failed.append(name)
    if failed:
        print(f"FAIL: virtual time differs from the committed baseline: "
              f"{', '.join(failed)}")
        return 1
    print("virtual time reproduces every committed baseline exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
