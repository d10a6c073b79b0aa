#!/usr/bin/env python3
"""Smoke tests of the FairGen benchmark binary at tiny sizes.

  python3 perfbench/smoke_test.py <fairgen_perfbench binary> <BENCHMARK.json>

Registered as the `perfbench_smoke` ctest of perfbench/CMakeLists.txt.
Checks that every workload, traced and untraced, exits 0 and ends with a
result line naming exactly the metrics BENCHMARK.json declares, each with
its declared unit, and that malformed numeric flags exit 2.
"""

import json
import math
import os
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BAD_NUMBERS = ["abc", "-1", "12x", "", "+3", " 4", "4 ", "0x10",
               "99999999999999999999999"]


def run(exe, args):
    return subprocess.run([exe] + args, capture_output=True, text=True,
                          timeout=600, cwd=os.path.dirname(exe))


def check_workload(exe, spec, workload, trace, errors):
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    proc = run(exe, ["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny"])
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        errors.append("%s: exit %d: %s" % (where, proc.returncode,
                                           proc.stderr[-500:]))
        return
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        errors.append("%s: result keys %s" % (where, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: outputs failed their checks" % where)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("%s: attempted %r" % (where, result["attempted"]))
    got = result["metrics"]
    if set(got) != set(want):
        errors.append("%s: metrics %s, want %s" % (
            where, sorted(set(got) ^ set(want)), "exactly BENCHMARK.json's"))
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append("%s: %s unit %r, want %r" % (where, name,
                                                       m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append("%s: %s value %r" % (where, name, v))
    if trace and "coverage:" not in proc.stdout:
        errors.append("%s: no layer table coverage row" % where)
    if not any(l.startswith("fingerprint {") for l in lines):
        errors.append("%s: no host fingerprint" % where)


def check_malformed(exe, errors):
    base = {"--workload": "fit", "--seed": "1", "--seconds": "1",
            "--trace": "0", "--threads": "1"}
    for flag in ("--seed", "--threads"):
        for bad in BAD_NUMBERS:
            args = []
            for k, v in base.items():
                args += [k, bad if k == flag else v]
            args.append("--tiny")
            proc = run(exe, args)
            if proc.returncode != 2 or proc.stdout.strip():
                errors.append("%s %r: exit %d (want 2, no result)" % (
                    flag, bad, proc.returncode))
    for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                  "--trace", "0"],
                 ["--workload", "fit", "--seed", "1"],
                 ["--workload", "fit", "--seed", "1", "--seconds", "1",
                  "--trace", "2"]):
        proc = run(exe, args)
        if proc.returncode != 2:
            errors.append("%s: exit %d, want 2" % (" ".join(args),
                                                   proc.returncode))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    exe = os.path.abspath(sys.argv[1])
    with open(sys.argv[2]) as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_workload(exe, spec, workload, trace, errors)
    check_malformed(exe, errors)
    for e in errors:
        print("FAIL " + e)
    print("perfbench smoke: %d failure(s)" % len(errors))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
