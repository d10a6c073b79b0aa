#!/usr/bin/env python3
"""Same-host FairGen benchmark: build, run one workload, record the result.

Run from the repository root:

  python3 perfbench/run.py --workload fit --seed 1 --seconds 50 --trace 0
  python3 perfbench/run.py compare A.json B.json

A run configures and builds perfbench/ (which compiles the library from
src/) into $CARGO_TARGET_DIR, default .bench_build, runs the workload
once in one process and prints the benchmark binary's output; the last line is the
result object {"correct", "attempted", "failed", "metrics"}. The result and
the host fingerprint are also written to
.bench_results/<workload>-seed<seed>-trace<trace>.json.

`compare` prints the per-metric delta of two result files, or
"not comparable" when their host fingerprints differ (only git_rev may
differ) or they ran different workloads or modes.

Exit codes: 0 ran, 1 build or run failure, 2 bad arguments.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fit", "fit_serial", "release")
RUN_TIMEOUT_S = 170
# Fingerprint keys that must match for two results to be comparable.
HOST_KEYS = ("cpu_model", "nproc", "threads_resolved", "kernel_backend",
             "build_type", "compiler")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_run_args(argv):
    flags = {"--workload": None, "--seed": None, "--seconds": None,
             "--trace": None}
    i = 0
    while i < len(argv):
        arg = argv[i]
        key, eq, value = arg.partition("=")
        if key not in flags:
            fail("unknown argument " + arg, 2)
        if not eq:
            if i + 1 >= len(argv):
                fail("missing value for " + key, 2)
            i += 1
            value = argv[i]
        flags[key] = value
        i += 1
    missing = [k for k, v in flags.items() if v is None]
    if missing:
        fail("missing " + ", ".join(missing), 2)
    if flags["--workload"] not in WORKLOADS:
        fail("unknown workload " + repr(flags["--workload"]), 2)
    for key in ("--seed", "--seconds", "--trace"):
        if not re.fullmatch(r"[0-9]+", flags[key]):
            fail("bad %s %r (want a base-10 unsigned integer)"
                 % (key, flags[key]), 2)
    if flags["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1", 2)
    return flags


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def source_rev():
    """git rev of the checkout, or a content hash when it is no git tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no FairGen sources next to perfbench/ (src/CMakeLists.txt)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "fairgen_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "fairgen_perfbench")


def run(argv):
    flags = parse_run_args(argv)
    bdir = build_dir()
    exe = build(bdir)
    rev = source_rev()
    cmd = [exe, "--workload", flags["--workload"], "--seed", flags["--seed"],
           "--seconds", flags["--seconds"], "--trace", flags["--trace"],
           "--rev", rev, "--work-dir", bdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with %d" % proc.returncode, proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        fail("benchmark printed no result line")
    fingerprint = {}
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "%s-seed%s-trace%s.json" % (
        flags["--workload"], flags["--seed"], flags["--trace"]))
    with open(out_path, "w") as f:
        json.dump({"workload": flags["--workload"],
                   "seed": int(flags["--seed"]),
                   "seconds": int(flags["--seconds"]),
                   "trace": int(flags["--trace"]),
                   "fingerprint": fingerprint, "result": result}, f,
                  indent=1)
    print("perfbench: result written to " + os.path.relpath(out_path, ROOT),
          file=sys.stderr)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def compare(paths):
    if len(paths) != 2:
        fail("usage: run.py compare A.json B.json", 2)
    a, b = (json.load(open(p)) for p in paths)
    reasons = []
    for key in ("workload", "trace"):
        if a.get(key) != b.get(key):
            reasons.append("%s %r vs %r" % (key, a.get(key), b.get(key)))
    for key in HOST_KEYS:
        va, vb = a["fingerprint"].get(key), b["fingerprint"].get(key)
        if va != vb:
            reasons.append("%s %r vs %r" % (key, va, vb))
    if reasons:
        print("not comparable: " + "; ".join(reasons))
        return 0
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench):
        spec = json.load(open(bench))
        for m in spec.get("end_to_end", []):
            bounds[m["name"]] = (m["better"], m["bound"])
    print("%s, rev %s -> %s" % (a["workload"], a["fingerprint"].get("git_rev"),
                                b["fingerprint"].get("git_rev")))
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        if name not in mb:
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        delta = (vb - va) / va if va else float("nan")
        verdict = ""
        if name in bounds:
            better, bound = bounds[name]
            worse = delta if better == "lower" else -delta
            verdict = "WORSE than bound" if worse > bound else "within bound"
        print("  %-26s %14.6g %14.6g %+8.2f%% %s %s" % (
            name, va, vb, 100 * delta, ma[name]["unit"], verdict))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        return compare(sys.argv[2:])
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
