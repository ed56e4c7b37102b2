#!/usr/bin/env python3
"""Builds the NPB program with the benchmark driver and runs one workload.

    python3 perfbench/run.py --workload msg-shm-p2 --seed 1 --seconds 45 --trace 0

Run from the repository root.  The first call configures and builds into
.bench_build/perfbench (later calls rebuild only what changed).  The driver's
result object is the last line of stdout; the full result file, with every
sample and the host record, goes to .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("java-t2-ckpt", "msg-shm-p2")
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(env):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "npb_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path, 1)
    return os.path.join(BUILD, "npb_perfbench")


def cpu_ticks():
    """Steal ticks and total ticks from the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def loadavg():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_id():
    """Git sha when the tree is a git checkout, plus a digest of the sources
    the build compiles, which identifies the code in a plain checkout too."""
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.exists(os.path.join(ROOT, "src", "npb", "registry.hpp")):
        fail("no NPB sources next to %s; run from a full checkout" % HERE)

    os.makedirs(os.path.join(BUILD_ROOT, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
    driver = build(env)

    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD_ROOT, "tmp"))
    try:
        out_path = os.path.join(scratch, "result.json")
        steal0, total0 = cpu_ticks()
        load0 = loadavg()
        cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch, "--out", out_path]
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                               timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("driver did not finish in %d s" % DRIVER_TIMEOUT_S, 1)
        steal1, total1 = cpu_ticks()
        load1 = loadavg()
        sys.stderr.write(r.stderr)
        if r.returncode != 0 or not os.path.exists(out_path):
            fail("driver exited with %d" % r.returncode, 1)
        with open(out_path) as f:
            full = json.load(f)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    sha, digest = source_id()
    ref = full["detail"]["host_ref_s"]
    with open(os.path.join(BUILD, "build_info.json")) as f:
        build_info = json.load(f)
    full["host"] = dict(
        build_info,
        git_sha=sha,
        source_sha256=digest,
        nproc=os.cpu_count(),
        cpu_model=cpu_model(),
        steal_s=(steal1 - steal0) / os.sysconf("SC_CLK_TCK"),
        steal_frac=(steal1 - steal0) / max(1, total1 - total0),
        loadavg_1m_before=load0,
        loadavg_1m_delta=load1 - load0,
        ref_s=statistics.median(ref) if ref else None,
        ref_s_quartiles=statistics.quantiles(ref, n=4) if len(ref) > 1 else None,
    )
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed, args.trace,
                                         int(time.time()))
    with open(os.path.join(results, name), "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)
    print(r.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    main()
