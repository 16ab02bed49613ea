#!/usr/bin/env python3
"""Builds and runs the real-clock serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload emb_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The first call configures and builds perfbench_serve (the repository's
libraries plus perfbench/serving_bench.cpp) under $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset. For one workload
the last stdout line is the benchmark's JSON result; the line before it is
the host and configuration fingerprint. --out saves both, and --compare
checks a result against a saved one, refusing when the host or the seed
differ.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("emb_cold", "mlp_dense", "tier_drift")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Fingerprint fields that must match before two results are compared.
SAME_HOST_AND_INPUT = ("nproc", "simd", "vnni", "l3_bytes", "cpu_model",
                       "workload", "seed", "seconds", "trace")


def fail(msg, code=2):
    print("error: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under %s/src; run from a full "
             "checkout" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = os.path.join(build_dir, "perfbench_serve")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_serve", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return binary


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def l3_bytes():
    size = read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if size and size[-1] in units:
        return int(size[:-1]) * units[size[-1]]
    return int(size) if size.isdigit() else 0


def cpu_model():
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return ""


def git_commit():
    """HEAD of the checkout, or None when ROOT is not a git work tree of
    its own (a repository further up does not count)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest():
    """sha256 over the library and benchmark sources, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("%s exited with %d" % (workload, done.returncode),
             done.returncode or 1)
    result = json.loads(lines[-1])
    host = {}
    if lines[0].startswith("host:"):
        host = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
    pins = [l.split() for l in lines if l.startswith("pins:")]
    fp = {
        "nproc": int(host.get("nproc", 0)),
        "simd": host.get("simd", ""),
        "vnni": host.get("vnni") == "1",
        "l3_bytes": l3_bytes(),
        "cpu_model": cpu_model(),
        "pins_ok": bool(pins) and pins[-1][3] == "0",
        "commit": git_commit(),
        "source_digest": source_digest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    return lines[:-1], fp, result


def compare(baseline_path, fp, result):
    with open(baseline_path) as f:
        base = json.load(f)
    diff = [k for k in SAME_HOST_AND_INPUT
            if base["fingerprint"].get(k) != fp.get(k)]
    if diff:
        fail("refusing to compare with %s: %s differ (%s)" % (
            baseline_path, ", ".join(diff),
            "; ".join("%s=%r vs %r" % (k, base["fingerprint"].get(k),
                                       fp.get(k)) for k in diff)), 4)
    for name, m in result["metrics"].items():
        old = base["result"]["metrics"].get(name)
        if old is None:
            continue
        rel = (m["value"] / old["value"] - 1.0) if old["value"] else 0.0
        print("compare %-32s %14.6g -> %14.6g %-10s (%+.1f%%)" % (
            name, old["value"], m["value"], m["unit"], 100.0 * rel))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="one of %s, or 'all'" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="save fingerprint and result as JSON")
    ap.add_argument("--compare", help="saved result to compare against")
    args = ap.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail("unknown workload %r" % args.workload)
    if args.workload == "all" and (args.out or args.compare):
        fail("--out and --compare take a single workload")

    binary = build()
    if args.workload == "all":
        for w in WORKLOADS:
            lines, fp, result = run_once(binary, w, args.seed,
                                           args.seconds, args.trace)
            print("\n".join(lines))
            print("== %s: correct=%s attempted=%d failed=%d" % (
                w, result["correct"], result["attempted"],
                result["failed"]))
            for name, m in result["metrics"].items():
                print("   %-32s %14.6g %s" % (name, m["value"], m["unit"]))
        return

    lines, fp, result = run_once(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    if args.compare:
        compare(args.compare, fp, result)
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"fingerprint": fp, "result": result, "log": lines},
                      f, indent=1)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
