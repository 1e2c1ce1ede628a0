#!/usr/bin/env python3
"""perfbench: the LearnedWMP repository's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload wire_recurring --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest          # the benchmark's own tests

Builds the library, wmpctl and the load generator from source into
.bench_build/ (Release), runs one workload with scratch files under
.bench_work/, and relays the load generator's stdout, whose last line is
the JSON result. The human report goes to stderr. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
WORK = ".bench_work"
WORKLOADS = ("wire_recurring", "wire_novel", "retrain")
# A run must finish within 180 s; leave room for the build check and
# clean-up around the load generator.
RUN_TIMEOUT_S = 165


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures once, then builds `targets`; True on success."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_rev():
    """git sha when the checkout is a git work tree, else a digest of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        for dirpath, _, files in os.walk(top):
            paths.extend(os.path.join(dirpath, f) for f in files)
    for path in sorted(paths):
        if os.path.isfile(path):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def stop_group(pgid):
    """SIGKILLs whatever is left of the load generator's process group and
    waits (bounded) until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_workload(args):
    if not build(["wmpctl", "wmpbench"]):
        log("perfbench: build failed")
        return 1
    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(BUILD, "wmpbench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace,
           "--wmpctl=" + os.path.join(BUILD, "wmp", "wmpctl"),
           "--workdir=" + workdir,
           "--source-rev=" + source_rev()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s; stopping it" % RUN_TIMEOUT_S)
        stop_group(proc.pid)
        proc.communicate()
        return 1
    finally:
        stop_group(proc.pid)
    spans = os.path.join(workdir, "spans.jsonl")
    if os.path.exists(spans):
        keep = os.path.join(WORK, "%s-seed%d.spans.jsonl" %
                            (args.workload, args.seed))
        os.replace(spans, keep)
    shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


def selftest():
    if not build(["perfbench_test"]):
        log("perfbench: build of perfbench_test failed")
        return 1
    return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
