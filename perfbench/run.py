#!/usr/bin/env python3
"""Build and run the CausalEC benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt compiles the repository's src/ and
causalec_server from source) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs only re-check the build. The last line of
standard output is the result JSON. Traced runs also write a Chrome-trace
JSON (open it in Perfetto) under .bench_out/.

Every process the benchmark starts -- including causalec_server daemons
orphaned by a crash -- is killed and reaped before this script exits, and
the run's scratch directory is deleted.
"""
import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["inproc-write-64k", "routed-read-1k"]
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds; returns the build directory or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no CausalEC sources next to the benchmark (src/ is missing)")
        return None
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "causalec_server"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    return out


def reap_all():
    """Kills and waits for every remaining descendant (we are a subreaper,
    so orphaned grandchildren are re-parented to us)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            # Live children remain: they were just killed, wait for them.
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                return


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_once(binary, server_bin, args, extra):
    work = os.path.join(ROOT, ".bench_work", "%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server-bin", server_bin, "--work-dir", work] + extra
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace_%s_s%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True)
    pgid = proc.pid
    previous = {}

    def on_signal(signum, _frame):
        kill_group(pgid)
        raise SystemExit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, on_signal)
    try:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("benchmark exceeded %d s; killing it" % RUN_TIMEOUT_S)
            kill_group(pgid)
            proc.communicate()
            return None, 1
    finally:
        kill_group(pgid)
        reap_all()
        shutil.rmtree(work, ignore_errors=True)
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return out.decode("utf-8", "replace"), proc.returncode


def result_of(text):
    lines = [l for l in (text or "").splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_test(binary, server_bin):
    """A run whose check path corrupts one read value must fail."""
    ns = argparse.Namespace(workload="inproc-write-64k", seed=1, seconds=1,
                            trace=0)
    out, code = run_once(binary, server_bin, ns, ["--corrupt-read", "50"])
    res = result_of(out)
    caught = code != 0 and res is not None and res.get("correct") is False
    sys.stdout.write(out or "")
    print("self-test: corrupted read %s" % ("caught" if caught else "MISSED"))
    return 0 if caught else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        log("cannot become a child subreaper; orphans go to init")
    start = time.monotonic()
    out_dir = build()
    if out_dir is None:
        return 2
    log("build checked in %.1f s" % (time.monotonic() - start))
    binary = os.path.join(out_dir, "perfbench")
    server_bin = os.path.join(out_dir, "causalec_server")
    if args.self_test:
        return self_test(binary, server_bin)
    out, code = run_once(binary, server_bin, args, [])
    sys.stdout.write(out or "")
    sys.stdout.flush()
    if result_of(out) is None:
        log("the benchmark printed no result")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
