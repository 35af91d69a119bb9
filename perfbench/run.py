#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the simulator library and the benchmark program from this checkout in
Release (CMake, into $CARGO_TARGET_DIR/perfbench, default .bench_build), then
runs one workload:

    python3 perfbench/run.py --workload bulk_sparse --seed 1 --seconds 10 --trace 0

The last line of standard output is the result JSON. --trace 0 reports the
end-to-end metrics; --trace 1 makes a short untraced run for the baseline
rate, then a traced run that reports the per-layer metrics (including
trace.overhead) and writes its spans next to the build.

    python3 perfbench/run.py --check            # oracle, fidelity, determinism
    python3 perfbench/run.py --all --seconds 5  # every workload, one table

See perfbench/README.md for what each workload and metric is for.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulk_sparse", "bulk_dense", "msg_stream", "msg_loss"]
# Every invocation must end within 180 s; the first build may take longer.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "-j", "4", "--target",
                    "perfbench", "perfbench_traced"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return bdir


def run_bench(binary, args, deadline):
    """Run the benchmark binary; return its stdout lines and result."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out: " + " ".join(args))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with %d: %s" % (proc.returncode, " ".join(args)))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no result line")
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--all", action="store_true")
    a = ap.parse_args()
    if not (a.check or a.all or a.workload):
        ap.error("one of --workload, --all or --check is required")
    if a.seconds < 1 or a.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    bdir = build()
    plain = os.path.join(bdir, "perfbench")
    traced = os.path.join(bdir, "perfbench_traced")
    deadline = time.monotonic() + RUN_BUDGET_S

    if a.check:
        proc = subprocess.run([plain, "--check"], timeout=RUN_BUDGET_S * 3)
        sys.exit(proc.returncode)

    if a.all:
        print("%-12s %12s %18s %18s %14s %16s" % (
            "workload", "setup_s [s]", "msgs_per_s [1/s]",
            "peak_rss_mib [MiB]", "vlat_us [vus]", "fail_frac [frac]"))
        for w in WORKLOADS:
            _, r = run_bench(plain, ["--workload", w, "--seed", str(a.seed),
                                      "--seconds", str(a.seconds),
                                      "--trace", "0"],
                              time.monotonic() + RUN_BUDGET_S)
            m = {k: v["value"] for k, v in r["metrics"].items()}
            print("%-12s %12.4f %18.1f %18.1f %14.2f %16.3g%s" % (
                w, m["setup_s"], m["msgs_per_s"], m["peak_rss_mib"],
                m["vlat_us"], r["failed"] / r["attempted"],
                "" if r["correct"] else "  INCORRECT"))
        return

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.trace == 0:
        lines, _ = run_bench(plain, common + ["--seconds", str(a.seconds),
                                               "--trace", "0"], deadline)
        print("\n".join(lines))
        return

    # Traced run: a third of the time untraced for the baseline rate.
    base_s = max(1, a.seconds // 3)
    _, base = run_bench(plain, common + ["--seconds", str(base_s),
                                          "--trace", "0"], deadline)
    trace_out = os.path.join(bdir, "trace_%s_%d.json" % (a.workload, a.seed))
    lines, result = run_bench(traced, common + [
        "--seconds", str(max(1, a.seconds - base_s)), "--trace", "1",
        "--trace-out", trace_out, "--untraced-msgs-per-s",
        repr(base["metrics"]["msgs_per_s"]["value"])], deadline)
    # Both runs' messages were checked; the result covers both.
    result["correct"] = result["correct"] and base["correct"]
    result["attempted"] += base["attempted"]
    result["failed"] += base["failed"]
    print("trace written to " + os.path.relpath(trace_out, ROOT))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
