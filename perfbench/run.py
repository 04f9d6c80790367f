#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

Run from the repository root, as BENCHMARK.json's command does:

    python3 perfbench/run.py --churn-mcodes-s 7 \\
        --workload serve_lockstep --seed 1 --seconds 16 --trace 0

The build goes to .bench_build (CMake + Ninja; the first run compiles the
libraries under src/). The last line of standard output is the result
object: correct, attempted, failed and metrics -- the end-to-end metrics
with --trace 0, the per-layer ledger with --trace 1. Its metric names are
checked against BENCHMARK.json before it is printed. ledger.json holds
the metric definitions and which end-to-end metric each layer metric
should move. Exit status: 0 ok, 1 wrong outputs, 2 usage or build error,
3 result not as BENCHMARK.json declares, 4 timeout.

--short and --corrupt-reference are for selftest.py only.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = ".bench_build"  # relative to ROOT: keeps unix socket paths short
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env():
    # Compilers (the build, and the JIT compile of the netlist at run time)
    # write temporary files to TMPDIR: keep those inside the checkout too.
    tmp = os.path.join(ROOT, WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_checked(cmd):
    # Build chatter goes to stderr: stdout ends with the result line.
    res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                         env=child_env())
    if res.returncode != 0:
        fail(2, f"command failed: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "library sources (src/) not found next to perfbench/")
    build_dir = os.path.join(ROOT, WORK_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd)
    run_checked(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", "4"])
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve_lockstep", "serve_churn", "design_flow"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--churn-mcodes-s", type=float, required=True)
    ap.add_argument("--short", action="store_true")
    ap.add_argument("--corrupt-reference", action="store_true")
    a = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--churn-mcodes-s", str(a.churn_mcodes_s), "--work-dir", WORK_DIR]
    if a.short:
        cmd.append("--short")
    if a.corrupt_reference:
        cmd.append("--corrupt-reference")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=child_env(), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the compiler children too
        proc.communicate()
        fail(4, f"run exceeded {RUN_TIMEOUT_S} s")

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        fail(proc.returncode or 3, "no result line")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if not a.short and got != declared_metrics(a.trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(3, f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared_metrics(a.trace)))}")
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
