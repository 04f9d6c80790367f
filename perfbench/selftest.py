#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks, for every workload:
  1. a short run is deterministic: the same seed twice gives the same
     output digest, and both runs are correct;
  2. the correctness check bites: corrupting one reference sample makes
     the run fail (failed > 0, correct false, nonzero exit);
  3. a traced run prints exactly the per-layer metrics of BENCHMARK.json;
and that ledger.json describes exactly those per-layer metrics, mapping
each to end-to-end metrics and workloads that exist.
Takes a few minutes: each design_flow run compiles the netlist cold.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, extra, seconds=2, trace=0):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd + extra, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().split("\n")
    digest = next((l.split("=")[1].strip() for l in lines
                   if l.startswith("digest =")), None)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return p.returncode, result, digest, p.stderr


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ledger = json.load(open(os.path.join(HERE, "ledger.json")))
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    check(set(ledger["per_layer"]) == layer,
          "ledger.json covers exactly the per-layer metrics")
    targets_ok = all(
        m["workload"] in workloads and (m["metric"] in e2e or m["metric"] == "failed")
        for entry in ledger["per_layer"].values()
        for m in entry["should_move"] + entry.get("no_change", []))
    check(targets_ok, "ledger.json names only existing metrics and workloads")
    rate = spec["command"][spec["command"].index("--churn-mcodes-s") + 1]
    check(float(rate) == ledger["serve_churn_offered_mcodes_s"],
          "ledger.json and BENCHMARK.json agree on the churn rate")

    seed = ledger["seeds"]["development"]
    for w in workloads:
        a = run(w, seed, ["--short"])
        b = run(w, seed, ["--short"])
        check(a[0] == 0 and b[0] == 0 and a[1] and b[1] and a[1]["correct"]
              and b[1]["correct"] and a[2] is not None and a[2] == b[2],
              f"{w}: short runs correct and identical (digest {a[2]} / {b[2]})")
        rc, res, _, err = run(w, seed, ["--short", "--corrupt-reference"])
        check(rc != 0 and res is not None and res["failed"] > 0
              and not res["correct"],
              f"{w}: a corrupted reference sample is caught "
              f"(failed {res and res['failed']}, exit {rc})")
        rc, res, _, err = run(w, seed, [], seconds=2, trace=1)
        got = set(res["metrics"]) if res else set()
        check(rc == 0 and got == layer,
              f"{w}: traced run prints every per-layer metric"
              + ("" if got == layer else f" (diff {sorted(got ^ layer)})"))
        if rc != 0:
            sys.stderr.write(err)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
