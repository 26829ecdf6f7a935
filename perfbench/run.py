#!/usr/bin/env python3
"""End-to-end EPFIS benchmark.

Builds the library and the benchmark binary from the sources next to this
directory, runs one workload, checks its outputs, and prints every metric
with its unit and sample count. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload refresh|serve|scan --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics from a traced run (the first third of the
window runs untraced, so bench.trace_overhead_frac compares the two).
Per-layer metrics of layers a workload does not exercise read 0 with 0
samples. Full results (with the machine and build fingerprint) and the
recorded spans are kept under .bench_out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
PREDICTIONS_PATH = os.path.join(HERE, "predictions.json")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "epfis_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures (once) and builds the binary; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "epfis_perfbench", "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (step[:2], e))
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def run_binary(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns the parsed RESULT object."""
    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (workload, os.getpid()))
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d%s" % (workload, seed, trace,
                                   "-smoke" if smoke else "")
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--smoke=%d" % int(smoke), "--work-dir=" + work_dir,
           "--spans=" + os.path.join(OUT_DIR, "spans-%s.tsv" % tag)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail("%s exited with code %d and no result" % (workload, proc.returncode))
    with open(os.path.join(OUT_DIR, "result-%s.json" % tag), "w") as f:
        json.dump(result, f, indent=1)
    return result


def select_metrics(result, declared, fill_missing):
    """The declared metrics, each {"value", "unit"}, from a run's result."""
    got = result["metrics"]
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                fail("%s: unit %s, declared %s" % (name, got[name]["unit"], unit))
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif fill_missing:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail("%s missing from the %s run" % (name, result["workload"]))
    return metrics


def print_table(result):
    print("fingerprint: " + json.dumps(result["fingerprint"]))
    print("%-36s %18s %-8s %s" % ("metric", "value", "unit", "samples"))
    for name, m in result["metrics"].items():
        print("%-36s %18.6g %-8s %d" % (name, m["value"], m["unit"], m["samples"]))


def self_check():
    """Runs every workload at smoke size, traced and untraced, and checks
    that every named metric appears with its unit and every output check
    passes."""
    spec = load_json(SPEC_PATH)
    predictions = load_json(PREDICTIONS_PATH)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        expected = predictions["workloads"][workload]
        for trace in (0, 1):
            result = run_binary(workload, 1, 1, trace, smoke=True)
            got = result["metrics"]
            wanted = dict(expected["named_metrics"])
            wanted.update({m["name"]: m["unit"] for m in spec["end_to_end"]})
            if trace:
                wanted.update({name: unit for name, unit in
                               expected["layer_metrics"].items()})
            for name, unit in sorted(wanted.items()):
                if name not in got:
                    problems.append("%s trace=%d: %s missing" % (workload, trace, name))
                elif got[name]["unit"] != unit:
                    problems.append("%s trace=%d: %s unit %s, expected %s" % (
                        workload, trace, name, got[name]["unit"], unit))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace=%d: output checks failed: %s" % (
                    workload, trace, result["failures"]))
            if got.get("ops_failed_frac", {}).get("value") != 0:
                problems.append("%s trace=%d: ops_failed_frac != 0" % (workload, trace))
            print("self-check %s trace=%d: %d metrics" % (workload, trace, len(got)))
    for p in problems:
        print("SELF-CHECK FAIL: " + p)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    spec = load_json(SPEC_PATH)
    build()
    if args.self_check:
        return self_check()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    print_table(result)
    if args.trace:
        metrics = select_metrics(result, spec["per_layer"], fill_missing=True)
    else:
        metrics = select_metrics(result, spec["end_to_end"], fill_missing=False)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
