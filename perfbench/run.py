#!/usr/bin/env python3
"""The mictrend benchmark: one command per workload run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--out result.json]
    python3 perfbench/run.py --selftest

Run it from the root of a source checkout. It builds the harness
(perfbench/CMakeLists.txt compiles ../src into .bench_build/perfbench),
runs one workload in a fresh directory under .bench_work/, checks the
harness's outputs and prints two lines: a provenance object (nproc, host,
seed, world scale, per-op counts, failures) and, last, the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end metrics; with --trace 1 its per_layer
metrics, and the spans go to .bench_results/<workload>-<seed>.trace.json
(Chrome-trace JSON, as `mictrend --trace-out` writes).

Workloads (BENCHMARK.json says why each exists):
  pipeline_cold  cold RunPipelineFromStore + WriteReportCsv on the paper
                 world; its query_* metrics time in-process reads of the
                 batch result, since no daemon runs.
  serve_read     open-loop reads against an in-process daemon, with a
                 rate ladder for query_max_rps; its pipeline_s is the
                 daemon's cold snapshot build.
README.md defines every metric per workload.

pipeline_cold's digest of its report and drill trees must repeat for a
seed and one version of the sources: the first digest seen for a (seed,
hash of src/ and perfbench/) pair is kept in .bench_results/digests.json
and a later mismatch fails the run. Changed sources start afresh, since
a change may rightly alter the output bytes.

Exit status is 0 when a result was printed (correct or not) and
non-zero, with no result, when the harness could not be built or run.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds the harness and its tests."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD, "-j", jobs, "--target",
               "perfbench_harness", "perfbench_test"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_result(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("harness printed no result")
    try:
        provenance = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        fail("harness output is not JSON: %s" % error)
    return provenance, result


def conform(result, spec, trace):
    """Checks the metric set against BENCHMARK.json. Per-layer metrics of
    a layer the workload does not exercise read 0; any other missing,
    unknown, non-finite or mis-unitized metric is an error."""
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, entry in metrics.items():
        if name not in units:
            fail("harness reported undeclared metric %s" % name)
        if entry["unit"] != units[name]:
            fail("metric %s has unit %s, declared %s"
                 % (name, entry["unit"], units[name]))
        if not isinstance(entry["value"], (int, float)) or \
                not math.isfinite(entry["value"]):
            fail("metric %s is not a finite number" % name)
    ordered = {}
    for m in declared:
        if m["name"] in metrics:
            ordered[m["name"]] = metrics[m["name"]]
        elif trace:
            ordered[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail("harness did not report %s" % m["name"])
    result["metrics"] = ordered


def source_hash():
    """Hash of every file under src/ and perfbench/: the program's sources
    and the benchmark's own."""
    sha = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(directory, name)
                sha.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    sha.update(f.read())
    return sha.hexdigest()[:16]


def check_digest(workload, seed, sources, provenance, result):
    """pipeline_cold's outputs must be identical across runs of a seed on
    the same sources, traced or not."""
    digest = provenance.get("digest")
    if workload != "pipeline_cold" or not digest:
        return
    path = os.path.join(RESULTS, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    first = known.setdefault("%d/%s" % (seed, sources), digest)
    result["attempted"] += 1
    if first != digest:
        result["failed"] += 1
        result["correct"] = False
        provenance.setdefault("failures", []).append(
            "digest %s differs from %s seen earlier for seed %s on these "
            "sources" % (digest, first, seed))
        return
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def selftest():
    build()
    sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_test")])
             .returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write provenance + result here")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    sources = source_hash()
    os.makedirs(RESULTS, exist_ok=True)
    work = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    command = [os.path.join(BUILD, "perfbench_harness"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    if args.trace:
        command += ["--trace-out", os.path.join(
            RESULTS, "%s-%d.trace.json" % (args.workload, args.seed))]
    started = time.time()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    if process.returncode != 0:
        fail("harness exited with %d" % process.returncode)

    provenance, result = parse_result(stdout)
    conform(result, spec, args.trace)
    check_digest(args.workload, args.seed, sources, provenance, result)
    provenance.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sources": sources,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "host": platform.node(), "wall_s": round(time.time() - started, 3),
    })
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"provenance": provenance, "result": result}, f,
                      indent=1, sort_keys=True)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
