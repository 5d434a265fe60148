#!/usr/bin/env python3
"""Builds and runs the dnswild benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload study-chaos --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selftest         # tiny-scale self-test
    python3 perfbench/run.py --pin 0-15         # record reference digests
    python3 perfbench/run.py --pin 0-15 --workload campaign

Run from the root of a checkout. The benchmark is compiled from ../src into
.bench_build/ on first use. Each run starts one fresh process for one
workload, so its peak RSS belongs to that workload alone. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it give the provenance and every metric with
its unit. Metric names and units come from BENCHMARK.json alone.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ("study-chaos", "campaign")
# Resolver counts for --selftest: small enough to finish in seconds.
TINY = {"study-chaos": 600, "campaign": 3000}
# Untraced processes the traced run's wall_s is set against.
OVERHEAD_SAMPLES = 3


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(command):
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("command failed: " + " ".join(command))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no dnswild sources under %s/src; run from a checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        run_quiet(command)
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])


def source_provenance():
    """Commit when the checkout is a git repository, plus a digest of the
    sources either way (the benchmark may run outside a repository)."""
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def run_binary(workload, seed, seconds, trace, resolvers=None):
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_out = os.path.join(TRACE_DIR, "%s-seed%d.json" % (workload, seed))
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", WORK_DIR, "--trace-out", trace_out]
    if resolvers is not None:
        command += ["--resolvers", str(resolvers)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("benchmark binary failed (exit %d)" % proc.returncode)
    return json.loads(lines[-1])


def load_json(path, default):
    if not os.path.isfile(path):
        return default
    with open(path) as handle:
        return json.load(handle)


def select_metrics(spec, measured, trace):
    """The metrics BENCHMARK.json names for this mode, with its units.
    Every end-to-end metric must have been measured; a layer metric the
    workload did not produce (a layer it bypasses) reads 0."""
    selected = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        value = measured.get(metric["name"])
        if value is None:
            if not trace:
                die("metric %s was not measured" % metric["name"])
            value = 0.0
        selected[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return selected


def trace_overhead(workload, seed, traced_wall, resolvers=None):
    """Traced wall_s minus the median wall_s of untraced runs, each in a
    fresh process whose first iteration is the one timed, as in the
    traced run."""
    walls = sorted(
        run_binary(workload, seed, 0, 0, resolvers)["metrics"]["wall_s"]
        for _ in range(OVERHEAD_SAMPLES))
    return traced_wall - walls[len(walls) // 2]


def check_trace(path):
    """Problems with a Chrome trace file: it must parse and every "E"
    must close the innermost open "B" of the same name."""
    try:
        events = load_json(path, None)["traceEvents"]
    except (TypeError, KeyError, ValueError) as error:
        return ["trace %s does not parse: %s" % (path, error)]
    stack = []
    begins = 0
    for event in events:
        if event.get("ph") == "B":
            stack.append(event["name"])
            begins += 1
        elif event.get("ph") == "E":
            if not stack or stack.pop() != event["name"]:
                return ["trace %s has an unmatched end event" % path]
    if stack or begins == 0:
        return ["trace %s has unclosed or no spans" % path]
    return []


def selftest(spec):
    problems = []
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    produced = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_binary(workload, 7, 0, trace,
                                resolvers=TINY[workload])
            where = "%s trace=%d" % (workload, trace)
            measured = result["metrics"]
            produced.update(measured)
            problems += ["%s: metric %s is not in BENCHMARK.json"
                         % (where, name) for name in measured
                         if name not in declared]
            if trace:
                measured["trace.overhead_s"] = trace_overhead(
                    workload, 7, measured["wall_s"], TINY[workload])
            for name, metric in select_metrics(spec, measured,
                                               trace).items():
                if not trace and metric["value"] <= 0:
                    problems.append("%s: metric %s is not positive"
                                    % (where, name))
            if result["failed"] != 0 or result["failures"]:
                problems.append("%s: checks failed: %s"
                                % (where, result["failures"]))
            if trace:
                problems += check_trace(result["trace_file"])
            print("selftest %-24s %s" % (where, "ok" if not problems
                                         else "problems so far"))
    problems += ["no workload measures %s" % m["name"]
                 for m in spec["per_layer"]
                 if m["name"] not in produced | {"trace.overhead_s"}]
    for problem in problems:
        print("selftest FAIL " + problem)
    print("selftest " + ("passed" if not problems else "failed"))
    return 0 if not problems else 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def pin(seeds, workloads):
    references = load_json(REFERENCES, {})
    for workload in workloads:
        for seed in seeds:
            result = run_binary(workload, seed, 0, 0)
            if result["failed"] != 0:
                die("%s seed %d failed its checks: %s"
                    % (workload, seed, result["failures"]))
            references.setdefault(workload, {})[str(seed)] = result["digest"]
            print("pinned %s seed %d: %s" % (workload, seed, result["digest"]))
    with open(REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--pin", metavar="SEEDS",
                        help="record reference digests, e.g. 1-10")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("no BENCHMARK.json at the checkout root")
    spec = load_json(spec_path, None)
    build()
    if args.selftest:
        return selftest(spec)
    if args.pin:
        return pin(parse_seeds(args.pin),
                   [args.workload] if args.workload else WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required")

    result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    failures = list(result["failures"])
    failed = result["failed"]
    reference = load_json(REFERENCES, {}).get(args.workload, {}).get(
        str(args.seed))
    if reference is not None and reference != result["digest"]:
        failures.append("output digest %s differs from the pinned %s"
                        % (result["digest"], reference))
        failed = result["attempted"]
    if args.trace:
        result["metrics"]["trace.overhead_s"] = trace_overhead(
            args.workload, args.seed, result["metrics"]["wall_s"])
    metrics = select_metrics(spec, result["metrics"], args.trace)

    provenance = dict(source_provenance(), **result["provenance"])
    provenance.update(workload=args.workload, seed=args.seed,
                      resolvers=result["resolvers"])
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("output digest %s (%s)" % (
        result["digest"],
        "unpinned seed" if reference is None
        else "matches pin" if reference == result["digest"] else "MISMATCH"))
    if args.trace:
        print("trace written to " + result["trace_file"])
    for failure in failures:
        print("check failed: " + failure)
    print("%-34s %20s  %s" % ("metric", "value", "unit"))
    for name, metric in metrics.items():
        print("%-34s %20.9g  %s" % (name, metric["value"], metric["unit"]))
    print("failed_frac %.4f (%d of %d iterations)"
          % (failed / result["attempted"], failed, result["attempted"]))
    print(json.dumps({"correct": failed == 0,
                      "attempted": result["attempted"],
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
