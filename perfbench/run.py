#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the repository's libraries and the benchmark binary from source in
Release mode (in $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench),
runs the workload, and prints:

  * a `# host:` line with the host and build fingerprint and the world
    configuration the result was measured on;
  * a `# rounds:` line per round (set-up time, ops/s, p50/p99 and the number
    of latency samples each was computed from);
  * a `# more metrics:` line with any metric the binary measures that
    BENCHMARK.json does not declare;
  * as the last line, one JSON object with the keys `correct`, `attempted`,
    `failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
    metrics of BENCHMARK.json, with `--trace 1` its per-layer metrics.

Exits non-zero without printing a result when the source tree is missing, the
build fails or is not a Release build, the world is not configured as the
benchmark requires (paging daemon off, TLB and transparent huge pages on), or
the binary does not report every metric BENCHMARK.json declares.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_EXTRA_S = 150  # the binary may overrun --seconds by one round
HEAP_TUNABLES = "glibc.malloc.hugetlb=1"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no source tree next to {HERE}: nothing to build")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def source_digest():
    """SHA-256 over the files the binary is built from.

    Identifies the build when the checkout is not a git repository."""
    paths = [os.path.join(HERE, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def thp_mode():
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", build_dir()]
    # glibc backs the heap with transparent huge pages where the kernel allows
    # them on request: fewer host TLB misses, and op times that move less with
    # the host's load.
    env = dict(os.environ, GLIBC_TUNABLES=HEAP_TUNABLES)
    try:
        run = subprocess.run(command, capture_output=True, text=True, env=env,
                             timeout=args.seconds + RUN_TIMEOUT_EXTRA_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish in time")
    sys.stderr.write(run.stderr)
    if run.returncode != 0 or not run.stdout.strip():
        fail(f"workload exited with status {run.returncode}")
    record = json.loads(run.stdout.strip().splitlines()[-1])

    config = record["config"]
    if record["build_type"] != "Release":
        fail(f"refusing timings from a {record['build_type']} build")
    for key, want in (("pageout_daemon", "off"), ("tlb", "on"), ("transparent_huge", "on")):
        if config.get(key) != want:
            fail(f"world has {key}={config.get(key)}, the benchmark requires {want}")

    declared = declared_metrics(args.trace)
    missing = sorted(set(declared) - set(record["metrics"]))
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not reported: {missing}")
    metrics = {name: record["metrics"][name] for name in declared}
    for name, metric in metrics.items():
        if metric["unit"] != declared[name] or not isinstance(metric["value"], (int, float)) \
                or not math.isfinite(metric["value"]):
            fail(f"metric {name} is malformed: {metric}")
    # Metrics the binary measures that BENCHMARK.json does not declare: ones
    # that read zero on every declared workload, or exist only for one workload
    # run by hand.
    more = {name: m for name, m in record["metrics"].items() if name not in declared}

    host = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config": config,
        "glibc_tunables": HEAP_TUNABLES,
        "transparent_hugepage": thp_mode(),
    }
    print("# host: " + json.dumps(host, sort_keys=True))
    for r in record["rounds"]:
        print("# rounds: " + json.dumps(r, sort_keys=True))
    if more:
        print("# more metrics: " + json.dumps(more, sort_keys=True))
    if record["errors"]:
        print("# errors: " + json.dumps(record["errors"]))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
