#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--seconds S]
                                    [--workloads make,hot_access] [--out FILE]
                                    [--keep DIR]

Runs every workload --runs times per set, each run of a set with its own seed
(seeds 1 .. runs, the same list in every set, so two sets differ only by when
they ran), interleaving the workloads so that slow drifts of the host fall on
all of them alike.  For every end-to-end metric it
prints, per set, the median, the quartiles (statistics.quantiles, n=4), the
spread between the quartiles and the max-min range, both as a share of the
median, and the metric's bound from BENCHMARK.json.  With two sets it also
prints how far the second set's median moved against the first, in the
metric's worse direction.  A metric passes when its quartile spread stays
within its bound in every set and the second median is no worse than the
first by more than the bound; the report also names every metric whose
quartile spread is above a third of its bound, the target for a steady
benchmark.

Writes the report as Markdown to --out (default: stdout) and exits non-zero
when any run is incorrect or any check fails.  With --keep, each run's whole
output (its `# rounds:` lines too) is also written to DIR/<set>-<workload>-<seed>.out.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    host = next(json.loads(l[len("# host: "):]) for l in lines if l.startswith("# host: "))
    return host, json.loads(lines[-1]), run.stdout


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("inf"),
            "range_share": (max(values) - min(values)) / median if median else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    parser.add_argument("--keep")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # results[set][workload] = list of result objects
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    host = None
    incorrect = []
    for s in range(args.sets):
        for i in range(args.runs):
            seed = i + 1
            for w in workloads:
                host, result, output = run_once(w, seed, seconds)
                if args.keep:
                    os.makedirs(args.keep, exist_ok=True)
                    with open(os.path.join(args.keep, f"{s + 1}-{w}-{seed}.out"), "w") as f:
                        f.write(output)
                results[s][w].append(result)
                if not result["correct"] or result["failed"]:
                    incorrect.append(f"{w} seed {seed}")
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      f"ops_per_s={result['metrics']['ops_per_s']['value']:.1f}",
                      file=sys.stderr)

    out = []
    out.append("# Steadiness report\n")
    out.append(f"Generated {datetime.datetime.now(datetime.timezone.utc):%Y-%m-%d %H:%M} UTC by "
               f"`python3 perfbench/steadiness.py --runs {args.runs} --sets {args.sets} "
               f"--seconds {seconds:g}`.\n")
    out.append(f"Host: {host['cpu_model']}, nproc {host['nproc']}, {host['compiler']}, "
               f"{host['build_type']} build, sources sha256 {host['source_sha256'][:12]}"
               f"{', commit ' + host['commit'][:12] if host['commit'] else ''}.\n")
    out.append(f"Each set runs every workload once per seed, seeds 1 .. {args.runs} in every "
               "set, the workloads interleaved.  `iqr` and `range` are the quartile spread and "
               "the max-min range of a set's runs as a share of their median.  `pass` requires "
               "iqr <= bound in every set and the second set's median no worse than the "
               "first's by more than the bound; `iqr <= bound/3` reports the tighter target "
               "separately.\n")
    failures = list(incorrect)
    missed_target = []
    for w in workloads:
        runs = sum(len(results[s][w]) for s in range(args.sets))
        failed = sum(r["failed"] for s in range(args.sets) for r in results[s][w])
        attempted = sum(r["attempted"] for s in range(args.sets) for r in results[s][w])
        out.append(f"\n## {w}\n\n{runs} runs, {attempted} ops attempted, {failed} failed, "
                   f"all correct: {all(r['correct'] for s in range(args.sets) for r in results[s][w])}.\n\n")
        header = "| metric | bound |"
        rule = "|---|---|"
        for s in range(args.sets):
            header += f" set {s + 1} median | q1 .. q3 | iqr | range |"
            rule += "---|---|---|---|"
        if args.sets > 1:
            header += " set 2 vs 1 (worse) |"
            rule += "---|"
        header += " pass | iqr <= bound/3 |"
        rule += "---|---|"
        out.append(header + "\n" + rule + "\n")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = f"| {name} ({m['unit']}) | {bound:g} |"
            ok = True
            on_target = True
            per_set = []
            for s in range(args.sets):
                sp = spread([r["metrics"][name]["value"] for r in results[s][w]])
                per_set.append(sp)
                row += (f" {sp['median']:.6g} | {sp['q1']:.6g} .. {sp['q3']:.6g} |"
                        f" {sp['iqr_share']:.3f} | {sp['range_share']:.3f} |")
                ok = ok and sp["iqr_share"] <= bound
                on_target = on_target and sp["iqr_share"] <= bound / 3
            if args.sets > 1:
                first, second = per_set[0]["median"], per_set[1]["median"]
                worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
                row += f" {worse:+.3f} |"
                ok = ok and worse <= bound
            row += f" {'yes' if ok else 'NO'} | {'yes' if on_target else 'no'} |"
            if not ok:
                failures.append(f"{w} {name}")
            if not on_target:
                missed_target.append(f"{w} {name}")
            out.append(row + "\n")
        out.append("\nEvery run, in the order run:\n\n| set | seed |" +
                   "".join(f" {m['name']} |" for m in metrics) + "\n|---|---|" +
                   "---|" * len(metrics) + "\n")
        for s in range(args.sets):
            for i, r in enumerate(results[s][w]):
                out.append(f"| {s + 1} | {i + 1} |" +
                           "".join(f" {r['metrics'][m['name']]['value']:.6g} |" for m in metrics) +
                           "\n")
    out.append("\n" + ("All checks pass.\n" if not failures else
                       "Failing: " + ", ".join(failures) + "\n"))
    out.append("Quartile spread above a third of the bound: " +
               (", ".join(missed_target) if missed_target else "none") + ".\n")
    text = "".join(out)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
