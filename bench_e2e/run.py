#!/usr/bin/env python3
"""Builds and runs the end-to-end pipeline benchmark (e2e_pipeline).

One run of one workload, as BENCHMARK.json's command does it:

    python3 bench_e2e/run.py --workload select_hot --seed 1 --seconds 20 \
        --trace 0

prints every end-to-end metric by name and unit (with --trace 1: every
per-layer metric, plus a Chrome trace under <build-dir>/out/), then, as
the last stdout line, one JSON object with exactly the keys correct,
attempted, failed and metrics. Without --workload every workload runs.

Other modes:
    --smoke                 every workload at tiny scale, traced and not;
                            checks names and units against BENCHMARK.json
    --baseline OUT          per workload, two back-to-back sets of 5
                            untraced runs of one seed, whether their
                            medians agree within the bounds, and one traced
                            run, summarized into OUT
    --compare PARENT CHANGE two source checkouts, 10 alternating pairs,
                            judged by the rule in README.md

The benchmark builds the repository from source into --build-dir
(default .bench_build at the repository root), and reads and writes
nothing outside the repository.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["discover", "select_hot", "select_wide", "select_during_refresh"]
RUN_TIMEOUT_S = 170
# Untraced runs per set in a baseline, and parent/change pairs per
# workload in a comparison (the rule in README.md).
REPETITIONS = 5
PAIRS = 10
# Direction of the end-to-end candidates BENCHMARK.json does not gate:
# these are better higher, every other one lower.
HIGHER_IS_BETTER = {"sample_docs_per_s"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build(build_dir):
    """Configures (until a configure succeeds) and builds e2e_pipeline;
    returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
           "--target", "e2e_pipeline"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise RuntimeError("build failed")
    return os.path.join(build_dir, "e2e_pipeline")


def run_child(cmd, cwd, timeout):
    """Runs cmd in its own process group; on timeout kills the group and
    waits for it. Returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            preexec_fn=os.setsid)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out


def run_pipeline(exe, build_dir, workload, seed, seconds, trace, tiny=False):
    """One e2e_pipeline run; returns its full JSON report."""
    work = os.path.join(build_dir, "work")
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if tiny:
        stem += "-tiny"
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--workdir", work]
    if trace:
        cmd += ["--trace-out", os.path.join(out_dir, stem + ".trace.json")]
    if tiny:
        cmd.append("--tiny")
    code, out = run_child(cmd, ROOT, RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"e2e_pipeline {workload} exited {code}")
    report = json.loads(lines[-1])
    with open(os.path.join(out_dir, stem + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    return report


def result_line(report, spec, trace):
    """The result object: exactly the metrics BENCHMARK.json lists."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError(f"metric {m['name']} missing from the run")
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']}: unit {got['unit']}, "
                               f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def print_table(workload, report, line):
    """Every metric of the run; `*` marks those the result line carries."""
    print(f"== {workload}: correct={line['correct']} "
          f"attempted={line['attempted']} failed={line['failed']}")
    for name, m in report["metrics"].items():
        mark = "*" if name in line["metrics"] else " "
        print(f"  {mark} {name:34s} {m['value']:>16.6g} {m['unit']}")


def smoke(exe, build_dir, spec):
    """Tiny run of every workload; names and units must match the spec."""
    names = [w["name"] for w in spec["workloads"]]
    if names != WORKLOADS:
        raise RuntimeError(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            report = run_pipeline(exe, build_dir, workload, 1, 0.5, trace,
                                tiny=True)
            line = result_line(report, spec, trace)
            if not line["correct"] or line["failed"]:
                raise RuntimeError(f"{workload}: incorrect or failed run")
            log(f"smoke: {workload} trace={trace} ok")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host():
    """What the numbers were measured on."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    uname = os.uname()
    return {"cpu": model, "nproc": os.cpu_count(),
            "kernel": f"{uname.sysname} {uname.release}",
            "machine": uname.machine}


def summarize(runs):
    """Median and quartiles of every end-to-end candidate over `runs`."""
    summary = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "unit": m["unit"], "values": values}
    return summary


def bounds(spec):
    """Regression bound per gated end-to-end metric."""
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def baseline(exe, build_dir, spec, seconds, path):
    """Per workload: two back-to-back sets of untraced runs of seed 1,
    the shift between their medians (against the bound, for gated
    metrics), and one traced run."""
    result = {"run_seconds": seconds, "repetitions": REPETITIONS, "seed": 1,
              "host": host(), "workloads": {}}
    bound = bounds(spec)
    for workload in WORKLOADS:
        sets = [[run_pipeline(exe, build_dir, workload, 1, seconds, False)
                 for _ in range(REPETITIONS)] for _ in range(2)]
        traced = run_pipeline(exe, build_dir, workload, 1, seconds, True)
        summary, repeat = summarize(sets[0]), summarize(sets[1])
        agreement = {}
        for name, first in summary.items():
            shift = (repeat[name]["median"] - first["median"]) / first["median"]
            agreement[name] = {"shift": shift, "bound": bound.get(name)}
            if name in bound:
                agreement[name]["agree"] = abs(shift) <= bound[name]
        runs = sets[0] + sets[1]
        info = {}
        for key in runs[0]["info"]:
            info[key] = statistics.median(r["info"][key] for r in runs)
        p50s = ["local_select_p50_us", "remote_select_p50_us",
                "fed_select_p50_us"]
        untraced = sum(summary[k]["median"] for k in p50s)
        traced_sum = sum(traced["info"][k] for k in p50s)
        result["workloads"][workload] = {
            "end_to_end": summary,
            "repeat_set": repeat,
            "agreement": agreement,
            "info_median": info,
            "per_layer": {k: v for k, v in traced["metrics"].items()},
            "trace_overhead_frac": traced_sum / untraced - 1,
            "all_correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
        }
        log(f"baseline: {workload} done")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")


def judge(parent, change, better, bound, parent_failed, change_failed):
    """The verdict for one (workload, metric) from paired runs; `bound`
    is None for a metric BENCHMARK.json does not gate."""
    lower = better == "lower"
    pq1, pmed, pq3 = quartiles(parent)
    cmed = quartiles(change)[1]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    worse = ((cmed - pmed) if lower else (pmed - cmed)) / pmed
    if wins >= 0.9 * len(parent) and -worse * pmed > pq3 - pq1:
        if change_failed > parent_failed:
            return "no gain: more operations failed"
        return "gain"
    if bound is None:
        return f"not gated ({worse:+.1%})"
    if (pq3 - pq1) / pmed > bound:
        all_better = (max(change) < min(parent) if lower
                      else min(change) > max(parent))
        return "better in every run" if all_better else "unresolved"
    if worse > bound:
        return f"REGRESSION ({worse:+.1%} > {bound:.0%})"
    return "within bound"


def compare(parent, change, spec, workloads, seconds):
    """PAIRS alternating pairs per workload, judged per metric."""
    sides = {"parent": os.path.abspath(parent),
             "change": os.path.abspath(change)}
    values, failed = {}, {}
    for workload in workloads:
        for i in range(PAIRS):
            order = ["parent", "change"]
            if i % 2:
                order.reverse()
            for side in order:
                script = os.path.join(sides[side], "bench_e2e", "run.py")
                code, out = run_child(
                    [sys.executable, script, "--workload", workload,
                     "--seed", str(i + 1), "--seconds", str(seconds),
                     "--trace", "0"], sides[side], 900)
                if code != 0 or not out.strip():
                    raise RuntimeError(
                        f"{side} {workload} pair {i + 1} failed")
                # The full report holds the ungated candidates too.
                with open(os.path.join(
                        sides[side], ".bench_build", "out",
                        f"{workload}-seed{i + 1}-trace0.json"),
                        encoding="utf-8") as f:
                    report = json.load(f)
                key = (workload, side)
                failed[key] = failed.get(key, 0) + report["failed"]
                for name, m in report["metrics"].items():
                    values.setdefault((workload, name), {}).setdefault(
                        side, []).append(m["value"])
            log(f"compare: {workload} pair {i + 1}/{PAIRS}")
    gated = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':22s} {'metric':26s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>6s}  verdict")
    for (workload, name), side in sorted(values.items()):
        better = gated[name]["better"] if name in gated else (
            "higher" if name in HIGHER_IS_BETTER else "lower")
        p, c = side["parent"], side["change"]
        lower = better == "lower"
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        verdict = judge(p, c, better, gated.get(name, {}).get("bound"),
                        failed[(workload, "parent")],
                        failed[(workload, "change")])
        quart = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))
        print(f"{workload:22s} {name:26s} {quart(p):>32s} {quart(c):>32s} "
              f"{wins:3d}/{len(p):<2d}  {verdict}")
    for workload in workloads:
        print(f"{workload}: failed operations parent "
              f"{failed[(workload, 'parent')]}, change "
              f"{failed[(workload, 'change')]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, ".bench_build"))
    parser.add_argument("--no-build", action="store_true",
                        help="use an already built --build-dir")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--baseline", metavar="OUT")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()

    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        if args.compare:
            compare(args.compare[0], args.compare[1], spec,
                    [args.workload] if args.workload else WORKLOADS, seconds)
            return 0
        build_dir = os.path.abspath(args.build_dir)
        exe = (os.path.join(build_dir, "e2e_pipeline") if args.no_build
               else build(build_dir))
        if args.smoke:
            smoke(exe, build_dir, spec)
            return 0
        if args.baseline:
            baseline(exe, build_dir, spec, seconds, args.baseline)
            return 0
        line = None
        for workload in [args.workload] if args.workload else WORKLOADS:
            started = time.time()
            report = run_pipeline(exe, build_dir, workload, args.seed, seconds,
                                args.trace)
            line = result_line(report, spec, args.trace)
            print_table(workload, report, line)
            log(f"{workload}: {time.time() - started:.1f} s")
        print(json.dumps(line))
        return 0
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
