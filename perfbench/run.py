#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs its workloads.

One run (the form the benchmark contract uses):

    python3 perfbench/run.py --workload day_pearson --seed 1 --seconds 30 --trace 0

prints one line per metric with its unit, a host-context line, and as its
last line the JSON result {"correct", "attempted", "failed", "metrics"}.

Other modes:

    --all              every workload, untraced then traced: prints every
                       end-to-end and per-layer metric, and fails unless the
                       traced day workloads are bound by their designed stage
    --steady N         N runs of --workload (seeds --seed .. --seed+N-1);
                       prints each end-to-end metric's median, quartiles and
                       spread against its bound in BENCHMARK.json
    --smoke            tiny inputs, every workload, both trace modes; checks
                       that every metric in BENCHMARK.json is printed with its
                       unit and that the correctness gate passes

The build goes to .bench_build/perfbench; traces to .bench_build/perfbench-out.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD / "mm_perfbench"
WORKLOADS = ["day_pearson", "day_maronna", "svc_mix"]
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no MarketMiner sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "mm_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace, tiny=False):
    """Runs mm_perfbench once; returns (stdout, parsed result line)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(OUT / f"{workload}-seed{seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise BenchError(f"{workload}: mm_perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        raise BenchError(f"{workload}: last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise BenchError(f"{workload}: unexpected result keys {sorted(result)}")
    return proc.stdout, result


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("BENCHMARK.json not found at the repository root")
    return json.loads(path.read_text())


def host_context(out):
    return next((json.loads(l[len("# context "):]) for l in out.splitlines()
                 if l.startswith("# context ")), {})


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args, spec):
    workloads = [args.workload] if args.workload else WORKLOADS
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in workloads:
        samples = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.steady):
            seed = args.seed + i
            out, result = run_once(workload, seed, seconds, trace=False)
            ok = ok and result["correct"] and result["failed"] == 0
            context = host_context(out)
            if i == 0:
                static = ("nproc", "build_type", "simd", "transport", "obs_enabled")
                print(f"{workload} host: " + " ".join(f"{k}={context.get(k)}" for k in static))
            line = [f"load={context.get('loadavg_start', float('nan')):.2f}"
                    f"..{context.get('loadavg_end', float('nan')):.2f}",
                    f"steal={context.get('steal_share', float('nan')):.3f}"]
            for name, values in samples.items():
                values.append(result["metrics"][name]["value"])
                line.append(f"{name}={values[-1]:.6g}")
            print(f"{workload} seed={seed} correct={result['correct']} " + " ".join(line),
                  flush=True)
        print(f"\n{workload}: {args.steady} runs, seeds {args.seed}..{args.seed + args.steady - 1}")
        print(f"  {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6} {'spread/bound':>12}")
        for m in spec["end_to_end"]:
            q1, q2, q3 = quartiles(samples[m["name"]])
            spread = (q3 - q1) / q2 if q2 else float("inf")
            ratio = spread / m["bound"]
            verdict = "ok" if ratio <= 1 / 3 else "WIDE" if ratio > 1 else "marginal"
            print(f"  {m['name']:22} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{m['bound']:6.2f} {ratio:12.3f} {verdict} {m['unit']}")
    return 0 if ok else 1


def smoke(spec):
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            out, result = run_once(workload, 1, spec["run_seconds"], trace, tiny=True)
            print(out, end="", flush=True)
            where = f"{workload} trace={int(trace)}"
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{where}: correctness gate failed")
            if result["attempted"] < 1:
                failures.append(f"{where}: no operations attempted")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    failures.append(f"{where}: {m['name']} missing")
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{where}: {m['name']} printed as {got}, unit {m['unit']}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                failures.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for f in failures:
        print("SMOKE FAILED: " + f)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 0 if not failures else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--steady", type=int, metavar="N")
    mode.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not (args.workload or args.all or args.smoke or args.steady):
        p.error("--workload is required")
    try:
        build()
        if args.smoke:
            return smoke(load_spec())
        if args.steady:
            return steady(args, load_spec())
        seconds = args.seconds or load_spec()["run_seconds"]
        if args.all:
            ok = True
            for workload in WORKLOADS:
                for trace in (False, True):
                    out, result = run_once(workload, args.seed, seconds, trace)
                    print(out, end="", flush=True)
                    ok = ok and result["correct"]
                    # The day workloads' design: the stage that bounds them.
                    context = host_context(out)
                    if context.get("busiest_stage") != context.get("designed_stage"):
                        print(f"DESIGN CHECK FAILED: {workload} is bound by "
                              f"{context['busiest_stage']}, designed for "
                              f"{context['designed_stage']}")
                        ok = False
            return 0 if ok else 1
        out, _ = run_once(args.workload, args.seed, seconds, args.trace == 1)
        print(out, end="")
        return 0
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
