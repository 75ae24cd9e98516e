#!/usr/bin/env python3
"""Builds and runs the ddtr benchmark, and compares result files.

Run one measurement (from the repository root):

    python3 perfbench/run.py --workload explore-cold --seed 1 --seconds 30 --trace 0

The benchmark package (perfbench/Cargo.toml) is built first, in release
mode, into $CARGO_TARGET_DIR (default .bench_build). The last line of
stdout is the result object {"correct", "attempted", "failed", "metrics"}.
With --out FILE the self-describing run record (seed, git rev, nproc,
run length, sample counts, units, result digest) is appended to FILE as
one JSON line.

Compare two sets of records (e.g. parent and change):

    python3 perfbench/run.py compare parent.jsonl change.jsonl

Regenerate the golden digests (only when a change to the simulated
statistics is deliberate; record it in CHANGES.md):

    python3 perfbench/run.py golden
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BENCHMARK = ROOT / "BENCHMARK.json"
# Scratch space of a run, relative to the repository root so unix socket
# paths under it stay short.
WORK_DIR = Path(".bench_build") / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = Path.cwd() / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    binary = target / "release" / "ddtr_perfbench"
    if done.returncode != 0 or not binary.is_file():
        print("perfbench: build failed", file=sys.stderr)
        return None
    return binary


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def metric_names(trace):
    spec = json.loads(BENCHMARK.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def valid_result(line, trace):
    """The parsed result object if `line` is a well-formed result."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return None
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or sorted(metrics) != sorted(metric_names(trace)):
        return None
    for m in metrics.values():
        if not isinstance(m, dict) or not isinstance(m.get("value"), (int, float)):
            return None
    return result


def cleanup():
    """Removes scratch directories a crashed run may have left."""
    work = ROOT / WORK_DIR
    if work.is_dir():
        for d in work.glob("work-*"):
            shutil.rmtree(d, ignore_errors=True)


def run(args):
    binary = build()
    if binary is None:
        return 1
    (ROOT / WORK_DIR).mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK_DIR)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s and was killed", file=sys.stderr)
        cleanup()
        return 3
    cleanup()
    lines = done.stdout.rstrip("\n").split("\n")
    result = valid_result(lines[-1], args.trace) if lines else None
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stdout)
        print(f"perfbench: run failed (exit {done.returncode})", file=sys.stderr)
        return 4
    if args.out:
        records = [l for l in lines if l.startswith("perfbench-record ")]
        record = json.loads(records[-1][len("perfbench-record "):])
        record["git_rev"] = git_rev()
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.write(done.stdout)
    return 0


# --- compare -----------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a, b, better, bound):
    """Verdict on B against A for one metric.

    `better` is "lower" or "higher"; `bound` the share by which the
    metric may worsen (None for per-layer metrics, whose only yardstick
    is their own spread). Returns one of "better", "worse", "within
    bound" and "unresolved" (the spread is wider than the bound and the
    samples overlap).
    """
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = quartiles(a)[1], quartiles(b)[1]
    if ma == mb:
        return "within bound"
    if ma == 0:
        return "unresolved"
    gain = sign * (mb - ma) / abs(ma)
    noise = max(spread(a), spread(b))
    limit = bound if bound is not None else noise
    if noise > limit:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if gain < -limit:
        return "worse"
    if gain > noise:
        return "better"
    return "within bound"


def load(path):
    """Records grouped as {(workload, trace): {metric: ([values], unit)}}."""
    groups = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            group = groups.setdefault((rec["workload"], bool(rec["trace"])), {})
            for name, m in rec["metrics"].items():
                group.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return groups


def compare(path_a, path_b, out=sys.stdout):
    spec = json.loads(BENCHMARK.read_text())
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = load(path_a), load(path_b)
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        for name in a[key]:
            if name not in b[key] or name not in rules:
                continue
            va, unit = a[key][name]
            vb, _ = b[key][name]
            better, bound = rules[name]
            qa, qb = quartiles(va), quartiles(vb)
            delta = (qb[1] - qa[1]) / abs(qa[1]) * 100 if qa[1] else float("nan")
            rows.append((workload + (" (traced)" if trace else ""), name, unit,
                         len(va), len(vb), qa, qb, delta, bound,
                         verdict(va, vb, better, bound)))
    out.write(f"{'workload':24} {'metric':36} {'unit':6} {'nA':>3} {'nB':>3} "
              f"{'A q1/med/q3':>32} {'B q1/med/q3':>32} {'delta':>8} {'bound':>6}  verdict\n")
    for w, name, unit, na, nb, qa, qb, delta, bound, v in rows:
        fa = "/".join(f"{x:.4g}" for x in qa)
        fb = "/".join(f"{x:.4g}" for x in qb)
        fbound = f"{bound:.0%}" if bound is not None else "-"
        out.write(f"{w:24} {name:36} {unit:6} {na:3} {nb:3} {fa:>32} {fb:>32} "
                  f"{delta:+7.2f}% {fbound:>6}  {v}\n")
    return rows


def golden():
    binary = build()
    if binary is None:
        return 1
    path = ROOT / "perfbench" / "golden.json"
    done = subprocess.run([str(binary), "--write-golden", str(path)], check=False,
                          timeout=RUN_TIMEOUT_S)
    return done.returncode


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.jsonl B.jsonl", file=sys.stderr)
            return 2
        compare(argv[1], argv[2])
        return 0
    if argv[:1] == ["golden"]:
        return golden()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="append the run record to this JSON-lines file")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
