#!/usr/bin/env python3
"""Build and drive the benchmark suite (see perfbench/README.md).

One workload, one process (the command BENCHMARK.json names):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload in turn, each in its own process, optionally saving the
results for a later comparison:
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1] [--json FILE]

Compare two sets of saved runs against the bounds in BENCHMARK.json:
    python3 perfbench/run.py --compare A1.json A2.json ... -- B1.json B2.json ...

Toy-sized self-check of the suite (about ten seconds):
    python3 perfbench/run.py --smoke
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper_cold", "warm_family", "zipf_repeat", "writers_mixed", "sharded_tenants"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the suite from source in this checkout and return its path."""
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail(f"{ROOT} holds no dune project to build the suite from")
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/suite.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=900)
    if done.returncode != 0:
        fail("building perfbench/suite.exe failed")
    return os.path.join(ROOT, "_build", "default", "perfbench", "suite.exe")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    return result


def run_suite(exe, args, timeout=180):
    done = subprocess.run([exe] + args, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def arg_value(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def run_all(exe, argv):
    seed = arg_value(argv, "--seed", "1")
    seconds = arg_value(argv, "--seconds", str(bounds()["run_seconds"]))
    trace = arg_value(argv, "--trace", "0")
    out = arg_value(argv, "--json", None)
    results, status = [], 0
    for w in WORKLOADS:
        code, stdout, stderr = run_suite(
            exe, ["--workload", w, "--seed", seed, "--seconds", seconds, "--trace", trace])
        sys.stdout.write(stdout)
        sys.stderr.write(stderr)
        if code != 0:
            status = 1
        try:
            results.append(dict(last_json(stdout), workload=w, seed=int(seed), trace=int(trace)))
        except ValueError:
            status = 1
    if out:
        with open(out, "w") as f:
            json.dump(results, f, indent=1)
    return status


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def compare(argv):
    if "--" not in argv:
        fail("--compare A.json ... -- B.json ...")
    cut = argv.index("--")
    sides = [argv[argv.index("--compare") + 1:cut], argv[cut + 1:]]
    if not sides[0] or not sides[1]:
        fail("each side of --compare needs at least one file")
    values = [{}, {}]
    for side, files in enumerate(sides):
        for name in files:
            with open(name) as f:
                for r in json.load(f):
                    for metric, v in r["metrics"].items():
                        values[side].setdefault((r["workload"], metric), []).append(v["value"])
    spec = {m["name"]: m for m in bounds()["end_to_end"]}
    verdicts = {}
    head = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]")
    print(f"{head[0]:16} {head[1]:18} {head[2]:>34} {head[3]:>34}  verdict")
    for key in sorted(set(values[0]) & set(values[1])):
        workload, metric = key
        if metric not in spec:
            continue
        a, b = values[0][key], values[1][key]
        verdict = judge(a, b, spec[metric])
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        print(f"{workload:16} {metric:18} {summary(a):>34} {summary(b):>34}  {verdict}")
    print("verdicts: " + ", ".join(f"{n} {v}" for v, n in sorted(verdicts.items())))
    return 0 if set(verdicts) == {"agree"} else 1


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def summary(xs):
    q1, med, q3 = quartiles(xs)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def judge(a, b, spec):
    """Verdict of side B against side A for one metric: B's median may be
    worse than A's by at most the bound; a spread wider than the bound
    leaves the pair unresolved unless every B run beats (or loses to)
    every A run."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
    if ma == 0:
        return "agree" if mb == 0 else "unresolved"
    worse = (mb - ma) / ma if lower else (ma - mb) / ma
    spread = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb) if mb else math.inf)
    b_better = all(x < y for x in b for y in a) if lower else all(x > y for x in b for y in a)
    b_worse = all(x > y for x in b for y in a) if lower else all(x < y for x in b for y in a)
    if spread > bound:
        return "improved" if b_better else "regressed" if b_worse else "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > bound:
        return "improved"
    return "agree"


def check(cond, msg, errors):
    if not cond:
        errors.append(msg)


def smoke(exe):
    """Every workload at toy size: results parse and are correct, every
    metric BENCHMARK.json names is present and finite, every span has a
    non-negative self time, and the statement list is a function of the
    seed."""
    spec = bounds()
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    errors, start = [], time.time()
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    for w in WORKLOADS:
        lists = []
        for seed, trace in [(1, 0), (1, 1), (2, 0)]:
            listing = os.path.join(scratch, f"smoke-{w}-{seed}-{trace}.txt")
            code, stdout, stderr = run_suite(exe, [
                "--workload", w, "--smoke", "--seconds", "0.05", "--seed", str(seed),
                "--trace", str(trace), "--statements", listing])
            where = f"{w} seed {seed} trace {trace}"
            check(code == 0, f"{where}: exit {code}: {stderr.strip()[-300:]}", errors)
            try:
                r = last_json(stdout)
            except ValueError as e:
                errors.append(f"{where}: unreadable result ({e})")
                continue
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{where}: {r['failed']} of {r['attempted']} failed", errors)
            got = set(r["metrics"])
            missing, extra = sorted(names[trace] - got), sorted(got - names[trace])
            check(not missing and not extra, f"{where}: metrics differ from BENCHMARK.json: "
                  f"missing {missing}, extra {extra}", errors)
            for m, v in r["metrics"].items():
                check(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
                      f"{where}: {m} is not a finite number", errors)
            if trace:
                with open(os.path.join(scratch, f"bench-trace-{w}.jsonl")) as f:
                    spans = [json.loads(line) for line in f]
                check(spans, f"{where}: no spans", errors)
                bad = [s["name"] for s in spans if s["self"] < 0]
                check(not bad, f"{where}: negative self time in {bad[:3]}", errors)
            with open(listing, "rb") as f:
                lists.append(f.read())
        if len(lists) == 3:
            check(lists[0] == lists[1], f"{w}: one seed gave two statement lists", errors)
            check(lists[0] != lists[2], f"{w}: two seeds gave one statement list", errors)
    for e in errors:
        print("smoke: " + e)
    print(f"smoke: {len(WORKLOADS)} workloads, {len(errors)} problems, {time.time() - start:.1f}s")
    return 1 if errors else 0


def main(argv):
    if "--compare" in argv:
        return compare(argv)
    if "--exe" in argv:
        # A suite built elsewhere (the dune runtest rule passes its own).
        at = argv.index("--exe")
        exe = os.path.abspath(argv[at + 1])
        argv = argv[:at] + argv[at + 2:]
    else:
        exe = build()
    if "--smoke" in argv:
        return smoke(exe)
    if "--workload" in argv:
        os.chdir(ROOT)
        os.execv(exe, [exe] + argv)
    return run_all(exe, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
