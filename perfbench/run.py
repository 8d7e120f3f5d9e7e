#!/usr/bin/env python3
"""Builds the checker and the benchmark from source, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Build output and the
program's own diagnostics (such as the engine's per-spec `coi:` lines)
go to files under the build directory, not to the terminal.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["arbiter3", "seitz-smv", "serve-mix", "batch-coi"]


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def out_dir():
    return os.path.join(target_dir(), "perfbench-out")


def build():
    """Builds the `smc` binary and the benchmark in release mode."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at the checkout root; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    os.makedirs(out_dir(), exist_ok=True)
    log_path = os.path.join(out_dir(), "build.log")
    with open(log_path, "wb") as log:
        for cmd in (
            ["cargo", "build", "--release", "--offline", "--bin", "smc"],
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             os.path.join(HERE, "Cargo.toml")],
        ):
            code = subprocess.call(cmd, cwd=ROOT, env=env, stdout=log, stderr=log)
            if code != 0:
                sys.exit(f"perfbench: {' '.join(cmd)} failed (exit {code}); see {log_path}")


def run_workload(workload, seed, seconds, trace, extra=()):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    exe = os.path.join(target_dir(), "release", "perfbench")
    smc = os.path.join(target_dir(), "release", "smc")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--smc", smc, "--models", os.path.join(ROOT, "models"),
           "--out", out_dir(), *extra]
    err_path = os.path.join(out_dir(), f"{workload}-{seed}-trace{trace}.stderr")
    with open(err_path, "wb") as err:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
    if proc.returncode != 0:
        # Echo the benchmark's own diagnostics; the file keeps the rest.
        with open(err_path, errors="replace") as err:
            ours = [l for l in err if l.startswith("perfbench")]
        sys.stderr.writelines(ours[:20])
    return proc.returncode, proc.stdout.decode()


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_check():
    """Runs every workload once, briefly, in both modes; asserts every
    metric of BENCHMARK.json is printed with its unit and nothing failed;
    then proves the correctness gate is live with a wrong expected verdict."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            before = len(problems)
            code, out = run_workload(w, 1, 2, trace)
            res = result_of(out)
            if code != 0 or res is None:
                problems.append(f"{w} trace={trace}: exit {code}")
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{w} trace={trace}: failed_frac {res['failed']}/{res['attempted']}")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{w} trace={trace}: metric {m['name']} missing or wrong unit")
            if trace == 0:
                printed = {l.split()[1] for l in out.splitlines() if l.startswith("# ")}
                for name in ("op_p99_ms", "failed_frac"):
                    if name not in printed:
                        problems.append(f"{w}: summary line {name} missing")
            if len(problems) == before:
                print(f"self-check: {w} trace={trace}: {res['attempted']} ops, failed_frac 0")
    for w in WORKLOADS:
        code, out = run_workload(w, 1, 1, 0, ["--wrong-verdict"])
        res = result_of(out)
        if res is None or res["failed"] == 0 or res["correct"]:
            problems.append(f"{w}: a wrong expected verdict did not fail any operation")
        else:
            print(f"self-check: {w} with a wrong verdict: failed_frac "
                  f"{res['failed'] / res['attempted']:.3f} (gate is live)")
    for p in problems:
        print(f"self-check: FAIL {p}")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    code, out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
