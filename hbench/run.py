#!/usr/bin/env python3
"""Build and run one benchmark workload, or check the benchmark's steadiness.

One run (what BENCHMARK.json names):

    python3 hbench/run.py --workload serve-read-closed --seed 7 --seconds 45 --trace 0

builds `hybrids-server` and the `hybrids-perf` benchmark binary from source (release,
offline, into $CARGO_TARGET_DIR or .bench_build), prints the run's context
(nproc, load average, git rev, rustc version, feature set), then runs the
binary. Its last output line is the JSON result.

Steadiness mode runs two sets of N runs on fresh seeds and prints, for each
metric, every set's median and quartiles, the set-to-set difference of the
medians, and the spread over all 2N runs:

    python3 hbench/run.py --steadiness 5 --workload serve-read-closed --seconds 45
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve-read-closed", "serve-write-pipelined", "sim-paper-mix")
# A run must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "hybrids-server", "--bin", "hybrids-server"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "hbench/Cargo.toml"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log(f"run.py: build failed: {' '.join(cmd)}")
            return False
    return True


def output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def context():
    rev = output(["git", "rev-parse", "--short", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None
    feats = []
    for crate in ("nmp-sim", "hybrids"):
        try:
            with open(os.path.join(ROOT, "crates", crate, "Cargo.toml")) as f:
                m = re.search(r"^default\s*=\s*(\[.*?\])", f.read(), re.M)
            feats.append(f"{crate}:{m.group(1) if m else '[]'}")
        except OSError:
            feats.append(f"{crate}:?")
    print(f"info git_rev={rev or 'unknown (not a git checkout)'}")
    print(f"info rustc={output(['rustc', '--version']) or 'unknown'}")
    print(f"info features={' '.join(feats)} (default features, release profile)")
    sys.stdout.flush()


def run_once(workload, seed, seconds, trace, capture=False):
    """Run the benchmark binary once; return (exit code, stdout text or None)."""
    exe = os.path.join(target_dir(), "release", "hybrids-perf")
    server = os.path.join(target_dir(), "release", "hybrids-server")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--server", server, "--out", os.path.join(ROOT, "hbench", "results")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run.py: {workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    return proc.returncode, out


def steadiness(args):
    sets = []
    for s in range(2):
        runs = []
        for i in range(args.steadiness):
            seed = 1000 * (s + 1) + i
            code, out = run_once(args.workload, seed, args.seconds, args.trace, capture=True)
            last = out.strip().splitlines()[-1] if out and out.strip() else ""
            if code != 0 or not last.startswith("{"):
                log(f"run.py: set {s} seed {seed} failed (exit {code})")
                return 1
            res = json.loads(last)
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
            log(f"set {s} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()))
        sets.append(runs)
    print(f"steadiness {args.workload}: 2 sets x {args.steadiness} runs, {args.seconds} s each")
    print(f"{'metric':<40} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
    for name in sorted(sets[0][0]):
        meds = []
        for s, runs in enumerate(sets):
            vals = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            meds.append(med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:<40} {s:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f}")
        diff = (meds[1] - meds[0]) / meds[0] if meds[0] else float("nan")
        print(f"{name:<40} set-to-set difference of medians {diff:+.4f}")
        vals = [r[name] for runs in sets for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<40} all {len(vals)} runs: median {med:.6g}, iqr/median {spread:.4f}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N",
                   help="run two sets of N runs on fresh seeds and report their spread")
    args = p.parse_args()
    if not build():
        return 1
    if args.steadiness:
        return steadiness(args)
    context()
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
