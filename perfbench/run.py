#!/usr/bin/env python3
"""Build and run the checker's benchmark for one workload.

    python3 perfbench/run.py --workload table3|fuzz|fig10|fig11 \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the repository root. It builds `perfbench` (release, offline)
into `$CARGO_TARGET_DIR` (default `.bench_build`), prints a run header
(commit, nproc, PC_THREADS, build profile, rustc version, seed), then
runs the workload in a process of its own. The last stdout line is the
result: `{"correct", "attempted", "failed", "metrics"}`. Exit status is
non-zero, with no result line, when the build or the run fails.
`--workload all` runs every workload untraced and traced, each in its
own process, and writes all result lines to one JSON record in the
target directory.

Every `PC_*` variable is cleared for the run (they switch tracing,
reference engines or fault injection on), except `PC_THREADS`, which is
clamped to nproc and defaults to it (to 1 for fuzz). See README.md in
this directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table3", "fuzz", "fig10", "fig11")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def output_of(cmd):
    try:
        return subprocess.run(
            cmd, capture_output=True, text=True, check=True, cwd=ROOT
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def commit():
    """The git commit, or a digest of the built sources outside git."""
    head = output_of(["git", "rev-parse", "HEAD"])
    if head:
        dirty = output_of(["git", "status", "--porcelain", "--", "crates", "perfbench"])
        return head + ("+dirty" if dirty else "")
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, names in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, n) for n in sorted(names)]
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def threads_for(workload, nproc):
    """PC_THREADS for a run: the caller's value, else nproc (1 for fuzz,
    whose tiny cells leave the pool idle while its per-check thread
    start-up ties the figure to the host's wake-up latency); never above
    nproc."""
    default = 1 if workload == "fuzz" else nproc
    try:
        threads = int(os.environ.get("PC_THREADS", default))
    except ValueError:
        threads = default
    return max(1, min(threads, nproc))


def run_one(binary, env, header, workload, seed, seconds, trace):
    """Print the run header, run one workload in its own process, and
    return (ok, stdout lines, header); `ok` means the process exited 0
    and its last line is a result."""
    header = dict(header, workload=workload, trace=int(trace),
                  PC_THREADS=threads_for(workload, header["nproc"]))
    print("# header " + json.dumps(header), flush=True)
    run = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", trace],
        cwd=ROOT, env=dict(env, PC_THREADS=str(header["PC_THREADS"])),
        stdout=subprocess.PIPE, text=True,
    )
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    ok = run.returncode == 0 and isinstance(result, dict) and set(result) == RESULT_KEYS
    if not ok:
        print(f"perfbench: {workload} run failed (exit {run.returncode})", file=sys.stderr)
    return ok, lines, header


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", choices=("0", "1"),
                    help="required unless --workload all, which runs both")
    args = ap.parse_args()
    if args.workload != "all" and args.trace is None:
        ap.error("--trace is required")

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: no crates/ next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("PC_")}
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")

    header = {
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "profile": "release",
        "rustc": output_of(["rustc", "-V"]),
        "seed": args.seed,
        "seconds": args.seconds,
    }

    if args.workload != "all":
        ok, lines, _ = run_one(binary, env, header, args.workload, args.seed,
                               args.seconds, args.trace)
        # A failed run prints no result line.
        print("\n".join(lines if ok else [l for l in lines if not l.startswith("{")]))
        return 0 if ok else 1

    # Every workload, untraced then traced, each in its own process; the
    # result lines are collected in one record next to the build.
    runs = []
    all_ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            ok, lines, run_header = run_one(binary, env, header, workload, args.seed,
                                            args.seconds, trace)
            print("\n".join(lines), flush=True)
            all_ok &= ok and json.loads(lines[-1])["correct"]
            if ok:
                runs.append({"header": run_header, "result": json.loads(lines[-1])})
    out = os.path.join(target, f"perfbench-seed{args.seed}.json")
    with open(out, "w") as fh:
        json.dump(runs, fh, indent=1)
    print(f"perfbench: all workloads {'passed' if all_ok else 'FAILED'}; record in {out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
