#!/usr/bin/env python3
"""Builds and runs the cello performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <dse-cg|dse-hpcg|serve-hit|serve-churn> \
        --seed <n> --seconds <s> --trace <0|1>

It builds the shipped `cello_serve` daemon and the benchmark crate in
release mode (offline, into $CARGO_TARGET_DIR, default `.bench_build`), then
runs the benchmark, whose last stdout line is the JSON result. Workload and
metric definitions are in BENCHMARK.json and perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(args, env):
    # Build chatter goes to stderr so the result stays the last stdout line.
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=True,
    )


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "serve")
    ):
        print("run.py: no cello workspace around perfbench/", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    try:
        cargo_build(["--bin", "cello_serve"], env)
        cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    # This host's cpuset does not balance load between its CPUs: a thread
    # stays on the CPU it was born on, so how fast a run went would depend on
    # where its threads happened to land. The benchmark and the daemon it
    # starts run on one CPU, the highest-numbered one allowed, instead.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "cello-perfbench"),
        *sys.argv[1:],
        "--daemon",
        os.path.join(release, "cello_serve"),
        "--scratch",
        os.path.join(target, "perfbench-scratch"),
    ]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
