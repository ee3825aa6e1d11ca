#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <paper_grid|fleet_grid|daemon_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. `--trace 0` uses the plain release build;
`--trace 1` uses the `traced` build (telemetry runtime compiled in plus
a counting allocator). The two builds live side by side under
`$CARGO_TARGET_DIR` (default `.bench_build`), and scratch files go to
`perfbench-work` next to them. Every argument is passed through to the
benchmark binary, whose last line of output is the result JSON.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Hard stop for one run, below the 180 s a run may take.
RUN_TIMEOUT_S = 175


def main():
    argv = sys.argv[1:]
    traced = "--trace" in argv and argv[argv.index("--trace") + 1 :][:1] == ["1"]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target_dir = os.path.join(target, "traced" if traced else "e2e")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target_dir,
    ]
    if traced:
        build += ["--features", "traced"]
    # Build output goes to stderr: stdout carries only the benchmark's lines.
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    try:
        return subprocess.run([binary, *argv, "--work-dir", work], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
