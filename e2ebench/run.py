#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload grid-k8|kkt-k2|serve-mix \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `e2ebench` package (release
profile) into $CARGO_TARGET_DIR, default `.bench_build`, then runs it with
the given arguments. The last line of standard output is the result
object; a traced run also writes its spans as a Chrome trace under
`e2ebench/out/`. Exits non-zero when the build fails, an output is wrong,
or the run exceeds its time limit.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The run limit the benchmark must keep; the build is not counted.
RUN_TIMEOUT_S = 175
# Registry crates the workspace resolves to in-tree stand-ins. Passing the
# paths on the command line overrides any other patch of the same crates,
# so the build works from a checkout at any path.
STUBS = ("rand", "rayon", "proptest", "criterion")


def flag(args, name):
    try:
        return args[args.index(name) + 1]
    except (ValueError, IndexError):
        return None


def main(args):
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print(f"e2ebench: no repository crates under {ROOT}", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
             "--target-dir", str(target)]
    for crate in STUBS:
        stub = ROOT / "offline-stubs" / crate
        build += ["--config", f'patch.crates-io.{crate}.path="{stub}"']
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 2

    run = [str(target / "release" / "e2ebench")] + args
    if flag(args, "--trace") == "1":
        name = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.trace.json"
        run += ["--trace-out", str(BENCH_DIR / "out" / name)]
    # One host thread per partition: a batch run partitions on one, and
    # serve-mix's two workers get one each. A batch partition runs no
    # faster on two threads, and its fork-join supersteps then slow by a
    # fifth whenever another process takes one of the host's cores.
    env = dict(os.environ, RAYON_NUM_THREADS="1")
    try:
        return subprocess.run(run, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
