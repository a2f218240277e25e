#!/usr/bin/env python3
"""Build and run the two-clock benchmark of the GDR OpenSHMEM simulator.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload omb_sweep --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (its own Cargo workspace, with path
dependencies on the repository crates) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs it. The last line of standard output is the
JSON result; build output goes to standard error. Exits non-zero, with
no result line, when the build or the run fails.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("omb_sweep", "stencil2d_64", "chaos_campaign")
# A run must end within 180 s; leave room for process start and exit.
RUN_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--campaign-seed", type=int,
                    help="chaos_campaign's campaign seed (default 11)")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    # The simulator reads GDR_SHMEM_* settings (faults, trace output,
    # observability) from the environment: start from none of them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GDR_SHMEM_")}
    env["GDR_SHMEM_OBS"] = "spans" if a.trace else "off"
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [str(target / "release" / "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--root", str(ROOT), "--out", str(target / "perfbench-spans")]
    if a.campaign_seed is not None:
        cmd += ["--campaign-seed", str(a.campaign_seed)]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
