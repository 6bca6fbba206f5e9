#!/usr/bin/env python3
"""Build and run the pmonge repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hot_hits|burst_mix|kernel_batch \
        --seed N --seconds S --trace 0|1 [--burst-rate R]
    python3 perfbench/run.py --selftest

Run it from the root of a checkout.  Every call configures and builds
pmonge-serve and the benchmark binary (Release) under $CARGO_TARGET_DIR,
or .bench_build when that is unset; after the first call this is an
incremental no-op.
Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result.  The exit status is the benchmark's, or
non-zero without a result when the build fails.
"""
import os
import subprocess
import sys


def run(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no repository sources beside perfbench/ "
              "(src/CMakeLists.txt is missing)", file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build = os.path.join(build_root, "perfbench")
    args = sys.argv[1:]
    selftest = args == ["--selftest"]
    targets = ["perfbench-selftest"] if selftest else ["pmonge-perfbench", "pmonge-serve"]
    jobs = str(max(1, os.cpu_count() or 1))
    try:
        run(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
        run(["cmake", "--build", build, "-j", jobs, "--target", *targets])
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    if selftest:
        return subprocess.call([os.path.join(build, "perfbench-selftest")])
    out_dir = os.path.join(build_root, "perfbench-traces")
    os.makedirs(out_dir, exist_ok=True)
    return subprocess.call([
        os.path.join(build, "pmonge-perfbench"), *args,
        "--serve-bin", os.path.join(build, "pmonge", "pmonge-serve"),
        "--out-dir", out_dir,
    ])


if __name__ == "__main__":
    sys.exit(main())
