#!/usr/bin/env python3
"""Build the benchmark driver and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

The driver is configured and built (incrementally) under the directory
named by $CARGO_TARGET_DIR, default .bench_build, then run with the same
arguments. Build output goes to stderr; the driver's report, ending in
one JSON result line, goes to stdout. The exit code is the driver's, or
the build's when the build fails (as it does when the repository's
sources are missing).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"


def run_to_stderr(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    if code != 0:
        print(f"perfbench: {' '.join(cmd)} failed ({code})", file=sys.stderr)
        sys.exit(code if code > 0 else 1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        run_to_stderr(["cmake", "-S", HERE, "-B", build_dir,
                       "-G", "Unix Makefiles",
                       f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_to_stderr(["cmake", "--build", build_dir, "--target",
                   "perfbench-driver", "-j", jobs])
    return os.path.join(build_dir, "perfbench-driver")


def git_sha():
    """The checkout's commit, or "none" outside a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library and build sources, so a report names the
    code it measured even where there is no git history."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "scenarios", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    os.chdir(ROOT)
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    driver = build(os.path.join(build_root, "perfbench"))
    cmd = [driver, *sys.argv[1:],
           "--work-dir", os.path.join(build_root, "perfbench-work"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
