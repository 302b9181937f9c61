#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep-cello --seed 1 --seconds 30 --trace 0

Builds the benchmark program (perfbench/, its own Go module) and eschedd
from source into the build directory ($CARGO_TARGET_DIR, else
.bench_build), keeping the Go build cache, temporary files and the go
command's own configuration there too, then runs the benchmark program.
Its last output line is the result JSON. Exits non-zero without a result if
anything cannot be built or run.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sweep-cello", "sim-cello", "serve-batch")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOMODCACHE=os.path.join(build, "gomodcache"),
               GOPATH=os.path.join(build, "gopath"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOFLAGS="-mod=readonly", GOTOOLCHAIN="local", GOTELEMETRY="off",
               GOPROXY="off")
    binaries = os.path.join(build, "bin")
    bench_bin = os.path.join(binaries, "perfbench")
    eschedd = os.path.join(binaries, "eschedd")
    for cwd, out, pkg in ((bench, bench_bin, "."), (root, eschedd, "./cmd/eschedd")):
        built = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                               stdout=sys.stderr, timeout=800)
        if built.returncode != 0:
            sys.exit("perfbench: build of %s in %s failed" % (pkg, cwd))

    cmd = [bench_bin, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-root", root, "-work", os.path.join(build, "run"), "-eschedd", eschedd]
    sys.exit(subprocess.run(cmd, cwd=root, env=env).returncode)


if __name__ == "__main__":
    main()
