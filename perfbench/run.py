#!/usr/bin/env python3
"""Build the daemons and the benchmark from the tree under test, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-discovery --seed 1 --seconds 10 --trace 0

Everything the build and the run write stays under .bench_build/perfbench
in the checkout: the Go build cache, the binaries, and the daemons' data
directories and logs. The last line of standard output is the JSON result;
the exit code is non-zero when the build fails or a correctness gate fails.
"""

import argparse
import os
import subprocess
import sys

DAEMONS = ["sf-certd", "sf-dbserver", "sf-gateway"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    missing = [d for d in DAEMONS if not os.path.isdir(os.path.join(root, "cmd", d))]
    if missing or not os.path.isfile(os.path.join(root, "go.mod")):
        sys.stderr.write("perfbench: run from the root of a checkout with go.mod and cmd/%s\n" % ", cmd/".join(DAEMONS))
        return 2

    out = os.path.join(root, ".bench_build", "perfbench")
    bin_dir = os.path.join(out, "bin")
    tmp = os.path.join(out, "tmp")
    os.makedirs(bin_dir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-buildvcs=false",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })

    builds = [
        (["go", "build", "-o", bin_dir + os.sep] + ["./cmd/" + d for d in DAEMONS], root),
        (["go", "build", "-o", os.path.join(bin_dir, "perfbench"), "."], here),
    ]
    for cmd, cwd in builds:
        res = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if res.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return res.returncode or 1

    # Replace this process, so whoever stops the benchmark stops
    # perfbench itself, and perfbench's daemons die with it.
    cmd = [
        os.path.join(bin_dir, "perfbench"),
        "-spec", os.path.join(root, "BENCHMARK.json"),
        "-bin", bin_dir,
        "-work", os.path.join(out, "work"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    sys.stdout.flush()
    os.execve(cmd[0], cmd, env)


if __name__ == "__main__":
    sys.exit(main())
