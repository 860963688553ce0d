#!/usr/bin/env python3
"""Build perfbench from the repository's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench under the checkout root (the
first run compiles the libraries, later runs only check them). Build
output goes to stderr; stdout carries the benchmark's own output, whose
last line is the JSON result. A traced run also writes its spans to
.bench_build/perfbench/trace-<workload>-<seed>.jsonl. The exit code is
the benchmark's: 0 when every op and check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", target],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(BUILD, target)


def flag(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    if args == ["--selftest"]:
        return subprocess.run([build("perfbench_selftest")]).returncode
    binary = build("perfbench")
    if flag(args, "--trace") == "1" and "--trace-out" not in args:
        name = "trace-%s-%s.jsonl" % (flag(args, "--workload"),
                                       flag(args, "--seed"))
        args += ["--trace-out", os.path.join(BUILD, name)]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
