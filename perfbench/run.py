#!/usr/bin/env python3
"""Build the benchmark harness and toplistsd from source, then run one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload paper-exact --seed 1 --seconds 20 --trace 0

Everything the build and the runs write goes to .bench_build/ at the root:
the Go build cache, the two binaries, and per-run scratch directories,
which the harness removes when it finishes. The last line of stdout is the
harness's JSON result; a failed build exits non-zero without printing one.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "tmp")
    for d in (home, tmp, BIN):
        os.makedirs(d, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOENV="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def build(env):
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "toplistsd"), "./cmd/toplistsd"]),
        (HERE, ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        if not os.path.isfile(os.path.join(cwd, "go.mod")):
            sys.stderr.write("perfbench: no go.mod in %s; nothing to build\n" % cwd)
            return False
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    env = go_env()
    if not build(env):
        return 2
    r = subprocess.run([os.path.join(BIN, "perfbench")] + sys.argv[1:], env=env)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
