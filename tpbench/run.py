#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in this directory).

Usage, from the repository root:

    python3 tpbench/run.py --workload open-tcp --seed 1 --seconds 20 --trace 0

The program is built from source on every call (the Go build cache makes
repeat builds cheap). Every file the build and the run leave behind goes
under $CARGO_TARGET_DIR, default .bench_build, in the repository root.
The last line of standard output is the program's JSON result; build
output goes to standard error. Exits non-zero without a result when the
build fails, for example outside a full checkout.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Longest a single run may take once built; the workloads need about
# --seconds plus a few seconds of set-up, warm-up and quiesce.
RUN_TIMEOUT_S = 170


def source_digest():
    """Hash the Go sources and module files, so a run names the code it
    measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def git_head():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(ROOT, build))
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "tpbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1

    commit = "src:" + source_digest()
    head = git_head()
    if head:
        commit = "git:" + head + " " + commit
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-workdir", os.path.join(build, "tpbench-run"), "-commit", commit]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark did not finish in %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
