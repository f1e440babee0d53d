#!/usr/bin/env python3
"""Build perfbench inside the checkout and run one workload.

    python3 perfbench/run.py --workload pairs-deep --seed 1 --seconds 10 --trace 0

Every Go cache, the binary and the traced run's spans go under .bench_build
at the repository root (or $CARGO_TARGET_DIR, taken relative to that root),
so a run writes only inside the checkout. The result line is checked against
BENCHMARK.json before it is printed: a run that fails, or whose metrics do
not match the file, exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env(out):
    """The environment for the go tool, with every cache under out."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "TMPDIR": os.path.join(out, "tmp"),
        "HOME": os.path.join(out, "home"),
        "XDG_CONFIG_HOME": os.path.join(out, "home", "config"),
        "XDG_CACHE_HOME": os.path.join(out, "home", "cache"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOWORK": "off",
    })
    return env


def check(line, traced):
    """Raise ValueError unless line is a result matching BENCHMARK.json."""
    res = json.loads(line)
    if not isinstance(res, dict) or sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result line is not {correct, attempted, failed, metrics}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        names = sorted(set(got) ^ set(want)) or sorted(k for k in want if got[k] != want[k])
        raise ValueError("metrics differ from BENCHMARK.json: %s" % names)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    for d in ("tmp", "home"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    try:
        subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                       cwd=HERE, env=go_env(out), stdout=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--spans", os.path.join(out, "spans")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print("run.py: run failed: %s" % e, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        return proc.returncode or 1
    try:
        check(lines[-1], a.trace == 1)
    except (ValueError, KeyError, TypeError, OSError) as e:
        sys.stderr.write(proc.stdout)
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
