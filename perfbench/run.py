#!/usr/bin/env python3
"""Build and run the Fox Net wall-clock benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The first form builds perfbench/foxbench.exe with dune (from source, into
_build/) and runs one workload; the last line of its output is the JSON
result.  --trace 1 runs the traced variant, which reports the per-layer
metrics and writes the last traced round's spans to perfbench/out/.

--self-check runs every workload at reduced size, twice per mode, and
confirms that every metric named in BENCHMARK.json is emitted and that
the deterministic metrics repeat bit for bit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "foxbench.exe")
WORKLOADS = ["bulk", "rpc", "serve", "lossy"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_tree():
    for path in ["dune-project", "lib", os.path.join("perfbench", "dune"),
                 "BENCHMARK.json"]:
        if not os.path.exists(path):
            fail("%s not found: run from the root of a Fox Net source tree"
                 % path)
    if shutil.which("dune") is None:
        fail("dune not found on PATH")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/foxbench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            timeout=850)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed", 1)


def source_id():
    """The commit when this is a git checkout, else a digest of lib/."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, timeout=10)
            if out.returncode == 0:
                return out.stdout.decode().strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("lib"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "lib-sha256:" + digest.hexdigest()[:16]


def run_bench(args, timeout=170):
    """Run foxbench, echo its output, return (exit code, result or None)."""
    try:
        proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 1)
    out = proc.stdout.decode(errors="replace")
    lines = out.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, out, result


def measure(ns):
    spans = []
    if ns.trace == 1:
        os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
        spans = ["--spans", os.path.join("perfbench", "out",
                                         "spans-%s.csv" % ns.workload)]
    code, out, result = run_bench(
        ["--workload", ns.workload, "--seed", str(ns.seed),
         "--seconds", str(ns.seconds), "--trace", str(ns.trace),
         "--commit", source_id()] + spans)
    sys.stdout.write(out)
    sys.stdout.flush()
    if result is None:
        fail("no result line", 1)
    sys.exit(code)


# Metrics whose values must repeat exactly for one seed: allocation and
# virtual-time counts, and the per-layer event counts and ratios.
def deterministic(name, unit):
    if name in ("minor_words_per_op", "virt_goodput_Mbps"):
        return True
    return unit in ("count", "ratio", "words") and not name.startswith("trace.")


def self_check(seed):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            results = []
            for attempt in (1, 2):
                code, out, result = run_bench(
                    ["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace), "--quick"])
                tag = "%s trace=%d run %d" % (workload, trace, attempt)
                if code != 0 or result is None or not result["correct"]:
                    sys.stdout.write(out)
                    problems.append("%s: exit %d, result %r"
                                    % (tag, code, result and result["correct"]))
                    continue
                names = set(result["metrics"])
                for m in wanted[trace]:
                    if m["name"] not in names:
                        problems.append("%s: %s missing" % (tag, m["name"]))
                    elif result["metrics"][m["name"]]["unit"] != m["unit"]:
                        problems.append("%s: %s unit" % (tag, m["name"]))
                results.append(result)
            if len(results) == 2:
                first, second = (r["metrics"] for r in results)
                same = 0
                for name, m in first.items():
                    if not deterministic(name, m["unit"]):
                        continue
                    same += 1
                    if name not in second or second[name]["value"] != m["value"]:
                        problems.append(
                            "%s trace=%d: %s differs: %r vs %r"
                            % (workload, trace, name, m["value"],
                               second.get(name, {}).get("value")))
                print("%-6s trace=%d: %d metrics, %d deterministic ones repeat"
                      % (workload, trace, len(first), same))
    for p in problems:
        print("SELF-CHECK FAILED: " + p)
    print("self-check: %s" % ("FAIL" if problems else "PASS"))
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    ns = parser.parse_args()
    if not ns.self_check and ns.workload is None:
        parser.error("--workload is required")
    check_tree()
    build()
    if ns.self_check:
        self_check(ns.seed)
    else:
        measure(ns)


if __name__ == "__main__":
    main()
