#!/usr/bin/env python3
"""Builds sash and sash_perfbench from source, runs one workload, and
prints the result as the last line of stdout.

    python3 perfbench/run.py --workload cli_warm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Everything the run builds or writes stays
under the build directory (.bench_build, or $CARGO_TARGET_DIR when that is a
relative path): the CMake build, the per-run scratch directory, the span
files of traced runs, and results.jsonl, which records every result together
with the host and build it came from.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cli_warm", "batch_cold", "serve_mixed", "monitor_stream")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", "")
    if not target or os.path.isabs(target) or ".." in target.split(os.sep):
        target = ".bench_build"
    return os.path.join(ROOT, target)


def build(out_dir):
    """Configures (once) and builds the sash CLI and sash_perfbench in Release."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"{needed} is missing: run from the root of a sash checkout")
            return None
    cmake_dir = os.path.join(out_dir, "cmake")
    build_log = os.path.join(out_dir, "build.log")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target", "sash",
                  "sash_perfbench"])
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                log(f"build failed; see {build_log}")
                return None
    return cmake_dir


def compiler_id(cmake_dir):
    compiler = "unknown"
    with open(os.path.join(cmake_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = ""
    return f"{compiler} ({version})" if version else compiler


def source_identity():
    """The git sha when this is a git checkout, and always a digest of the
    sources the benchmark builds, which identifies the code either way."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def complete_metrics(result, trace):
    """Checks the printed metrics against the names and units BENCHMARK.json
    lists for this kind of run, the one place they are kept, and adds the
    per-layer metrics of layers the workload does not cross as 0. Returns
    what is wrong, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    other = {m["name"] for m in spec["end_to_end" if trace else "per_layer"]}
    printed = {n: m for n, m in result.get("metrics", {}).items() if n not in other}
    extra = sorted(set(printed) - set(expected))
    if extra:
        return f"metrics not in BENCHMARK.json: {extra}"
    wrong_unit = sorted(n for n, m in printed.items() if m.get("unit") != expected[n])
    if wrong_unit:
        return f"units differ from BENCHMARK.json: {wrong_unit}"
    missing = sorted(set(expected) - set(printed))
    if missing and not trace:
        return f"end-to-end metrics not measured: {missing}"
    result["metrics"] = {name: printed.get(name, {"value": 0, "unit": unit})
                         for name, unit in expected.items()}
    return None


def run_bench(argv):
    """Runs sash_perfbench in its own process group, so a hung run cannot leave
    a daemon behind; returns (exit code, stdout)."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1, ""
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # Anything the run left behind.
    except ProcessLookupError:
        pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")

    out_dir = build_dir()
    cmake_dir = build(out_dir)
    if cmake_dir is None:
        return 2
    bench = os.path.join(cmake_dir, "sash_perfbench")
    sash = os.path.join(cmake_dir, "sash", "tools", "sash")
    work = os.path.join(out_dir, "work", f"{args.workload}-{os.getpid()}")
    rel = lambda p: os.path.relpath(p, ROOT)
    code, out = run_bench([bench, "--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", args.trace,
                            "--sash", rel(sash), "--work", rel(work),
                            "--out", rel(os.path.join(out_dir, "out"))])
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("sash_perfbench printed no result")
        return code or 1

    wrong = complete_metrics(result, args.trace == "1")
    if wrong is not None:
        log(wrong)
        return 1

    sha, digest = source_identity()
    host = {
        "nproc": os.cpu_count(),
        "build_type": "Release",
        "compiler": compiler_id(cmake_dir),
        "git_sha": sha,
        "source_digest": digest,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
    }
    with open(os.path.join(out_dir, "results.jsonl"), "a") as ledger:
        ledger.write(json.dumps({"host": host, "result": result}) + "\n")
    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(host))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
