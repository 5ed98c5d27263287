#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all --seed <n> [--seconds <s>]

Builds the benchmark worker (perfbench/, a Cargo package of its own) and the
`delta-clusters` binary from source into $CARGO_TARGET_DIR (default
.bench_build), runs the workload in a fresh worker process, stamps the
result with the build and machine, and prints every metric with its unit and
sample count. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
`--all` runs every workload listed in BENCHMARK.json, untraced and traced.
The full result, stamp included, goes to .bench_out/. Exit status 0 means
every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER_TIMEOUT_S = 170
# Sources whose content identifies the measured build when no git
# metadata is available.
SOURCE_DIRS = ("crates", "src", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the worker and the server binary; returns their paths."""
    cargo = shutil.which("cargo")
    if cargo is None:
        die("cargo not found")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        die(f"{ROOT} holds no Cargo workspace to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        [cargo, "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
        [cargo, "build", "--release", "--offline", "-p", "dc-cli", "--bin", "delta-clusters"],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "delta-clusters")


def reap_group(pgid):
    """Kills whatever is left of the worker's process group and waits until
    it is gone (a crashed worker can leave its server child behind)."""
    deadline = time.monotonic() + 10
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass


def run_worker(worker, server, workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns its result object, or
    None if it produced none."""
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    cmd = [worker, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--server-bin", server, "--work-dir", work]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print(f"perfbench: {workload} timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
    finally:
        reap_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in out.decode(errors="replace").splitlines() if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench: {workload} printed no result (exit {proc.returncode})", file=sys.stderr)
        return None


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if not x.startswith(".") and x != "target")
            paths += [os.path.join(base, f) for f in files]
    for path in sorted(paths):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def stamp(seed, seconds, trace, config):
    return {
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "-V"]),
        "profile": "release",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": config.get("threads", config.get("server_threads")),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": config,
    }


def summarize(workload, trace, result):
    details = result.get("details", {})
    print(f"{workload} (trace {trace}): "
          f"{'all checks passed' if result['correct'] else 'CHECKS FAILED'}, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for title, key in (("metrics", "samples"), ("readings", "named")):
        print(f" {title}:")
        for r in details.get(key, []):
            value = r["value"]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {r['name']:<26} {shown:>14} {r['unit']:<8} n={r['samples']:<7} {r['note']}")
    for e in details.get("errors", []):
        print(f"  error: {e}")


def run_one(worker, server, workload, seed, seconds, trace):
    result = run_worker(worker, server, workload, seed, seconds, trace)
    if result is None:
        return None
    full = dict(result, stamp=stamp(seed, seconds, trace, result.get("details", {}).get("config", {})))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump(full, f, indent=1)
    summarize(workload, trace, result)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except OSError as e:
        die(f"BENCHMARK.json: {e}")
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    if not args.all and args.workload not in names:
        die(f"--workload must be one of {', '.join(names)}")

    worker, server = build()
    if args.all:
        ok = True
        for name in names:
            for trace in (0, 1):
                result = run_one(worker, server, name, args.seed, seconds, trace)
                ok = ok and result is not None and result["correct"]
        sys.exit(0 if ok else 1)

    result = run_one(worker, server, args.workload, args.seed, seconds, args.trace)
    if result is None:
        sys.exit(2)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
