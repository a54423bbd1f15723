#!/usr/bin/env bash
# Host-performance trajectory: writes BENCH_<n>.json at the repo root
# with, for one Release build of the working tree,
#  - every bench binary's wall, user and sys time at --threads 1 and 4
#    (stdout discarded, no telemetry flags);
#  - for each heavy bench (at least 0.1 s at --threads 1), the host
#    self-profile of one more `--selfprof --threads 1` run: its window
#    and each category's share of it (docs/observability.md);
#  - the wall time and pass count of `ctest -j<nproc>`;
#  - machine info (CPU model and count, memory, kernel, compiler);
#  - perfbench's end-to-end metrics, scaled and as measured, for each
#    workload in PERFBENCH_WORKLOADS, at seed 1 and perfbench's own
#    run length (25 s).
#
#   tools/bench_trajectory.sh <n> [build-dir]
#
# build-dir (default: build-release at the repo root) is configured as
# a Release build and built first. PERFBENCH_WORKLOADS (default
# "llm_serve", space separated, "" for none) chooses the perfbench
# workloads. Single runs on a shared host drift by about 15%, so
# compare rows taken in one session.
set -euo pipefail

n="${1:?usage: bench_trajectory.sh <n> [build-dir]}"
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${2:-$root/build-release}"

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" -j "$(nproc)" >/dev/null

exec python3 - "$root" "$build" "$n" \
    "${PERFBENCH_WORKLOADS-llm_serve}" <<'EOF'
import json
import os
import pathlib
import platform
import re
import resource
import subprocess
import sys
import tempfile
import time

root, build, n = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2]), sys.argv[3]
workloads = sys.argv[4].split()
# Benches at least this slow at --threads 1 get a self-profile row.
heavy_s = 0.1


def timed(cmd, **kw):
    """Run cmd; return (completed process, wall, user, sys seconds)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    run = subprocess.run(cmd, **kw)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (run, wall, after.ru_utime - before.ru_utime,
            after.ru_stime - before.ru_stime)


def first_line(path, prefix):
    with open(path) as f:
        for line in f:
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip()
    return ""


cache = (build / "CMakeCache.txt").read_text()
cxx = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M).group(1)
machine = {
    "cpu": first_line("/proc/cpuinfo", "model name"),
    "nproc": os.cpu_count(),
    "mem_total": first_line("/proc/meminfo", "MemTotal"),
    "kernel": platform.release(),
    "compiler": subprocess.run([cxx, "--version"], capture_output=True,
                               text=True).stdout.splitlines()[0],
    "build_type": "Release",
}
commit = subprocess.run(["git", "-C", str(root), "describe", "--always",
                         "--dirty"], capture_output=True,
                        text=True).stdout.strip()

benches = {}
for exe in sorted((build / "bench").glob("bench_*")):
    if not (exe.is_file() and os.access(exe, os.X_OK)):
        continue
    row = {}
    for threads in (1, 4):
        run, wall, user, sys_ = timed([str(exe), f"--threads={threads}"],
                                      stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL)
        if run.returncode != 0:
            sys.exit(f"bench_trajectory: {exe.name} --threads={threads} "
                     f"exited {run.returncode}")
        row[f"threads{threads}"] = {"wall_s": round(wall, 4),
                                    "user_s": round(user, 4),
                                    "sys_s": round(sys_, 4)}
    if row["threads1"]["wall_s"] >= heavy_s:
        with tempfile.TemporaryDirectory() as tmp:
            metrics = pathlib.Path(tmp) / "metrics.json"
            subprocess.run([str(exe), "--threads=1", "--selfprof",
                            f"--metrics={metrics}"], check=True,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            host = json.loads(metrics.read_text())["host"]
        window = host["window_ns"]
        row["selfprof_threads1"] = {
            "window_s": round(window / 1e9, 4),
            "share": {cat: round(ns / window, 4) if window else 0.0
                      for cat, ns in sorted(host["time"].items())},
        }
    benches[exe.name] = row
    print(f"{exe.name:36s} " + "  ".join(
        f"t{t[-1]} {row[t]['wall_s']:.3f} s"
        for t in ("threads1", "threads4")), file=sys.stderr)

run, wall, user, sys_ = timed(["ctest", "-j", str(os.cpu_count())],
                              cwd=build, capture_output=True, text=True)
summary = re.search(r"(\d+)% tests passed, (\d+) tests failed out of (\d+)",
                    run.stdout)
ctest = {"wall_s": round(wall, 3), "user_s": round(user, 3),
         "sys_s": round(sys_, 3), "jobs": os.cpu_count(),
         "tests": int(summary.group(3)) if summary else None,
         "failed": int(summary.group(2)) if summary else None}
print(f"ctest {ctest['wall_s']:.2f} s, {ctest['failed']} failed of "
      f"{ctest['tests']}", file=sys.stderr)

perfbench = {}
for w in workloads:
    run = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"),
                          "--workload", w, "--seed", "1"],
                         capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"bench_trajectory: perfbench {w} exited {run.returncode}")
    result = json.loads(lines[-1])
    # The report's "reference / as measured" table holds the raw times.
    measured = {}
    for line in lines:
        cols = line.split()
        if len(cols) == 4 and cols[0] in result["metrics"]:
            measured[cols[0]] = float(cols[2])
    perfbench[w] = {
        # seconds: perfbench/run.py's default run length, used as is.
        "seed": 1, "seconds": 25, "correct": result["correct"],
        "failed": result["failed"],
        "scaled": {k: v["value"] for k, v in result["metrics"].items()},
        "as_measured": measured,
    }
    print(f"perfbench {w}: wall_s {perfbench[w]['scaled'].get('wall_s')} "
          f"(as measured {measured.get('wall_s')})", file=sys.stderr)

doc = {"schema": "vespera-bench-trajectory/v1", "n": int(n), "commit": commit,
       "machine": machine, "benches": benches, "ctest": ctest,
       "perfbench": perfbench}
out = root / f"BENCH_{n}.json"
out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
print(f"wrote {out.relative_to(root)}", file=sys.stderr)
EOF
