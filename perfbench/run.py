#!/usr/bin/env python3
"""Host-time benchmark of the vespera simulator (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from the enclosing source tree into
.bench_build/, measures set-up time over several fresh processes, runs
one measuring process, checks every job's output digest against the
digests stored in perfbench/expected/, and prints the metrics. The last
line of stdout is the result:

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

Other modes:
    --steadiness     alternate the workloads over repeated runs (one seed
                     per run) and print each metric's median, quartiles,
                     range and quartile spread over median
    --write-expected regenerate perfbench/expected/ for the stored seeds
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
EXPECTED = os.path.join(HERE, "expected")

WORKLOADS = ["tpc_stream", "tpc_gather", "llm_serve", "lint"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# Fresh processes whose set-up is timed besides the measuring one; the
# reported setup_s is the median over all of them.
SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 4
CHILD_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark binary; exit 2 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs])
    with open(logfile, "w") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                out.flush()
                with open(logfile) as f:
                    tail = f.readlines()[-30:]
                sys.stderr.write("".join(tail))
                log(f"build failed ({' '.join(cmd[:2])}); log in {logfile}")
                if cmd[1] == "-S":
                    shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                sys.exit(2)


def run_child(args):
    """Run the binary; return (returncode, last stdout line, spawn clock)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench {' '.join(args)} did not finish in {CHILD_TIMEOUT_S} s")
        return 1, "", spawned
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), spawned


def setup_sample(out, spawned):
    """Seconds from spawning a process to the end of its set-up, raw and
    scaled by the reference loop timed right after set-up, then the same
    pair from the process's main entry (its in-process share)."""
    scale = out["reference_s"] / out["setup_loop_s"]
    raw = out["ready_clock"] - spawned
    in_process = out["ready_clock"] - out["main_clock"]
    return raw, raw * scale, in_process, in_process * scale


def setup_probe(workload, seed):
    rc, line, spawned = run_child(["--workload", workload, "--seed", str(seed),
                                   "--setup-only"])
    if rc != 0:
        fail(f"set-up of {workload} failed")
    return setup_sample(json.loads(line), spawned)


def load_expected(workload):
    path = os.path.join(EXPECTED, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)["seeds"]


def fail(reason, attempted=1, failed=1):
    """Print a failed result and exit 1."""
    log(reason)
    print(json.dumps({"correct": False, "attempted": max(1, attempted),
                      "failed": max(1, failed), "metrics": {}}))
    sys.exit(1)


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns the result dict (exits on failure)."""
    samples = [setup_probe(workload, seed) for _ in range(SETUP_PROBES_BEFORE)]
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    spans = None
    if trace:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        spans = os.path.join(BUILD, "spans", f"{workload}-seed{seed}.json")
        args += ["--spans", spans]
    rc, line, spawned = run_child(args)
    try:
        out = json.loads(line)
    except ValueError:
        fail(f"{workload} seed {seed}: no result (exit {rc})")
    if rc != 0 or "job_digests" not in out:
        fail(f"{workload} seed {seed}: failed", out.get("attempted", 1),
             out.get("failed", 1))
    samples.append(setup_sample(out, spawned))
    samples += [setup_probe(workload, seed) for _ in range(SETUP_PROBES_AFTER)]

    failed = out["failed"]
    expected = load_expected(workload).get(str(seed))
    if expected is not None:
        got = out["job_digests"]
        if len(got) != len(expected["jobs"]):
            failed += len(got)
            log(f"{workload} seed {seed}: {len(got)} jobs, expected "
                f"{len(expected['jobs'])}")
        else:
            for j, (a, b) in enumerate(zip(got, expected["jobs"])):
                if a != b:
                    failed += 1
                    log(f"{workload} seed {seed}: job {j} output digest {a} "
                        f"differs from the expected {b}")

    def median_of(i):
        return statistics.median(s[i] for s in samples)

    metrics = {}
    if not trace:
        metrics["setup_s"] = {"value": median_of(1), "unit": "s"}
    out["raw"]["setup_s"] = {"value": median_of(0), "unit": "s"}
    out["raw"]["setup_in_process_s"] = {"value": median_of(2), "unit": "s"}
    metrics.update(out["metrics"])
    return {
        "workload": workload, "seed": seed, "out": out, "spans": spans,
        "setup_samples": samples, "setup_in_process_s": median_of(3),
        "result": {"correct": failed == 0, "attempted": out["attempted"],
                   "failed": failed, "metrics": metrics},
    }


def print_report(r):
    out = r["out"]
    p = out["passes"]
    print(f"workload {r['workload']} seed {r['seed']}: {out['jobs']} jobs "
          f"per pass, closed loop, one client; passes: {p['serial']} serial, "
          f"{p['traced']} traced, {p['parallel']} on the 2-thread pool; "
          f"{out['measured_s']:.1f} s measured")
    print(f"  job latency samples: {out['latency_samples']}; set-up "
          f"samples: {len(r['setup_samples'])} fresh processes")
    if r["spans"]:
        print(f"  spans: {os.path.relpath(r['spans'], ROOT)}")
    raw = out["raw"]
    if r["spans"]:
        for name, m in r["result"]["metrics"].items():
            print(f"  {name:28s} {m['value']:16.6f} {m['unit']}")
    else:
        print(f"  {'metric':28s} {'reference':>16s} {'as measured':>16s}")
        for name, m in r["result"]["metrics"].items():
            measured = f"{raw[name]['value']:16.6f}" if name in raw else ""
            print(f"  {name:28s} {m['value']:16.6f} {measured:>16s} {m['unit']}")
        print(f"  {'setup_s in process':28s} {r['setup_in_process_s']:16.6f} "
              f"{raw['setup_in_process_s']['value']:16.6f} s "
              f"(main entry to ready; setup_s adds spawn and load)")
    print(f"  reference loop: median {raw['reference_loop_ms']['value']:.6f} ms"
          f" (times are scaled to {out['reference_s'] * 1e3:g} ms); serial "
          f"pass CPU/wall {raw['serial_cpu_per_wall']['value']:.4f}")
    res = r["result"]
    print(f"  jobs attempted {res['attempted']}, failed {res['failed']}")


def spread_row(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "iqr_over_median": (q3 - q1) / med if med else 0.0}


def steadiness(args):
    """Alternate workloads over repeated runs; print spread per metric."""
    values = {w: {} for w in WORKLOADS}
    raw = {w: {} for w in WORKLOADS}
    failed = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in WORKLOADS:
            r = measure(w, seed, args.seconds, args.trace == 1)
            res = r["result"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for name, m in r["out"]["raw"].items():
                raw[w].setdefault(name, []).append(m["value"])
            log(f"run {i + 1}/{args.runs} {w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()))
    report = {"nproc": os.cpu_count(), "runs": args.runs,
              "first_seed": args.first_seed, "seconds": args.seconds,
              "trace": args.trace, "failed": failed, "workloads": {},
              "as_measured": {}}
    print(f"nproc {os.cpu_count()}; {args.runs} runs per workload, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"{args.seconds} s each; failed jobs {failed}")
    for title, table, key in (("reported", values, "workloads"),
                              ("as measured", raw, "as_measured")):
        print(f"{title}:")
        print(f"  {'workload':11s} {'metric':26s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'min':>12s} {'max':>12s} {'iqr/med':>8s}")
        for w in WORKLOADS:
            report[key][w] = {}
            for name, v in table[w].items():
                row = spread_row(v)
                report[key][w][name] = row
                print(f"  {w:11s} {name:26s} {row['median']:12.6g} "
                      f"{row['q1']:12.6g} {row['q3']:12.6g} {row['min']:12.6g} "
                      f"{row['max']:12.6g} {row['iqr_over_median']:8.2%}")
    path = os.path.join(BUILD, "steadiness.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(f"raw values: {os.path.relpath(path, ROOT)}")


def write_expected():
    os.makedirs(EXPECTED, exist_ok=True)
    for w in WORKLOADS:
        seeds = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            rc, line, _ = run_child(["--workload", w, "--seed", str(seed),
                                     "--seconds", "0.1", "--trace", "0"])
            out = json.loads(line)
            if rc != 0 or out.get("failed", 1) != 0:
                log(f"{w} seed {seed} failed; not writing expected digests")
                sys.exit(1)
            seeds[str(seed)] = {"jobs": out["job_digests"]}
        with open(os.path.join(EXPECTED, f"{w}.json"), "w") as f:
            json.dump({"workload": w, "seeds": seeds}, f, indent=1)
            f.write("\n")
        log(f"wrote expected digests for {w}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()

    build()
    if args.steadiness:
        steadiness(args)
        return
    if args.write_expected:
        write_expected()
        return
    if not args.workload:
        ap.error("--workload is required")
    r = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    print_report(r)
    print(json.dumps(r["result"]))
    sys.exit(0 if r["result"]["correct"] else 1)


if __name__ == "__main__":
    main()
