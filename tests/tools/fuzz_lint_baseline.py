#!/usr/bin/env python3
"""Seeded fuzz of vespera-lint's baseline readers.

Mutates the committed tools/lint_baseline.json, lint_tune_baseline.json
and migrate_baseline.json by truncation, byte flips and deep nesting,
then runs `vespera-lint --baseline=<mutant>` on each in every mode
(trace, static, tune, migrate), so every reader also sees the other
modes' documents. Every run must end on its own with exit 0 (clean),
1 (regression) or 2 (document error), and an exit 2 must say why on
stderr: `baseline <file>: ...` naming the byte offset or the field.

    fuzz_lint_baseline.py <vespera-lint> <repo-root> [--seed N]
                          [--per-kind N]
"""

import argparse
import pathlib
import random
import re
import subprocess
import sys
import tempfile

# Each mode narrowed to a few kernels: the baseline is read whole
# whatever the filter, and the runs stay short.
MODES = [
    ["--kernel=stream_add"],
    ["static", "--kernel=stream_add"],
    ["tune", "--kernel=stream_add"],
    ["migrate", "--kernel=port_scale"],
]

BASELINES = ["lint_baseline.json", "lint_tune_baseline.json",
             "migrate_baseline.json"]


def truncate(rng, data):
    return data[:rng.randrange(len(data))]


def flip(rng, data):
    out = bytearray(data)
    for _ in range(rng.randint(1, 8)):
        out[rng.randrange(len(out))] ^= rng.randint(1, 255)
    return bytes(out)


def nest(rng, data):
    depth = rng.choice([65, 1000, 200000])
    if rng.random() < 0.5:
        return b"[" * depth + data + b"]" * depth
    at = rng.randrange(len(data))
    return data[:at] + rng.choice([b"[", b"{"]) * depth + data[at:]


def run(lint, mode, baseline):
    cmd = [lint, *mode, f"--baseline={baseline}"]
    try:
        return subprocess.run(cmd, capture_output=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None


def check(lint, mode, baseline, label):
    """One run: terminates, exits 0/1/2, and explains an exit 2."""
    done = run(lint, mode, baseline)
    if done is None:
        return f"{label}: did not finish in 120 s"
    if done.returncode not in (0, 1, 2):
        return f"{label}: exit {done.returncode}"
    if done.returncode == 2:
        # "baseline <file>: <what> at byte N" from the JSON parser, or
        # "baseline <file>: <field>: <problem>" from the schema check.
        why = re.compile(re.escape(f"baseline {baseline}: ".encode()) +
                         rb"(.* at byte \d+|[^:\n]+: .+)$", re.M)
        if not why.search(done.stderr):
            return (f"{label}: exit 2 without naming the file and the "
                    f"offset or field: {done.stderr[:200]!r}")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("lint")
    ap.add_argument("root", type=pathlib.Path)
    ap.add_argument("--seed", type=int, default=26)
    ap.add_argument("--per-kind", type=int, default=6)
    args = ap.parse_args()

    failures = []
    # The committed baselines pass their own modes.
    own = {"lint_baseline.json": MODES[:2],
           "lint_tune_baseline.json": MODES[2:3],
           "migrate_baseline.json": MODES[3:]}
    for name, modes in own.items():
        for mode in modes:
            doc = args.root / "tools" / name
            done = run(args.lint, mode, doc)
            if done is None or done.returncode != 0:
                failures.append(f"{name} {' '.join(mode)}: the committed "
                                f"baseline does not pass")

    rng = random.Random(args.seed)
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in BASELINES:
            data = (args.root / "tools" / name).read_bytes()
            for kind in (truncate, flip, nest):
                for i in range(args.per_kind):
                    mutant = pathlib.Path(tmp) / f"{kind.__name__}{i}.json"
                    mutant.write_bytes(kind(rng, data))
                    for mode in MODES:
                        runs += 1
                        err = check(args.lint, mode, mutant,
                                    f"{name} {kind.__name__} #{i} "
                                    f"{' '.join(mode)}")
                        if err:
                            failures.append(err)
    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    print(f"fuzz_lint_baseline: {runs} runs over {len(BASELINES)} "
          f"baselines, {len(failures)} failures (seed {args.seed})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
