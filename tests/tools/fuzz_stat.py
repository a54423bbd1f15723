#!/usr/bin/env python3
"""Seeded fuzz of vespera-stat's document readers.

Mutates the committed tools/bench_baseline/*.json and
tools/lint_baseline.json by truncation, byte flips and deep nesting,
then runs vespera-stat on each mutant against its original, in both
directions (and in `timeline` mode for documents with a timeline).
Every run must end on its own with exit 0 (clean), 1 (regression) or
2 (document error), and an exit 2 must explain itself on stderr with a
`vespera-stat:` message.

    fuzz_stat.py <vespera-stat> <repo-root> [--seed N] [--per-kind N]
"""

import argparse
import pathlib
import random
import subprocess
import sys
import tempfile


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


def check(cmd, label):
    """One run: terminates, exits 0/1/2, and explains an exit 2."""
    try:
        run = subprocess.run(cmd, capture_output=True, timeout=60)
    except subprocess.TimeoutExpired:
        return f"{label}: did not finish in 60 s"
    if run.returncode not in (0, 1, 2):
        return f"{label}: exit {run.returncode}"
    if run.returncode == 2 and b"vespera-stat: " not in run.stderr:
        return f"{label}: exit 2 without a message: {run.stderr[:200]!r}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("stat")
    ap.add_argument("root", type=pathlib.Path)
    ap.add_argument("--seed", type=int, default=25)
    ap.add_argument("--per-kind", type=int, default=6)
    args = ap.parse_args()

    docs = sorted((args.root / "tools" / "bench_baseline").glob("*.json"))
    docs.append(args.root / "tools" / "lint_baseline.json")
    rng = random.Random(args.seed)
    failures = []
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        for doc in docs:
            data = doc.read_bytes()
            modes = [[]]
            if b'"timeline"' in data:
                modes.append(["timeline"])
            for kind in (truncate, flip, nest):
                for i in range(args.per_kind):
                    mutant = pathlib.Path(tmp) / f"{kind.__name__}{i}.json"
                    mutant.write_bytes(kind(rng, data))
                    label = f"{doc.name} {kind.__name__} #{i}"
                    for mode in modes:
                        for pair in ([doc, mutant], [mutant, doc]):
                            runs += 1
                            err = check([args.stat, *mode, *map(str, pair)],
                                        f"{label} {' '.join(mode)}")
                            if err:
                                failures.append(err)
    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    print(f"fuzz_stat: {runs} runs over {len(docs)} documents, "
          f"{len(failures)} failures (seed {args.seed})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
