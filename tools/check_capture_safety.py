#!/usr/bin/env python3
"""Capture-safety source lint (the PR 3 determinism contract).

Counter and RateMeter updates are capture-aware: under an active
obs::ScopedCapture they are deferred into the task's SideEffectLog and
replayed in task-index order, which is what keeps --metrics JSON
byte-identical at any thread count (docs/runtime.md). Everything else
in the telemetry surface is NOT deferred:

  - obs::Histogram mutation (add / merge / reset), including access
    through CounterRegistry::histogram(...) — documented single-thread;
  - common::Samples accumulation (push-back into a plain vector);
  - Samples/record-style raw recording added by future telemetry;
  - obs::SelfProf window operations (settle / reset / setEnabled) and
    raw obs::SelfLedger mutation (merge / settle / reset) — the
    *charge/alloc/cache hooks* apply at once under the profile's lock
    from any thread (integer sums commute), but the window control
    and bare-ledger paths are serial-only by contract;
  - obs::Timeline singleton control (setEnabled / setInterval /
    setCapacity / addSlo / clearSlos / reset / publishRun) and
    obs::TimelineRecorder gauge mutation (set / add / max /
    closeWindow / closeFinal) — a recorder is run-local state; only
    TimelineRecorder::publish() is capture-deferred.

Calling any of those from inside a parallel region (a lambda handed to
runtime::parallel_for / parallel_map / Pool::run) races the container
and makes the result depend on thread interleaving — exactly the bug
class ScopedCapture exists to prevent. This script walks src/ and
fails on such calls.

Heuristics, not a compiler: the lambda body is recovered by
parenthesis/brace matching from the call site, and Histogram/Samples
variables are recognized by their declarations within the same file.
A deliberate exception (e.g. a container proven task-local) can be
waived with a `// capture-ok` comment on the offending line.

Usage:
  tools/check_capture_safety.py [--root DIR] [--self-test]
"""

import argparse
import os
import re
import sys
import tempfile

PARALLEL_CALL = re.compile(
    r"\b(?:parallel_for|parallel_map)\s*\(|\bpool\.run\s*\(|"
    r"\bPool::global\(\)\s*\.run\s*\(")

# Mutations that bypass ScopedCapture regardless of receiver type.
ALWAYS_UNSAFE = [
    (re.compile(r"\bhistogram\s*\("),
     "CounterRegistry::histogram — Histogram mutation is not "
     "capture-deferred"),
    (re.compile(r"(?:\.|->)record\s*\("),
     "raw record() — not capture-deferred"),
    (re.compile(r"\bSelfProf::instance\(\)\s*\.\s*"
                r"(?:settle|reset|setEnabled)\s*\("),
     "SelfProf window control — serial-path only (charges commute, "
     "settle/reset/setEnabled do not)"),
    (re.compile(r"\bTimeline::instance\(\)\s*\.\s*"
                r"(?:setEnabled|setInterval|setCapacity|addSlo|"
                r"clearSlos|reset|publishRun)\s*\("),
     "Timeline singleton control — serial-path only (recorder "
     "publish() defers, the singleton's own methods do not)"),
    # Trace capture (the migration scorecard's parity path, src/port/)
    # installs a process-global observer: two captures racing would
    # interleave their recorded programs. captureTrace and raw
    # ScopedTraceObserver installation are serial-only by contract.
    (re.compile(r"\bcaptureTrace\s*\("),
     "captureTrace — installs a process-global trace observer, "
     "serial-path only"),
    (re.compile(r"\bScopedTraceObserver\b"),
     "tpc::ScopedTraceObserver — process-global trace capture, "
     "serial-path only"),
]

DECL_SAMPLES = re.compile(r"\b(?:common::)?Samples\s+(\w+)")
DECL_HIST = re.compile(r"\b(?:obs::)?Histogram\s+(\w+)")
DECL_SELF = re.compile(r"\b(?:obs::)?SelfLedger\s+(\w+)")
# Matches both a plain declaration and one behind unique_ptr<...>.
DECL_TL = re.compile(r"\b(?:obs::)?TimelineRecorder\s*>?\s+(\w+)")
WAIVER = "capture-ok"


def strip_comments(text):
    """Blank out comments and string literals, preserving newlines and
    column positions, so matching never fires inside either."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            # Keep the waiver token visible to the waiver check.
            chunk = text[i:j]
            out.append(WAIVER.ljust(j - i) if WAIVER in chunk
                       else " " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.append(re.sub(r"[^\n]", " ", text[i:j + 2]))
            i = j + 2
        elif c in "\"'":
            q, j = c, i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            out.append(c + " " * (j - i - 1) + (q if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def call_extent(text, open_paren):
    """Index one past the ')' closing the call opened at open_paren."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def check_file(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    text = strip_comments(raw)
    lines = raw.splitlines()

    unsafe = list(ALWAYS_UNSAFE)
    for decl, what in ((DECL_SAMPLES, "common::Samples"),
                       (DECL_HIST, "obs::Histogram"),
                       (DECL_SELF, "obs::SelfLedger")):
        for m in decl.finditer(text):
            name = m.group(1)
            unsafe.append((
                re.compile(r"\b%s\s*\.\s*(?:add|merge|settle|reset)"
                           r"\s*\(" % re.escape(name)),
                "%s '%s' mutated — not capture-deferred" % (what, name)))
    for m in DECL_TL.finditer(text):
        name = m.group(1)
        unsafe.append((
            re.compile(r"\b%s\s*(?:\.|->)\s*(?:set|add|max|closeWindow|"
                       r"closeFinal)\s*\(" % re.escape(name)),
            "obs::TimelineRecorder '%s' mutated — run-local state, "
            "not capture-deferred (only publish() defers)" % name))

    findings = []
    for m in PARALLEL_CALL.finditer(text):
        start = text.index("(", m.start())
        end = call_extent(text, start)
        body = text[start:end]
        body_line0 = text.count("\n", 0, start)
        for pat, why in unsafe:
            for hit in pat.finditer(body):
                line = body_line0 + body.count("\n", 0, hit.start())
                if WAIVER in text.splitlines()[line]:
                    continue
                findings.append(
                    "%s:%d: %s inside a parallel region\n    %s"
                    % (path, line + 1, why, lines[line].strip()))
    return findings


def scan(root):
    findings = []
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith((".cc", ".h")):
                findings += check_file(os.path.join(dirpath, name))
    return findings


SELF_TEST_BAD = """
#include "obs/counters.h"
void f() {
    common::Samples lat;
    obs::Histogram h("x");
    obs::SelfLedger ledger;
    std::unique_ptr<obs::TimelineRecorder> tl;
    runtime::parallel_for(8, [&](std::size_t i) {
        lat.add(1.0);                       // racy push_back
        h.merge(other);                     // racy merge
        reg.histogram("ttft").add(0.5);     // registry histogram
        obs::SelfProf::instance().settle(); // racy window close
        ledger.merge(worker);               // racy bare-ledger fold
        tl->add(0, 1.0);                    // racy gauge mutation
        obs::Timeline::instance().reset();  // racy singleton reset
        analysis::captureTrace([] {});      // racy trace observer
    });
    pool.run(4, [&](std::size_t i) { sink.record(i); });
}
"""

SELF_TEST_GOOD = """
#include "obs/counters.h"
void f() {
    common::Samples lat;
    obs::Histogram h("x");
    obs::SelfLedger ledger;
    obs::TimelineRecorder rec(1.0, 512, {});
    lat.add(1.0);      // serial path: fine
    h.add(2.0);        // serial path: fine
    ledger.settle(10); // serial path: fine
    obs::SelfProf::instance().reset(); // serial path: fine
    rec.closeWindow(); // serial path: fine
    obs::Timeline::instance().setInterval(0.5); // serial path: fine
    tpc::Program p = analysis::captureTrace([] {}); // serial: fine
    runtime::parallel_for(8, [&](std::size_t i) {
        reg.counter("ok.total").add(1.0); // capture-aware: deferred
        obs::SelfProf::instance().charge( // locked, commutes: fine
            obs::SelfCat::KernelEval, 5);
        obs::SelfProf::instance().recordAlloc(64); // locked too
        rec.publish("run"); // capture-aware: deferred publish
        lat.add(3.0); // capture-ok: task-indexed slot, joined after
    });
    // parallel_for mentioned in a comment: reg.histogram("x").add(1);
}
"""


def self_test():
    with tempfile.TemporaryDirectory() as d:
        bad = os.path.join(d, "bad.cc")
        good = os.path.join(d, "good.cc")
        with open(bad, "w") as f:
            f.write(SELF_TEST_BAD)
        with open(good, "w") as f:
            f.write(SELF_TEST_GOOD)
        bad_findings = check_file(bad)
        good_findings = check_file(good)
    ok = True
    if len(bad_findings) != 9:
        print("self-test: expected 9 findings in bad.cc, got %d:"
              % len(bad_findings))
        print("\n".join(bad_findings))
        ok = False
    if good_findings:
        print("self-test: expected clean good.cc, got:")
        print("\n".join(good_findings))
        ok = False
    print("self-test %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default="src",
                    help="directory tree to scan (default: src)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded positive/negative fixtures")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    findings = scan(args.root)
    for f in findings:
        print(f)
    if findings:
        print("%d capture-safety violation(s); wrap the mutation in "
              "the post-join serial path or waive with // capture-ok"
              % len(findings))
        return 1
    print("capture-safety: clean (%s)" % args.root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
