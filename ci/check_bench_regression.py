#!/usr/bin/env python3
"""Diff committed BENCH_*.json files against the previous commit.

For every BENCH_*.json tracked at HEAD, fetches the same file at HEAD~1
(via `git show`) and compares per-record wall_seconds and, when present,
the serving counters requests_per_sec / p50_s / p99_s. A record regresses
when it got slower (or lower-throughput) beyond TOLERANCE. Records are
matched by their "name" label, so a file whose records repeat a name fails
the check outright: only one of the duplicates could ever be compared.
Added or removed records are reported but never fail the check, and a
file with no previous version is skipped — the first commit of a bench
cannot regress.

Bench numbers come from shared CI runners, so the tolerance is generous:
this check catches "accidentally quadratic", not single-digit noise.

A baseline can be missing for two distinct reasons, and the notice says
which: the file has no version at HEAD~1 at all (first commit of that
bench — cannot regress, skipped), or the previous version exists but does
not parse as JSON (also skipped, but called out loudly so a corrupted
baseline never silently disables the gate).

Each file's verdict names both hosts when its `host` block (the machine
fields BenchJsonWriter stamps; `git_sha` names the code, not the machine)
differs from the one at HEAD~1, so a reviewer can tell a machine change
from a code change. The hosts are printed only; they change no verdict.

`--list` prints every tracked BENCH_*.json with its record count and
baseline status, without comparing anything; the CI job logs it first so
a "no perf regressions" verdict always shows what was actually checked.

`--self-test` runs this script against throwaway two-commit git repos in
a temp dir and checks its verdicts: a +60% wall_seconds record fails, a
+40% one passes, duplicate record names fail, a missing baseline is
skipped and differing host blocks are printed. CI runs it first so a
broken gate can never pass vacuously.

Exit status: 1 when any matched record regressed beyond tolerance or any
file repeats a record name.
"""

import argparse
import collections
import glob
import json
import os
import subprocess
import sys
import tempfile

TOLERANCE = 0.50  # fail only on >50% regressions; CI runners are noisy
MIN_SECONDS = 0.01  # ignore records too fast to measure reliably

# counter name -> direction ("higher"/"lower" is better)
SERVING_COUNTERS = {
    "requests_per_sec": "higher",
    "p50_s": "lower",
    "p99_s": "lower",
}


def load_previous(path):
    """Returns (doc, status): (parsed, "ok"), (None, "missing") when the
    baseline commit has no such file, (None, "unparsable") when it does
    but the content is not valid JSON."""
    try:
        out = subprocess.run(
            ["git", "show", f"HEAD~1:{path}"],
            capture_output=True,
            check=True,
        ).stdout
    except subprocess.CalledProcessError:
        return None, "missing"  # new file, or HEAD has no parent
    try:
        return json.loads(out), "ok"
    except json.JSONDecodeError:
        return None, "unparsable"


def records_by_name(doc):
    return {r["name"]: r for r in doc.get("records", []) if "name" in r}


def duplicate_names(doc):
    counts = collections.Counter(
        r["name"] for r in doc.get("records", []) if "name" in r)
    return sorted(n for n, c in counts.items() if c > 1)


def machine(doc):
    """The host block without git_sha, or None when the file has none."""
    host = doc.get("host")
    if not isinstance(host, dict):
        return None
    return {k: v for k, v in host.items() if k != "git_sha"}


def describe_host(doc):
    host = doc.get("host")
    return json.dumps(host, sort_keys=True) if host else "no host block"


def ratio_regressed(old, new, direction):
    if old <= 0 or new <= 0:
        return False
    if direction == "lower":  # lower is better: new may be old * (1 + tol)
        return new > old * (1.0 + TOLERANCE)
    return new < old * (1.0 - TOLERANCE)


def check_file(path):
    new_doc = json.load(open(path))
    duplicates = duplicate_names(new_doc)
    if duplicates:
        print(f"  {path}: FAILED — duplicate record names "
              f"{', '.join(duplicates)}; records are matched by name, so "
              f"all but one of each would go unchecked")
        return [f"{path}: duplicate record name {n}" for n in duplicates]
    old_doc, baseline = load_previous(path)
    if baseline == "missing":
        print(f"  {path}: SKIPPED — baseline commit has no {path} "
              f"(first commit of this bench; nothing to compare against)")
        return []
    if baseline == "unparsable":
        print(f"  {path}: SKIPPED — baseline {path} exists at HEAD~1 but "
              f"is not valid JSON; fix or regenerate the baseline, the "
              f"regression gate is OFF for this file until then")
        return []
    old_records = records_by_name(old_doc)
    new_records = records_by_name(new_doc)
    regressions = []
    for name in sorted(set(old_records) | set(new_records)):
        if name not in old_records:
            print(f"  {path}: {name}: added")
            continue
        if name not in new_records:
            print(f"  {path}: {name}: removed")
            continue
        old, new = old_records[name], new_records[name]
        old_s, new_s = old.get("wall_seconds", 0), new.get("wall_seconds", 0)
        if old_s >= MIN_SECONDS and ratio_regressed(old_s, new_s, "lower"):
            regressions.append(
                f"{path}: {name}: wall_seconds {old_s:.4f} -> {new_s:.4f}")
        old_counters = dict(old.get("counters", {}))
        new_counters = dict(new.get("counters", {}))
        for counter, direction in SERVING_COUNTERS.items():
            if counter in old_counters and counter in new_counters:
                if ratio_regressed(old_counters[counter],
                                   new_counters[counter], direction):
                    regressions.append(
                        f"{path}: {name}: {counter} "
                        f"{old_counters[counter]:.4g} -> "
                        f"{new_counters[counter]:.4g}")
    status = "OK" if not regressions else f"{len(regressions)} regression(s)"
    print(f"  {path}: {len(new_records)} records, {status}")
    if machine(old_doc) != machine(new_doc):
        print(f"    host changed; HEAD~1: {describe_host(old_doc)}")
        print(f"                  HEAD:   {describe_host(new_doc)}")
    return regressions


def tracked_bench_files():
    tracked = subprocess.run(
        ["git", "ls-files", "BENCH_*.json"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    return [p for p in tracked if glob.glob(p)]


def list_files(paths):
    if not paths:
        print("no committed BENCH_*.json files")
        return 0
    print(f"{len(paths)} tracked bench file(s):")
    for path in paths:
        try:
            records = len(records_by_name(json.load(open(path))))
        except (OSError, json.JSONDecodeError):
            records = -1
        _, baseline = load_previous(path)
        status = {"ok": "baseline at HEAD~1",
                  "missing": "NO baseline at HEAD~1 (gate skips this file)",
                  "unparsable": "UNPARSABLE baseline at HEAD~1 (gate skips "
                                "this file)"}[baseline]
        head = f"{records} records" if records >= 0 else "UNPARSABLE at HEAD"
        print(f"  {path}: {head}, {status}")
    return 0


def bench_doc(records, host=None):
    doc = {"records": [{"name": n, "wall_seconds": s} for n, s in records]}
    if host is not None:
        doc["host"] = host
    return doc


def run_gate_on_commits(tmp, baseline, head):
    """Commits `baseline` then `head` (each a {path: doc} map) into a new
    git repo under `tmp`, runs this script there and returns (exit code,
    stdout)."""
    repo = tempfile.mkdtemp(dir=tmp)
    env = dict(os.environ, GIT_AUTHOR_NAME="self-test",
               GIT_AUTHOR_EMAIL="self-test@localhost",
               GIT_COMMITTER_NAME="self-test",
               GIT_COMMITTER_EMAIL="self-test@localhost")

    def git(*args):
        subprocess.run(["git", "-c", "commit.gpgsign=false", *args],
                       cwd=repo, env=env, check=True, capture_output=True)

    git("init", "-q")
    for files in (baseline, head):
        with open(os.path.join(repo, "README"), "a") as f:
            f.write("commit\n")  # every commit has something to record
        for path, doc in files.items():
            with open(os.path.join(repo, path), "w") as f:
                json.dump(doc, f)
        git("add", "-A")
        git("commit", "-q", "-m", "self-test")
    done = subprocess.run([sys.executable, os.path.abspath(__file__)],
                          cwd=repo, capture_output=True, text=True)
    return done.returncode, done.stdout


def self_test():
    slow = [("cell", 1.0)]
    cases = [
        ("+60% wall_seconds fails", {"BENCH_a.json": bench_doc(slow)},
         {"BENCH_a.json": bench_doc([("cell", 1.6)])}, 1,
         ["wall_seconds 1.0000 -> 1.6000"]),
        ("+40% wall_seconds passes", {"BENCH_a.json": bench_doc(slow)},
         {"BENCH_a.json": bench_doc([("cell", 1.4)])}, 0, ["OK"]),
        ("duplicate record names fail", {"BENCH_a.json": bench_doc(slow)},
         {"BENCH_a.json": bench_doc([("cell", 1.0), ("cell", 1.0)])}, 1,
         ["duplicate record names cell"]),
        ("missing baseline is skipped", {},
         {"BENCH_a.json": bench_doc([("cell", 9.0)])}, 0, ["SKIPPED"]),
        ("differing hosts are printed",
         {"BENCH_a.json": bench_doc(slow, {"cpu": "old-host"})},
         {"BENCH_a.json": bench_doc(slow, {"cpu": "new-host"})}, 0,
         ["host changed", "old-host", "new-host"]),
    ]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, baseline, head, want_code, want_text in cases:
            code, out = run_gate_on_commits(tmp, baseline, head)
            if code != want_code:
                failures.append(f"{name}: exit {code}, expected {want_code}"
                                f"\n{out}")
            for text in want_text:
                if text not in out:
                    failures.append(f"{name}: output lacks {text!r}\n{out}")
    if failures:
        print("self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("self-test passed: " + "; ".join(c[0] for c in cases))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--list", action="store_true",
                        help="list tracked bench files and baseline status "
                             "without comparing")
    parser.add_argument("--self-test", action="store_true",
                        help="check the gate's verdicts on throwaway git "
                             "repos")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    paths = tracked_bench_files()
    if args.list:
        return list_files(paths)
    if not paths:
        print("no committed BENCH_*.json files; nothing to check")
        return 0
    print(f"checking {len(paths)} bench file(s) against HEAD~1 "
          f"(tolerance {TOLERANCE:.0%}):")
    regressions = []
    for path in paths:
        regressions.extend(check_file(path))
    if regressions:
        print("\nperf regressions beyond tolerance or duplicate names:")
        for r in regressions:
            print(f"  {r}")
        return 1
    print("no perf regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
