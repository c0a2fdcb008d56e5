#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload communities --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds perfbench/ (library from
src/ plus the `kbench` binary) into .bench_build/, generates the
workload's inputs from --seed into .bench_work/, runs the measured process,
then a separate check process, and prints a report followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 the
per-layer ones, measured in a second, traced process, plus the tracing
overhead (traced minus untraced) of every end-to-end metric.

Peak RSS (VmHWM), thread count and VmSize are sampled from outside the
measured process, from /proc/<pid>/status. Exits 1 when the build, a run
or an output check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
KBENCH = os.path.join(BUILD, "kbench")
WORKLOADS = ("communities", "dense-full", "serve-mixed")
# Wall-clock limits of the child processes (seconds).
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 150
CHECK_TIMEOUT = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT)


def proc_status(pid):
    fields = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            fields[key] = value.split()[0] if value.split() else ""
    return {"threads": int(fields.get("Threads", 0)),
            "vmsize_mb": int(fields.get("VmSize", 0)) / 1024.0,
            "vmhwm_mb": int(fields.get("VmHWM", 0)) / 1024.0}


def measured_run(args, workdir, trace):
    """Runs `kbench run`; returns (run.json dict, peak RSS MB, samples).

    Answers the process's "SAMPLE <tag>" lines with a /proc/<pid>/status
    sample. The peak RSS is VmHWM at the "end" sample, taken after the
    process wrote its results (wait4's ru_maxrss would also count the
    forked interpreter before exec).
    """
    cmd = [KBENCH, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--dir", workdir, "--seconds", str(args.seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(RUN_TIMEOUT, proc.kill)
    watchdog.start()
    samples = {}
    try:
        for line in proc.stdout:
            if line.startswith("SAMPLE "):
                samples[line.split()[1]] = proc_status(proc.pid)
                proc.stdin.write("ok\n")
                proc.stdin.flush()
        proc.stdin.close()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    code = proc.returncode
    if code < 0:
        raise RuntimeError(f"measured run killed by signal {-code}")
    path = os.path.join(workdir, "run.json")
    if not os.path.exists(path):
        raise RuntimeError(f"measured run exited {code} without run.json")
    with open(path) as f:
        result = json.load(f)
    os.remove(path)
    if code != 0 and result["failed"] == 0:
        result["failed"] = 1
        result["failures"].append(f"measured run exited {code}")
    if "end" not in samples:
        raise RuntimeError("measured run ended without its final sample")
    return result, samples["end"]["vmhwm_mb"], samples


def read_hash_files(workdir):
    """The solution-hash files a measured run left, by name."""
    sets = {}
    for name in sorted(os.listdir(workdir)):
        if name.startswith("hashes") and name.endswith(".bin"):
            with open(os.path.join(workdir, name), "rb") as f:
                sets[name] = f.read()
    return sets


def host_stamp():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    stamp = json.loads(subprocess.run([KBENCH, "host"], check=True,
                                      capture_output=True, text=True).stdout)
    stamp = {"cores": os.cpu_count(), "cpu_model": model, **stamp}
    stamp["git_sha"] = None
    try:
        top, _, sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.partition("\n")
        # Only this checkout's own repository, not an enclosing one.
        if os.path.realpath(top.strip() or "/") == os.path.realpath(ROOT):
            stamp["git_sha"] = sha.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    if not stamp["git_sha"]:
        # A checkout without git metadata: identify the sources instead.
        digest = hashlib.sha256()
        for base in ("src", "perfbench"):
            for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
                dirnames.sort()
                for name in sorted(filenames):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
        stamp["source_sha256"] = digest.hexdigest()[:16]
    return stamp


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    build()
    # The checks must catch seeded corruptions before their verdict counts.
    self_test = subprocess.run([KBENCH, "self-test"], capture_output=True,
                               text=True, timeout=CHECK_TIMEOUT)
    if self_test.returncode != 0:
        raise RuntimeError("output-check self-test failed:\n" + self_test.stdout)
    stamp = host_stamp()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        subprocess.run([KBENCH, "gen", "--workload", args.workload, "--seed",
                        str(args.seed), "--dir", workdir], check=True,
                       timeout=CHECK_TIMEOUT)
        run, peak_mb, samples = measured_run(args, workdir, trace=False)
        failures = list(run["failures"])
        failed = run["failed"]
        check = subprocess.run([KBENCH, "check", "--workload", args.workload,
                                "--seed", str(args.seed), "--dir", workdir],
                               timeout=CHECK_TIMEOUT)
        with open(os.path.join(workdir, "check.json")) as f:
            checked = json.load(f)
        failures += checked["failures"]
        failed += len(checked["failures"]) or (check.returncode != 0)

        e2e = {name: value for name, (value, _) in run["end_to_end"].items()}
        e2e["peak_rss_mb"] = peak_mb
        missing = sorted(set(e2e_units) - set(e2e))
        if missing:
            raise RuntimeError(f"metrics not produced: {missing}")

        layer = {}
        spans = {}
        if args.trace:
            untraced_sets = read_hash_files(workdir)
            traced, traced_peak_mb, samples = measured_run(args, workdir, trace=True)
            failures += traced["failures"]
            failed += traced["failed"]
            # Same inputs, same solution sets (the serve workload's final
            # epoch depends on how many updates the run applied).
            if (args.workload != "serve-mixed" and
                    read_hash_files(workdir) != untraced_sets):
                failures.append("traced run enumerated a different set")
                failed += 1
            layer = {name: value for name, (value, _) in traced["per_layer"].items()}
            spans = traced["spans"]
            traced_e2e = {name: value for name, (value, _) in traced["end_to_end"].items()}
            traced_e2e["peak_rss_mb"] = traced_peak_mb
            for name in e2e_units:
                layer["trace_overhead." + name] = traced_e2e[name] - e2e[name]
            shutil.copy(os.path.join(workdir, "trace.json"),
                        os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"))
        if "before" in samples and "after" in samples:
            layer["serve.threads_end"] = samples["after"]["threads"]
            layer["serve.vmsize_growth_mb"] = (samples["after"]["vmsize_mb"] -
                                               samples["before"]["vmsize_mb"])
        attempted = max(1, run["attempted"])
        failed = min(failed, attempted)
        layer["error_rate"] = failed / attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # ---- report, then the result line.
    print("host " + json.dumps(stamp, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} attempted {attempted} failed {failed} "
          f"error_rate {failed / attempted:.6g}")
    for name in sorted(e2e_units):
        print(f"e2e {name} {e2e[name]:.6g} {e2e_units[name]}")
    for f in failures[:20]:
        print("FAILED " + f)
    if args.trace:
        for name in sorted(layer_units):
            print(f"layer {name} {layer.get(name, 0):.6g} {layer_units[name]}")
        for name, (count, total, self_s) in sorted(spans.items()):
            print(f"span {name} count {count} total_s {total:.6g} self_s {self_s:.6g}")
        metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in e2e_units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, TimeoutError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
