#!/usr/bin/env python3
"""Build and run the fedwcm end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
repository's libraries and the benchmark binary under $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild only what changed. The last line of
standard output is the binary's JSON result, checked here against the metric
names and units BENCHMARK.json declares. Exits non-zero, without a result,
when the build or the run fails.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# A cold build plus one run must end within 900 s.
BUILD_TIMEOUT_S = 700
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in a process group of its own and waits for it. On timeout,
    or when this script is told to stop, kills the whole group (a build's
    compilers too); returns None on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    handlers = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    finally:
        for s, h in handlers.items():
            signal.signal(s, h)
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def run_logged(cmd, log_path):
    """Runs a build step with its output in `log_path`; False on failure."""
    with open(log_path, "a") as log:
        done = run_group(cmd, BUILD_TIMEOUT_S, stdout=log,
                         stderr=subprocess.STDOUT)
    if done is None or done.returncode != 0:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        return False
    return True


def build(target):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    open(log_path, "w").close()
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_logged(configure, log_path):
            if os.path.exists(cache):
                os.remove(cache)  # so the next call configures again
            fail("configuring the build failed")
    if not run_logged(["cmake", "--build", out, "--target", target,
                       "--parallel", "4"], log_path):
        fail("building %s failed" % target)
    return os.path.join(out, target)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"]}, {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def check_result(line, expected):
    """Checks the binary's last line against the declared metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys %s" % sorted(result))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        if m.get("unit") != expected[name]:
            fail("metric %s has unit %r, BENCHMARK.json says %r" % (
                name, m.get("unit"), expected[name]))
        if not isinstance(m.get("value"), (int, float)):
            fail("metric %s has no numeric value" % name)
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail("attempted must be a whole number of at least 1")


def selftest():
    spec, e2e, per_layer = declared_metrics()
    names = [w["name"] for w in spec["workloads"]] + list(e2e) + list(per_layer)
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad:
        fail("invalid names in BENCHMARK.json: %s" % bad)
    binary = build("perfbench_selftest")
    done = run_group([binary], RUN_TIMEOUT_S)
    sys.exit(1 if done is None else done.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    _, e2e, per_layer = declared_metrics()
    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    run = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if run is None:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("the run exited with code %d" % run.returncode)
    check_result(lines[-1], per_layer if args.trace else e2e)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
