#!/usr/bin/env python3
"""Build and run the afp benchmark.

    python3 afpbench/run.py [--workload table1|scale|afpd|all] [--seed N]
                            [--seconds S] [--trace 0|1]
    python3 afpbench/run.py --self-check

Run from anywhere inside a checkout; the build goes to .bench_build at the
checkout root (override with --build-dir).  Each workload runs in its own
process with every AFP_* / AFPD_* variable cleared.  Without --trace every
workload runs untraced, then traced.  The last stdout line is the JSON
result; it is printed only after it has been checked against
BENCHMARK.json (every metric of the mode, with its unit); with several
runs its metric names carry a "workload/" prefix.  --self-check runs all
three workloads on tiny inputs, traced and untraced, and fails unless
every metric in BENCHMARK.json is printed with its unit and sample count.
See README.md beside this file.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table1", "scale", "afpd"]
# A run overshoots --seconds by its set-ups, the in-process check pass and
# at most one scale round per phase (about 35 s each); 140 s covers that
# and keeps a default run under 180 s even when the child hangs.
CHILD_MARGIN_S = 140


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_dir):
    """Configures once, then builds the driver and the daemon (a no-op when
    nothing changed).  Output goes to build.log in the build directory."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the afp sources (CMakeLists.txt, src/) are missing; "
             "run from a full checkout")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "afpbench",
                  "afpd", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail)
                fail(f"build failed (log: {log_path})", 1)


def find_binary(build_dir, *parts):
    path = os.path.join(build_dir, *parts)
    if not os.access(path, os.X_OK):
        fail(f"{path} was not built", 1)
    return path


def clean_env():
    return {k: v for k, v in os.environ.items()
            if not (k.startswith("AFP_") or k.startswith("AFPD_"))}


def stop_group(pgid):
    """Kills whatever is left of a workload's process group (a daemon
    orphaned by a crash) and waits until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def child_timeout(seconds):
    """How long a workload process may run: the measured time plus the
    set-ups, the in-process check pass and a scale round that started just
    before the window closed."""
    return seconds + CHILD_MARGIN_S


def run_workload(build_dir, workload, seed, seconds, trace, quick=False,
                 echo=True):
    """Runs one workload in its own process; returns (exit code, stdout
    lines).  Lines are echoed as they arrive except the last, which the
    caller checks before printing.  A reader thread collects the output, so
    the timeout holds however little the child prints."""
    # The daemon's socket goes beside its binary; a relative path keeps it
    # under the unix-socket path limit however deep the checkout sits.
    cmd = [find_binary(build_dir, "afpbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--afpd", os.path.relpath(find_binary(build_dir, "afp", "afpd"),
                                     ROOT)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=clean_env(),
                            start_new_session=True)
    lines = []

    def read():
        pending = None
        for line in proc.stdout:
            if pending is not None and echo:
                print(pending, flush=True)
            pending = line.rstrip("\n")
            lines.append(pending)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    limit = child_timeout(seconds)
    try:
        code = proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # Killing the group closes the pipe, which ends the reader.
        stop_group(proc.pid)
        proc.wait()
        reader.join()
    if code is None:
        print(f"run.py: {workload} exceeded {limit:g} s", file=sys.stderr)
        return 1, lines
    return code, lines


def check_result(line, names_units):
    """Returns a list of problems with a result line."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["the last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(res)}")
        return problems
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(res["failed"], int):
        problems.append("failed must be a whole number")
    metrics = res["metrics"]
    for name, unit in names_units:
        m = metrics.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')}, "
                            f"BENCHMARK.json says {unit}")
        elif not isinstance(m.get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    extra = set(metrics) - {n for n, _ in names_units}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def metric_list(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def self_check(build_dir, spec):
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_workload(build_dir, workload, 7, 1, trace,
                                       quick=True, echo=False)
            tag = f"{workload} trace={trace}"
            if code != 0 or not lines:
                problems.append(f"{tag}: exit code {code}")
                print("\n".join(lines[-20:]), file=sys.stderr)
                continue
            names_units = metric_list(spec, trace)
            problems += [f"{tag}: {p}"
                         for p in check_result(lines[-1], names_units)]
            table = "\n".join(lines[:-1])
            for name, unit in names_units:
                row = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+n=\d+"
                if not re.search(row, table, re.M):
                    problems.append(f"{tag}: no table row with unit and "
                                    f"sample count for {name}")
            print(f"self-check: {tag}: {len(names_units)} metrics checked",
                  flush=True)
    for p in problems:
        print(f"self-check: FAIL: {p}", file=sys.stderr)
    if problems:
        return 1
    print("self-check: ok")
    return 0


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed: regenerates every input")
    ap.add_argument("--seconds", type=float,
                    default=float(spec.get("run_seconds", 10)))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: both, the untraced pass first)")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--build-dir", default=os.path.join(ROOT, ".bench_build"))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 0 < args.seconds <= 3600:
        fail("--seconds must be in (0, 3600]")
    build_dir = os.path.abspath(args.build_dir)
    build(build_dir)

    if args.self_check:
        return self_check(build_dir, spec)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]
    runs = [(w, t) for t in traces for w in workloads]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload, trace in runs:
        code, lines = run_workload(build_dir, workload, args.seed,
                                   args.seconds, trace)
        problems = check_result(lines[-1], metric_list(spec, trace)) \
            if lines else ["no output"]
        for p in problems:
            print(f"run.py: {workload}: {p}", file=sys.stderr)
        if problems:
            return 1
        worst = max(worst, code)
        if len(runs) == 1:
            print(lines[-1], flush=True)
            break
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    if len(runs) > 1:
        print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
