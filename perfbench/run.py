#!/usr/bin/env python3
"""Run one benchmark workload of the MinSigTree reproduction.

Usage, from the repository root:
  python3 perfbench/run.py --workload syn-read --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

Builds the program and the benchmark from source (perfbench/build.py), runs
the workload in one JVM with local Spark, and prints as the last stdout line
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it records the host, the seeds, sample counts and any
failed op. Workloads and metrics are described in perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["syn-read", "real-rw"]
RUN_TIMEOUT_S = 165
HEAP = "3g"
MODULE_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def java_command(classes, jars, work, main_args):
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
             "-Dlog4j2.configurationFile=perfbench/log4j2.properties"]
            + [f"--add-opens={m}=ALL-UNNAMED" for m in MODULE_OPENS]
            + ["-cp", os.pathsep.join([classes, os.path.join(jars, "*")]), "perfbench.Main"]
            + main_args)


def run_jvm(cmd):
    """Run the JVM in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def check_result(line, trace):
    """The last line must hold exactly the declared metrics."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {n: m["unit"] for n, m in res["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics {got} differ from BENCHMARK.json {want}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")
    try:
        classes, jars = build.build()
    except build.BuildError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    work = os.path.join(build.BUILD_DIR, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    if args.self_test:
        main_args = ["--self-test"]
    else:
        main_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--work", work]
    try:
        code, out = run_jvm(java_command(classes, jars, work, main_args))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    if code != 0 or not lines:
        print("\n".join(lines[:-1]))
        print(f"error: benchmark JVM exited with code {code}", file=sys.stderr)
        return code or 1
    if not args.self_test:
        try:
            check_result(lines[-1], args.trace == 1)
        except (ValueError, KeyError, OSError) as e:
            print("\n".join(lines[:-1]))
            print(f"error: malformed result: {e}", file=sys.stderr)
            return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
