#!/usr/bin/env python3
"""Build and run the TCQ benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run builds the program and the benchmark with sbt (offline) and
caches the result under perfbench/target/, keyed by a hash of the sources and
build files; later runs start the JVM directly. The last line of standard
output is the JSON result printed by repro.perfbench.Main. Build output goes
to standard error.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "runtime-classpath.txt")
STAMP = os.path.join(TARGET, "build-stamp.txt")
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 175
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseSerialGC"]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kw):
    """Runs `cmd` in its own process group and waits for it; on timeout or
    any interruption the whole group is killed and reaped. Returns the exit
    code, or None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def source_files():
    """Every file the build reads: the program's and the benchmark's."""
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for top in (os.path.join(ROOT, "project"), os.path.join(HERE, "project")):
        if os.path.isdir(top):
            files += [os.path.join(top, f) for f in os.listdir(top)
                      if f.endswith((".sbt", ".scala", ".properties"))]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src")):
        for d, dirs, fs in os.walk(top):
            dirs.sort()
            files += [os.path.join(d, f) for f in fs]
    return sorted(files)


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(want):
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"]
    code = run_group(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if code is None:
        fail("build timed out")
    if code != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed (sbt exit {code})")
    with open(STAMP, "w") as fh:
        fh.write(want)


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    start = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        fail(f"no program sources next to {HERE}: expected ../build.sbt and ../src/main/scala")

    want = stamp()
    have = open(STAMP).read() if os.path.exists(STAMP) else None
    if have != want or not os.path.exists(CLASSPATH):
        build(want)
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()

    spans = os.path.join(TARGET, "spans", f"{args.workload}.csv")
    cmd = ["java", *JVM_OPTS, "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans]
    budget = max(30.0, RUN_BUDGET_S - (time.monotonic() - start)) if have == want else RUN_BUDGET_S
    code = run_group(cmd, budget, cwd=ROOT)
    if code is None:
        fail(f"benchmark did not finish within {budget:.0f}s")
    sys.exit(code)


if __name__ == "__main__":
    main()
