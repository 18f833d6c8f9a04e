"""HD-Index benchmark entry point.

    python3 perfbench/run.py --workload sift1m-tri --seed 1 --seconds 10 --trace 0

Builds the program from source (see build.py), then runs one workload in a
fresh JVM. The last line of standard output is the JSON result; see
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

RUN_TIMEOUT_S = 170
HEAP = "2g"
# What Spark needs opened on Java 17, as spark-submit passes it.
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
         "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
         "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
         "java.base/sun.security.action", "java.base/sun.util.calendar"]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    classes = build.build()
    # per-build state: answer digests of earlier runs, Spark scratch, trace files
    state = classes.replace("classes-", "state-")
    tmp = os.path.join(state, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # A fixed, pre-touched heap on huge pages keeps page faults out of the
    # timed allocations; the parallel collector has the cheapest barriers.
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-Xmn1g", "-XX:+AlwaysPreTouch",
            "-XX:+UseTransparentHugePages", "-XX:+UseParallelGC", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={tmp}",
            "-Dlog4j.configurationFile=" + os.path.join(build.ROOT, "perfbench", "log4j2.properties"),
            "-Dspark.driver.host=127.0.0.1"]
           + [f"--add-opens={o}=ALL-UNNAMED" for o in OPENS]
           + ["-cp", classes + os.pathsep + os.path.join(build.spark_jars(), "*"),
              "perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace, "--state", state])
    # a terminated runner takes the JVM down with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    proc = subprocess.Popen(cmd, cwd=build.ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
