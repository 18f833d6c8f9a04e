"""Build file of the benchmark: compiles the repository's main sources and
the benchmark's own Scala sources with the Scala compiler that ships in
Spark's jar directory, into a directory keyed by a hash of every source.

    python3 perfbench/build.py        # prints the class directory

Run from the root of a checkout. Outputs go under `.bench_build/`.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
MAIN_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BENCH_SOURCES = os.path.join(ROOT, "perfbench", "src")


def spark_jars():
    """`$SPARK_HOME/jars`, else the first `jars` beside a `spark-submit` on PATH."""
    homes = [os.environ["SPARK_HOME"]] if os.environ.get("SPARK_HOME") else [
        os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        if os.path.isdir(os.path.join(home, "jars")):
            return os.path.join(home, "jars")
    raise SystemExit("perfbench: no Spark jar directory found; set SPARK_HOME")


def sources():
    if not os.path.isdir(MAIN_SOURCES):
        raise SystemExit(f"perfbench: no Scala sources at {MAIN_SOURCES}; run from a full checkout")
    found = []
    for top in (MAIN_SOURCES, BENCH_SOURCES):
        for d, _, files in os.walk(top):
            found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def build():
    """Compiles when the sources changed; returns the class directory."""
    srcs = sources()
    h = hashlib.sha256()
    for s in srcs:
        h.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    classes = os.path.join(OUT, "classes-" + h.hexdigest()[:16])
    if os.path.isdir(classes):
        return classes
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.path.join(spark_jars(), "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + srcs
    # the compiler's output goes to stderr: stdout carries only the result
    if subprocess.run(cmd, stdout=sys.stderr, timeout=840).returncode != 0:
        raise SystemExit("perfbench: compilation failed")
    os.rename(tmp, classes)
    return classes


if __name__ == "__main__":
    print(build())
