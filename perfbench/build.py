#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program (src/main/scala) and the
benchmark (perfbench/src) into .bench_build/classes with the Scala 2.13
compiler that ships in the Spark distribution's jars.

Usage, from the repository root:  python3 perfbench/build.py

Needs `java` on PATH and a Spark 2.13 distribution at $SPARK_HOME (or the one
whose `spark-submit` is on PATH). A build is skipped when no source changed
since the last one.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
CLASSES = os.path.join(BUILD_DIR, "classes")
STAMP = os.path.join(BUILD_DIR, "classes.sha256")


class BuildError(Exception):
    pass


def spark_jars():
    """The jars of $SPARK_HOME, else of the first `spark-submit` on PATH that
    sits in a Spark distribution with a Scala compiler jar."""
    homes = [os.environ.get("SPARK_HOME", "")]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = os.path.join(d, "spark-submit")
        if os.path.isfile(submit):
            homes.append(os.path.dirname(os.path.dirname(os.path.realpath(submit))))
    for home in homes:
        jars = os.path.join(home, "jars")
        if home and glob.glob(os.path.join(jars, "scala-compiler-2.13.*.jar")):
            return jars
    raise BuildError("no Spark distribution with a Scala 2.13 compiler found; set SPARK_HOME")


def scala_jar(jars, name):
    found = sorted(glob.glob(os.path.join(jars, f"{name}-2.13.*.jar")))
    if not found:
        raise BuildError(f"{name} 2.13 jar not found in {jars}")
    return found[-1]


def sources():
    program = sorted(glob.glob("src/main/scala/**/*.scala", recursive=True))
    bench = sorted(glob.glob("perfbench/src/**/*.scala", recursive=True))
    if not program:
        raise BuildError("no program sources under src/main/scala; run from the repository root")
    if not bench:
        raise BuildError("no benchmark sources under perfbench/src")
    return program + bench


def digest(files, compiler):
    h = hashlib.sha256(compiler.encode())
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile if needed; return (classes dir, Spark jars dir)."""
    jars = spark_jars()
    compiler = scala_jar(jars, "scala-compiler")
    files = sources()
    want = digest(files, compiler)
    if os.path.isdir(CLASSES) and os.path.isfile(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == want:
                return CLASSES, jars
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    args_file = os.path.join(BUILD_DIR, "sources.txt")
    with open(args_file, "w") as fh:
        fh.write("\n".join(files) + "\n")
    compiler_cp = os.pathsep.join([compiler, scala_jar(jars, "scala-library"), scala_jar(jars, "scala-reflect")])
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", compiler_cp, "scala.tools.nsc.Main",
           "-nowarn", "-d", tmp, "-classpath", os.path.join(jars, "*"), "@" + args_file]
    done = subprocess.run(cmd, stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        raise BuildError(f"scalac failed with exit code {done.returncode}")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(tmp, CLASSES)
    with open(STAMP, "w") as fh:
        fh.write(want + "\n")
    return CLASSES, jars


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
