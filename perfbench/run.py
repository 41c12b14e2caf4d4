#!/usr/bin/env python3
"""Build and run the layered benchmark from the root of a source tree.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 12 --trace 0

Builds perfbench/main.exe with dune (the first build compiles the
libraries it links, later ones are no-ops), stamps the provenance of the
tree it was built from, runs the executable with the given arguments and
exits with its exit code. The executable prints the result JSON as the
last line of standard output. See perfbench/README.md.
"""

import hashlib
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCES = ("dune-project", "lib", "bin", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def provenance(root):
    """The git commit when the tree is a checkout, else a content hash."""
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            if "/_build/" in f or not f.endswith(("dune", "dune-project", ".ml", ".mli", ".py")):
                continue
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    root = os.getcwd()
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of the source tree (no %s here)" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "perfbench/main.exe"], cwd=root,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    env = dict(os.environ, PERFBENCH_COMMIT=provenance(root))
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=root, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
