#!/usr/bin/env python3
"""Build and run the PSan-Go benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mc-table2 --seed 1 --seconds 10 --trace 0

The script builds the benchmark program (perfbench/, a Go module that
replaces the `repro` module with the repository root) and the psan-worker
binary into the build directory -- $CARGO_TARGET_DIR if set, otherwise
.bench_build -- with Go's build cache, module cache, temporary files and
configuration kept inside it. It then runs the benchmark with the given arguments and passes
its output and exit code through. The last line of standard output is the
JSON result; a traced run (--trace 1) also writes
<build dir>/perfbench-trace.json, a Chrome trace.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("run.py: no go.mod here; run from the repository root", file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": tmp,
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    exe = os.path.join(build, "psanperf")
    worker = os.path.join(build, "psan-worker")
    for cmd in (["go", "build", "-o", exe, "."],
                ["go", "build", "-o", worker, "repro/cmd/psan-worker"]):
        built = subprocess.run(cmd, cwd=bench, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
