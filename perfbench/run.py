#!/usr/bin/env python3
"""Build and run the fixed-seed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from the sources of this checkout with dune
(release profile, build directory .bench_build at the root of the
checkout, dune's shared cache off), then runs it from the root with the
same arguments.  The build log goes to stderr; stdout is the benchmark's,
whose last line is its JSON result.  The exit code is the benchmark's, or
1 if the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"


def run(cmd, **kwargs):
    """Run cmd to completion; if we are interrupted, stop it first."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 1
    # keep every file the build writes inside the checkout: the compiler's
    # temporary assembly files included
    tmp = os.path.join(ROOT, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(ROOT, BUILD_DIR, "xdg-cache"),
        TMPDIR=tmp,
    )
    build = run(
        [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet", TARGET],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
    code = run([exe] + sys.argv[1:], cwd=ROOT)
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
