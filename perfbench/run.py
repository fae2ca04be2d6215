#!/usr/bin/env python3
"""Build and run the CarlOS end-to-end benchmark from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the checkout.  It builds perfbench/main.exe with
dune (release profile, build directory .perfbench-build, dune cache off,
so nothing is written outside the checkout), then runs one batch of
simulations and passes the executable's output through: the last line of
standard output is the JSON result.  See perfbench/NOTES.md.

Exit codes: 0 on a complete run, 2 when the checkout cannot be built or
run, 1 when the benchmark itself failed or printed no result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = ".perfbench-build"  # dune wants a top-level directory name
EVENTS_DIR = os.path.join(ROOT, ".perfbench-events")
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die(2, "dune not found on PATH")


def run(cmd, timeout, env=None, capture=False):
    """Run cmd to completion; kill it and wait if it overruns."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die(1, f"{os.path.basename(cmd[0])} exceeded {timeout} s")
    return proc.returncode, out


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(2, f"{needed} is missing: run from the root of a CarlOS checkout")
    cmd = dune_command() + [
        "build",
        "--root", ".",
        "--build-dir", BUILD_DIR,
        "--profile", "release",
        "--cache", "disabled",
        "./perfbench/main.exe",
    ]
    code, _ = run(cmd, BUILD_TIMEOUT_S)
    if code != 0 or not os.path.exists(EXE):
        die(2, "build failed")


def main():
    args = sys.argv[1:]
    build()
    env = dict(os.environ)
    # Default GC settings, whatever the caller's environment says.
    env.pop("OCAMLRUNPARAM", None)
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    # A traced run opens the runtime's event ring; keep it under
    # .perfbench-events rather than in the working directory.
    os.makedirs(EVENTS_DIR, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = EVENTS_DIR
    try:
        code, out = run([EXE] + args, RUN_TIMEOUT_S, env=env, capture=True)
    finally:
        shutil.rmtree(EVENTS_DIR, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        die(2 if code == 2 else 1, f"benchmark exited with code {code}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        die(1, "benchmark printed no result")


if __name__ == "__main__":
    main()
