#!/usr/bin/env python3
"""Build and run the hidden-hhh end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `hhh-aggd` daemon from the repository's workspace and the
`perfbench` binary from this directory (both `--release --offline`, into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the binary with the
given arguments. Its standard output is passed through: its
last line is the JSON result. Build output goes to standard error.
Traced runs (`--trace 1`) also write their spans to
$CARGO_TARGET_DIR/perfbench-spans/.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run is stopped (with everything it started) after this long.
RUN_TIMEOUT_S = 170


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "hhh-aggd", "--bin", "hhh-aggd"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--aggd", os.path.join(release, "hhh-aggd"),
        "--rustc", rustc_version(),
        "--spans", os.path.join(target_dir, "perfbench-spans"),
    ]
    # Own process group, so a timeout also stops the daemon children.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
    sys.exit(code)


if __name__ == "__main__":
    main()
