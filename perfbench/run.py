#!/usr/bin/env python3
"""Builds the bcc service and the benchmark harness from source, then runs
one workload of the benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Both builds are release builds into
$CARGO_TARGET_DIR (default: .bench_build at the checkout root); the harness
writes its generated inputs and span files under .bench_out. The harness's
stdout is relayed unchanged, so the last line is its JSON result. The exit
code is the harness's: 0 when every answer checked out, 1 on a wrong answer,
2 when the benchmark could not run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run measures for at most 60 s; set-up, checks and the traced replays
# come on top. The whole run must end well inside three minutes.
HARNESS_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for args in (
        ["cargo", "build", "--release", "--offline", "-p", "bcc-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        # Build output goes to stderr: stdout carries only the harness's lines.
        done = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"`{' '.join(args)}` failed with exit code {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli" / "Cargo.toml").is_file():
        fail(f"{ROOT} holds no bcc source tree to build")
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target_dir.is_absolute():
        target_dir = Path.cwd() / target_dir
    out_dir = ROOT / ".bench_out"
    build(target_dir)

    release = target_dir / "release"
    command = [
        str(release / "bcc-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--bcc", str(release / "bcc"),
        "--out", str(out_dir),
    ]
    # A session of its own, so the watchdog can stop the harness together
    # with every server process it launched.
    harness = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        try:
            os.killpg(harness.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(HARNESS_TIMEOUT_S, kill)
    watchdog.start()
    last = ""
    try:
        for line in harness.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        code = harness.wait()
    finally:
        watchdog.cancel()
    if timed_out.is_set():
        fail(f"the harness ran longer than {HARNESS_TIMEOUT_S} s")
    if code != 0:
        sys.exit(code)
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        fail("the harness printed no result line", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {last}", 1)


if __name__ == "__main__":
    main()
