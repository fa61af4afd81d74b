#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

    python3 perfbench/run.py --workload agg-deep --seed 1 --seconds 30 --trace 0

Arguments are passed through to perfbench.exe (see perfbench/README.md).
The build uses dune inside this checkout with the shared dune cache and
the user's dune configuration turned off, so the benchmark reads and
writes nothing outside the checkout apart from the OCaml toolchain.
The last line of standard output is the benchmark's JSON result; a
failed build exits non-zero without printing one.
"""
import ctypes
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Run the benchmark with address-space randomisation off (as
    `setarch -R` does), so every run gets the same memory layout:
    with it on, the set-up time of one process differed from the next
    by up to 13% on the same code. Left on if the kernel refuses."""
    personality = ctypes.CDLL(None, use_errno=True).personality
    current = personality(0xFFFFFFFF)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def main():
    local = os.path.join(ROOT, ".perfbench")
    env = dict(os.environ,
               DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(local, "cache"),
               XDG_CONFIG_HOME=os.path.join(local, "config"))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % build.returncode)
    run = subprocess.run([EXE, *sys.argv[1:], "--commit", commit()],
                         cwd=ROOT, timeout=175, preexec_fn=fixed_layout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
